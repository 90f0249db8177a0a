"""Circuit-lane observables and circuit-vs-reference comparison runners.

The emulation pipeline: encode the initial occupation configuration as a
register product state, run the Trotterized circuit, and read populations
or two-point functions with the mapped operators. Every routine here has
an exact counterpart in the occupation-number reference (oracle module);
the comparison runners return both lanes side by side.
"""

from dataclasses import dataclass

import numpy as np

from . import gates, mapping, oracle, transpile
from .errors import UnsupportedLattice
from .gamma import DIM
from .mapping import SPINS, LatticeGeometry
from .oracle import GreensSeries


def site_level_probabilities(state: np.ndarray, site_count: int) -> np.ndarray:
    """(L, 4) array of per-site level occupation probabilities."""
    probs = np.abs(np.asarray(state).reshape([DIM] * site_count)) ** 2
    out = np.empty((site_count, DIM))
    for s in range(site_count):
        axes = tuple(a for a in range(site_count) if a != s)
        out[s] = probs.sum(axis=axes)
    return out


def circuit_populations(state: np.ndarray, site_count: int) -> dict:
    """{(site, spin): <N>} from a register statevector.

    Number operators are diagonal in the register basis; the weights per
    level follow from the derived level -> occupation assignment.
    """
    occupations = mapping.level_occupations()
    up_weights = np.array([occ[0] for occ in occupations], dtype=float)
    dn_weights = np.array([occ[1] for occ in occupations], dtype=float)
    level_probs = site_level_probabilities(state, site_count)
    out = {}
    for s in range(1, site_count + 1):
        out[(s, mapping.SPIN_UP)] = float(level_probs[s - 1] @ up_weights)
        out[(s, mapping.SPIN_DOWN)] = float(level_probs[s - 1] @ dn_weights)
    return out


def _require_chain(geometry: LatticeGeometry) -> None:
    """Refuse circuit dynamics off chains: emitted ladder rung circuits omit
    the intervening Gt string, so their populations would be wrong."""
    if geometry.kind != "chain":
        raise UnsupportedLattice(
            f"circuit dynamics on {geometry.label} are not supported: "
            "rung circuits omit the intervening Gt string"
        )


@dataclass(frozen=True)
class PopulationRow:
    tau: float
    steps: int
    site: int
    spin: str
    circuit_value: float
    oracle_value: float

    @property
    def abs_error(self) -> float:
        return abs(self.circuit_value - self.oracle_value)


def population_grid(
    geometry: LatticeGeometry,
    J: float,
    v: float,
    tokens,
    taus,
    steps: int,
) -> list:
    """Trotter-circuit vs exact populations for every (tau, site, spin)."""
    _require_chain(geometry)
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    h_exact = oracle.fermionic_hamiltonian(geometry, J, v)
    prop = oracle.ExactPropagator(h_exact)
    psi0 = mapping.product_state(tokens)
    fock0 = oracle.fock_state(tokens)
    L = geometry.site_count
    number_ops = {
        (s, spin): oracle.number_operator(s, spin, L)
        for s in range(1, L + 1)
        for spin in SPINS
    }
    rows = []
    for tau in taus:
        circuit = transpile.trotter_step_circuit(mh, tau, steps)
        state = gates.simulate(circuit, psi0)
        circ_pops = circuit_populations(state, L)
        psi_exact = prop.evolve(fock0, tau)
        for s in range(1, L + 1):
            for spin in SPINS:
                exact = float(np.real(np.vdot(psi_exact, number_ops[(s, spin)] @ psi_exact)))
                rows.append(PopulationRow(tau, steps, s, spin, circ_pops[(s, spin)], exact))
    return rows


def max_population_error(rows) -> float:
    return max(row.abs_error for row in rows)


def lesser_gf_circuit(
    geometry: LatticeGeometry,
    J: float,
    v: float,
    tokens,
    i: int,
    j: int,
    spin: str,
    times,
    steps: int,
) -> GreensSeries:
    """Lesser two-point function with Trotter-circuit Heisenberg evolution.

    G(t) = i <U(t) c_j psi0 | c_i U(t) psi0> with U(t) the step-count-steps
    circuit for total time t; the mapped ladder operators supply c_i, c_j.
    Global phases of U cancel between the two propagated vectors.
    """
    _require_chain(geometry)
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    L = geometry.site_count
    c_i = mapping.map_fermion(i, spin, "annihilate", L).matrix
    c_j = mapping.map_fermion(j, spin, "annihilate", L).matrix
    psi0 = mapping.product_state(tokens)
    removed = c_j @ psi0
    values = np.empty(len(times), dtype=complex)
    for idx, t in enumerate(times):
        if t == 0.0:
            bra, ket = removed, c_i @ psi0
        else:
            circuit = transpile.trotter_step_circuit(mh, t, steps)
            bra = gates.simulate(circuit, removed)
            ket = c_i @ gates.simulate(circuit, psi0)
        values[idx] = 1j * np.vdot(bra, ket)
    return GreensSeries(
        np.asarray(times, float), values, i, j, spin, "lesser",
        L, J, v, ",".join(tokens), source="circuit",
    )


def lesser_gf_pair(
    geometry: LatticeGeometry,
    J: float,
    v: float,
    tokens,
    i: int,
    j: int,
    spin: str,
    times,
    steps: int,
):
    """(circuit series, oracle series) for one lesser component."""
    circuit_series = lesser_gf_circuit(geometry, J, v, tokens, i, j, spin, times, steps)
    h = oracle.fermionic_hamiltonian(geometry, J, v)
    oracle_series = oracle.lesser_series(h, tokens, i, j, spin, times, J, v)
    return circuit_series, oracle_series
