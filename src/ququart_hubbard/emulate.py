"""Circuit-lane observables and circuit-vs-reference comparison runners.

The emulation pipeline: encode the initial occupation configuration as a
register product state, run the Trotterized circuit, and read populations
or two-point functions with the mapped operators, applied to the state
factor by factor. No 4^L x 4^L matrix is formed. Every routine here has
an exact counterpart in the occupation-number reference (oracle module);
the comparison runners return both lanes side by side.
"""

from dataclasses import dataclass

import numpy as np

from . import gates, mapping, oracle, transpile
from .errors import UnsupportedLattice
from .gamma import DIM
from .mapping import LatticeGeometry
from .oracle import GreensSeries

# circuit-vs-oracle lesser GF comparison grid: `greens` (up to --tmax) and
# acceptance criterion 7
LESSER_TIMES = oracle.uniform_grid(0.0, 5.0, 0.25)
LESSER_TIMES.flags.writeable = False


def circuit_populations(state: np.ndarray, site_count: int) -> dict:
    """{(site, spin): <N>} from a register statevector.

    Number operators are diagonal in the register basis: each site's level
    probabilities are weighted by the derived level -> (n_up, n_dn) table.
    """
    probs = np.abs(np.asarray(state)) ** 2
    weights = np.array(mapping.level_occupations(), dtype=float)
    out = {}
    for s in range(1, site_count + 1):
        n_up, n_dn = probs.reshape(DIM ** (s - 1), DIM, -1).sum(axis=(0, 2)) @ weights
        out[(s, mapping.SPIN_UP)] = float(n_up)
        out[(s, mapping.SPIN_DOWN)] = float(n_dn)
    return out


def require_chain(geometry: LatticeGeometry) -> None:
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
    require_chain(geometry)
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    h_exact = oracle.fermionic_hamiltonian(geometry, J, v)
    exact = oracle.exact_populations(h_exact, tokens, taus)
    grid = transpile.trotter_grid(mh, tuple(map(float, taus)), steps)
    states = gates.simulate_grid(grid, mapping.product_state(tokens))
    rows = []
    for k, tau in enumerate(taus):
        circ_pops = circuit_populations(states[k], geometry.site_count)
        for (s, spin), values in exact.items():
            rows.append(PopulationRow(tau, steps, s, spin, circ_pops[(s, spin)], float(values[k])))
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
    circuit for total time t; c_i and c_j act factor by factor through
    `mapping.apply_fermion`. Global phases of U cancel between the two
    propagated vectors.
    """
    require_chain(geometry)
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    L = geometry.site_count
    psi0 = mapping.product_state(tokens)
    removed = mapping.apply_fermion(psi0, j, spin, "annihilate", L)
    grid = transpile.trotter_grid(mh, tuple(map(float, times)), steps)
    # bra and ket propagate together as one (4^L, 2) batch, every time at
    # once; at t = 0 the step is empty and the batch comes back unchanged
    states = gates.simulate_grid(grid, np.column_stack([removed, psi0]))
    values = np.empty(len(times), dtype=complex)
    for idx, (bra, ket) in enumerate(states.transpose(0, 2, 1)):
        values[idx] = 1j * np.vdot(bra, mapping.apply_fermion(ket, i, spin, "annihilate", L))
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
