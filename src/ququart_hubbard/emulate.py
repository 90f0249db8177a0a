"""Circuit-lane observables and circuit-vs-reference comparison runners.

The emulation pipeline: encode the initial occupation configuration as a
register product state, run the Trotterized circuit, and read populations
or two-point functions with the mapped operators. Every Trotter step
conserves N_up and N_dn, so `population_grid` and `lesser_gf_circuit`
run their grids in the start state's sector only (`gates.simulate_sector`
from `mapping.token_state`): at half-filled chain(8) that is 4900 of
65,536 register amplitudes. `lesser_gf_circuit` takes a list of (i, j, spin)
components and propagates psi0 once and each distinct c_j psi0 once;
c_i and c_j are the sectors' signed index maps (`Sector.fermion`),
and `lesser_gf_pair` is its one-component form beside the oracle's
series. A grid whose fused blocks couple different charges
is refused with SynthesisResidual. No 4^L x 4^L matrix is formed. Every
routine here has an exact counterpart in the occupation-number reference
(oracle module); the comparison runners return both lanes side by side.
`circuit_populations` reads a full register state, as `gates.simulate`
returns it.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import gates, mapping, oracle, transpile
from .errors import StateSizeMismatch, UnsupportedLattice
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
    """Trotter-circuit vs exact populations for every (tau, site, spin),
    the circuit's read off its runs in the start state's sector."""
    require_chain(geometry)
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    h_exact = oracle.fermionic_hamiltonian(geometry, J, v)
    exact = oracle.exact_populations(h_exact, tokens, taus)
    grid = transpile.trotter_grid(mh, tuple(map(float, taus)), steps)
    sector, psi0 = mapping.token_state(tokens)
    probs = np.abs(gates.simulate_sector(grid, sector, psi0)) ** 2
    pops = np.tensordot(probs, sector.occupations(), axes=1)  # (tau, site, (up, down))
    rows = []
    for k, tau in enumerate(taus):
        for (s, spin), values in exact.items():
            circuit_value = float(pops[k, s - 1, mapping.SPINS.index(spin)])
            rows.append(PopulationRow(tau, steps, s, spin, circuit_value, float(values[k])))
    return rows


def max_population_error(rows) -> float:
    return max(row.abs_error for row in rows)


def lesser_gf_circuit(geometry: LatticeGeometry, J: float, v: float, tokens, components,
                      times, steps: int) -> list:
    """One lesser two-point function per (i, j, spin) of `components`, in
    their order, with Trotter-circuit Heisenberg evolution.

    G(t) = i <U(t) c_j psi0 | c_i U(t) psi0> with U(t) the step-count-steps
    circuit for total time t; c_i and c_j are the signed index maps of
    `mapping.Sector.fermion`, all built before anything runs. The ket runs
    once in psi0's sector, each distinct (j, spin) bra once in c_j psi0's;
    where c_j psi0 = 0, G is exactly 0 and runs no bra. Global phases of U
    cancel between the two propagated vectors. A site outside 1..L raises
    SiteOutOfRange, and tokens for another L StateSizeMismatch.
    """
    require_chain(geometry)
    if len(tokens) != geometry.site_count:
        raise StateSizeMismatch(f"{len(tokens)} tokens for {geometry.site_count} sites")
    mh = mapping.build_mapped_hamiltonian(geometry, J, v)
    sector, psi0 = mapping.token_state(tokens)
    maps = [[sector.fermion(s, spin, "annihilate") for s in (i, j)] for i, j, spin in components]
    starts = {(j, spin): (remove_j.target, removed)  # the nonzero c_j psi0
              for (_, j, spin), (_, remove_j) in zip(components, maps)
              if np.any(removed := remove_j(psi0))}
    values = np.zeros((len(components), len(times)), dtype=complex)
    if starts:
        grid = transpile.trotter_grid(mh, tuple(map(float, times)), steps)
        # at t = 0 the step is empty and every state comes back unchanged
        kets = gates.simulate_sector(grid, sector, psi0)
        bras = {key: gates.simulate_sector(grid, *start) for key, start in starts.items()}
        for row, (_, j, spin), (remove_i, _) in zip(values, components, maps):
            if (j, spin) in bras:
                row[:] = 1j * np.vecdot(bras[j, spin], remove_i(kets))
    return [GreensSeries(np.asarray(times, float), row, i, j, spin, "lesser",
                         geometry.site_count, J, v, ",".join(tokens), source="circuit")
            for row, (i, j, spin) in zip(values, components)]


def lesser_gf_pair(geometry: LatticeGeometry, J: float, v: float, tokens, i: int, j: int,
                   spin: str, times, steps: int) -> tuple:
    """(circuit series, its twin with the oracle's values) for one lesser component."""
    circuit_series, = lesser_gf_circuit(geometry, J, v, tokens, [(i, j, spin)], times, steps)
    h = oracle.fermionic_hamiltonian(geometry, J, v)
    values = oracle.lesser_gf(h, tokens, i, j, spin, times)
    return circuit_series, replace(circuit_series, values=values, source="oracle")
