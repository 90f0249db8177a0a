"""Benchmark workloads: seed-drawn inputs, the timed execution, and the
correctness checks applied to its outputs.

Executions call the package only through module attributes
(``gates.simulate``, ``oracle.lesser_gf``, ...), so that the traced run can
wrap them. A check returns one ``Item`` per checked unit of work plus the
accuracy figures it measured; an item that fails counts in ``failed``.

Why these four workloads:

- ``greens_chain4``: the acceptance suite's chain(4) lesser-GF case. The
  gate-level simulator does almost all the work on 256-amplitude states,
  where per-op interpreter overhead dominates.
- ``evolve_chain8``: the same simulator on the paper's 1x8 lattice, where
  every op streams a 65,536-amplitude (1 MB) state, so it is bound by
  memory bandwidth rather than per-op overhead.
- ``exact_chain5``: the exact lane only (oracle assembly, eigh, lesser and
  retarded GFs, spectral function, and the mapped-spectrum check); the
  simulator does nothing.
- ``transpile_chain8``: circuit emission, circuit JSON write and read,
  gate counting and synthesis reports on 1x8, with no simulation.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ququart_hubbard import emulate, gates, mapping, oracle, resources, transpile


@dataclass(frozen=True)
class Item:
    name: str
    ok: bool
    detail: str


def _occupations(tokens, site: int) -> dict:
    token = tokens[site - 1]
    return {mapping.SPIN_UP: int("u" in token), mapping.SPIN_DOWN: int("d" in token)}


def _spin_totals(tokens) -> dict:
    return {
        spin: sum(_occupations(tokens, s)[spin] for s in range(1, len(tokens) + 1))
        for spin in mapping.SPINS
    }


# --- greens_chain4 ----------------------------------------------------------


@dataclass(frozen=True)
class GreensInputs:
    sites: int = 4
    J: float = 1.0
    v: float = 1.0
    tokens: tuple = ("u", "ud", "u", "d")
    components: tuple = ((2, 2, "down"), (4, 4, "down"))
    times: np.ndarray = field(default_factory=lambda: np.arange(0.0, 5.01, 0.25))
    steps: int = 30
    tolerance: float = 0.05


def greens_inputs(rng) -> GreensInputs:
    # the acceptance suite's fixed case: the seed does not change it
    return GreensInputs()


def greens_execute(inp: GreensInputs, workdir: Path) -> list:
    geometry = mapping.chain(inp.sites)
    return [
        emulate.lesser_gf_pair(geometry, inp.J, inp.v, inp.tokens, i, j, spin, inp.times, inp.steps)
        for i, j, spin in inp.components
    ]


def greens_check(inp: GreensInputs, pairs) -> tuple:
    items = []
    worst = 0.0
    for (i, j, spin), (circ, orac) in zip(inp.components, pairs, strict=True):
        dev = float(np.max(np.abs(circ.values - orac.values)))
        worst = max(worst, dev)
        items.append(Item(f"G<({i},{j},{spin})", dev <= inp.tolerance, f"max |dev| {dev:.6g}"))
    return items, {"gf_max_abs_dev": worst}


# --- evolve_chain8 ----------------------------------------------------------


@dataclass(frozen=True)
class EvolveInputs:
    tokens: tuple
    taus: tuple
    steps: int = 3
    J: float = 1.0
    v: float = 2.0
    tolerance: float = 1e-10


def mirror_half_filled(rng, sites: int) -> tuple:
    """Mirror-symmetric tokens with sites/2 particles of each spin."""
    half = sites // 2
    while True:
        left = tuple(rng.choice(mapping.TOKENS, size=half))
        totals = _spin_totals(left)
        if 2 * totals[mapping.SPIN_UP] == half and 2 * totals[mapping.SPIN_DOWN] == half:
            return left + left[::-1]


def evolve_inputs(rng) -> EvolveInputs:
    taus = tuple(float(t) for t in np.sort(rng.uniform(0.3, 1.5, size=3)))
    return EvolveInputs(mirror_half_filled(rng, 8), taus)


def evolve_execute(inp: EvolveInputs, workdir: Path) -> tuple:
    geometry = mapping.chain(len(inp.tokens))
    mh = mapping.build_mapped_hamiltonian(geometry, inp.J, inp.v)
    report = resources.qfm_resources(geometry)
    psi0 = mapping.product_state(inp.tokens)
    runs = []
    for tau in inp.taus:
        circuit = transpile.trotter_step_circuit(mh, tau, inp.steps)
        state = gates.simulate(circuit, psi0)
        runs.append((circuit, state, emulate.circuit_populations(state, geometry.site_count)))
    return report, runs


def evolve_check(inp: EvolveInputs, result) -> tuple:
    report, runs = result
    L = len(inp.tokens)
    totals = _spin_totals(inp.tokens)
    items = []
    for tau, (circuit, state, pops) in zip(inp.taus, runs, strict=True):
        norm_dev = abs(float(np.vdot(state, state).real) - 1.0)
        count_dev = max(
            abs(sum(pops[(s, spin)] for s in range(1, L + 1)) - totals[spin])
            for spin in mapping.SPINS
        )
        mirror_dev = max(
            abs(pops[(m, spin)] - pops[(L + 1 - m, spin)])
            for m in range(1, L + 1)
            for spin in mapping.SPINS
        )
        tally = gates.count_gates(circuit)
        tally_ok = (
            tally.two_qudit == inp.steps * report.two_body_gates_per_step
            and tally.single_qudit_physical == inp.steps * report.single_qudit_physical_per_step
        )
        ok = max(norm_dev, count_dev, mirror_dev) <= inp.tolerance and tally_ok
        detail = (
            f"norm {norm_dev:.3g}, N {count_dev:.3g}, mirror {mirror_dev:.3g}, "
            f"tally {tally.two_qudit}/{tally.single_qudit_physical} over {inp.steps} steps"
        )
        items.append(Item(f"tau={tau:.6g}", ok, detail))
    return items, {}


# --- exact_chain5 -----------------------------------------------------------


@dataclass(frozen=True)
class ExactInputs:
    tokens: tuple
    site: int
    spin: str
    J: float = 1.0
    v: float = 2.0
    times: np.ndarray = field(default_factory=lambda: np.arange(0.0, 20.0 + 1e-9, 0.05))
    # retarded GF and spectral function at the CLI's default grid
    retarded_sites: int = 4
    beta: float = 1.0
    eta: float = 0.1
    retarded_times: np.ndarray = field(default_factory=lambda: np.arange(0.0, 40.0 + 1e-9, 0.05))
    omegas: np.ndarray = field(default_factory=lambda: np.arange(-12.0, 12.0 + 1e-9, 0.01))
    spectrum_tolerance: float = 1e-10
    sum_rule_tolerance: float = 0.02


def exact_inputs(rng) -> ExactInputs:
    """Random chain(5) occupation tokens and a diagonal component on an occupied orbital."""
    sites = 5
    while True:
        tokens = tuple(rng.choice(mapping.TOKENS, size=sites))
        occupied = [
            (s, spin)
            for s in range(1, sites + 1)
            for spin in mapping.SPINS
            if _occupations(tokens, s)[spin]
        ]
        if occupied:
            site, spin = occupied[rng.integers(len(occupied))]
            return ExactInputs(tokens, site, spin)


def exact_execute(inp: ExactInputs, workdir: Path) -> tuple:
    geometry = mapping.chain(len(inp.tokens))
    h = oracle.fermionic_hamiltonian(geometry, inp.J, inp.v)
    lesser = oracle.lesser_gf(h, inp.tokens, inp.site, inp.site, inp.spin, inp.times)
    mh = mapping.build_mapped_hamiltonian(geometry, inp.J, inp.v)
    dense = mapping.dense_hamiltonian(mh)
    spectra = (np.linalg.eigvalsh(dense), np.linalg.eigvalsh(h))
    small = mapping.chain(inp.retarded_sites)
    h_small = oracle.fermionic_hamiltonian(small, inp.J, inp.v)
    series = oracle.retarded_series(
        h_small, inp.beta, 1, 1, mapping.SPIN_UP, inp.retarded_times,
        small.site_count, inp.J, inp.v,
    )
    return lesser, spectra, oracle.spectral(series, inp.eta, inp.omegas)


def exact_check(inp: ExactInputs, result) -> tuple:
    lesser, (mapped, exact), a_vals = result
    gap = float(np.max(np.abs(mapped - exact)))
    expected = 1j * _occupations(inp.tokens, inp.site)[inp.spin]
    g0_dev = abs(lesser[0] - expected)
    sum_rule_err = abs(float(np.trapezoid(a_vals, inp.omegas)) - 1.0)
    items = [
        Item("spectrum", gap <= inp.spectrum_tolerance, f"max eigenvalue gap {gap:.3g}"),
        Item(f"G<(0) ({inp.site},{inp.spin})", g0_dev <= 1e-12, f"|G<(0) - i n| {g0_dev:.3g}"),
        Item("sum rule", sum_rule_err <= inp.sum_rule_tolerance, f"|int A - 1| {sum_rule_err:.6g}"),
    ]
    return items, {"sum_rule_err": sum_rule_err}


# --- transpile_chain8 -------------------------------------------------------


@dataclass(frozen=True)
class TranspileInputs:
    taus: tuple
    sites: int = 8
    steps: int = 30
    J: float = 1.0
    v: float = 2.0
    residual_tolerance: float = 1e-8


def transpile_inputs(rng) -> TranspileInputs:
    return TranspileInputs(tuple(float(t) for t in rng.uniform(0.2, 3.0, size=10)))


def transpile_execute(inp: TranspileInputs, workdir: Path) -> tuple:
    geometry = mapping.chain(inp.sites)
    mh = mapping.build_mapped_hamiltonian(geometry, inp.J, inp.v)
    mapping.save_hamiltonian(mh, workdir / "mapped_hamiltonian.json")
    report = resources.qfm_resources(geometry)
    emitted = []
    for k, tau in enumerate(inp.taus):
        circuit = transpile.trotter_step_circuit(mh, tau, inp.steps)
        path = workdir / f"circuit_{k}.json"
        gates.save_circuit(circuit, path)
        loaded = gates.load_circuit(path)
        tally = gates.count_gates(loaded)
        angle = mh.J * tau / (2.0 * inp.steps)
        reports = [transpile.synthesis_report(t, angle) for t in transpile.HOPPING_TERM_IDS]
        emitted.append((circuit, loaded, tally, reports))
    return report, emitted


def transpile_check(inp: TranspileInputs, result) -> tuple:
    report, emitted = result
    items = []
    for tau, (circuit, loaded, tally, reports) in zip(inp.taus, emitted, strict=True):
        same = loaded.site_count == circuit.site_count and loaded.ops == circuit.ops
        residual = max(r["residual_norm"] for r in reports)
        tally_ok = tally.two_qudit == inp.steps * report.two_body_gates_per_step
        ok = same and residual <= inp.residual_tolerance and tally_ok
        detail = f"round trip {'equal' if same else 'differs'}, residual {residual:.3g}"
        items.append(Item(f"tau={tau:.6g}", ok, detail))
    return items, {}


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    execute: object
    check: object


WORKLOADS = {
    "greens_chain4": Workload(greens_inputs, greens_execute, greens_check),
    "evolve_chain8": Workload(evolve_inputs, evolve_execute, evolve_check),
    "exact_chain5": Workload(exact_inputs, exact_execute, exact_check),
    "transpile_chain8": Workload(transpile_inputs, transpile_execute, transpile_check),
}
