"""Operator Schmidt decomposition and CSUM-based synthesis of hopping evolutions.

Each mapped bond contributes four mutually commuting Hermitian pieces
h_1..h_4 (see mapping.hopping_local_factors). Every h_i squares to the
identity, so its evolution has the exact two-term form

    e^{-i h_i tau} = cos(tau) I (x) I  - i sin(tau) A_i (x) B_i,

an operator-Schmidt rank of 2 with coefficients (4|cos tau|, 4|sin tau|).

Conjugating a single-qudit generator on the control by the controlled-sum
gate turns the level pairs (0,2) and (1,3) into a shared level-shift on
the target:

    CSUM (g (x) I) CSUM^dag = sum_{n n'} g_{n n'} |n><n'| (x) Xt^{n - n'},

so a middle layer of (0,2)/(1,3) rotations sandwiched between CSUM^dag and
CSUM reproduces each h_i up to fixed local corrections. That layer is
emitted as adjacent-level pulses, X^{12}_pi . R^{01} . R^{23} . X^{12}_-pi,
whose two X^{12} pulses do not depend on tau. One table, `_PIECES`, holds
each piece's R^{01} and R^{23} and its corrections. Term 1 needs no
correction. Term 2 needs only diagonal (virtual-Z) phases. Terms 3 and 4
first swap levels 1 and 2 on both qudits, moving the coupling onto the
(0,1)/(2,3) pairs; each swap is one X^{12}_pi pulse plus virtual-Z phases.

Under the half-angle rotation convention the middle-layer angles are twice
the evolution angle tau. Each piece costs 2 CSUMs and 4 physical pulses,
plus 4 swap pulses for terms 3 and 4, so a bond costs 8 CSUMs and 24
pulses per step.

`step_layers` is the one definition of a Trotter step: an on-site layer
of virtual-Z phases from `_diagonal_phase_ops`, the emitter of the
corrections, then the brick groups of bonds, each layer a list of
site-disjoint parts. A hopping piece is its two tau-independent sandwiches,
op tuples cached once per process, around the two pulses that carry tau.
`trotter_step_circuit` joins the parts into one flat circuit step, and
`resources.qfm_resources` tallies gate counts and step time from it.
`trotter_grid` emits a time grid's circuits once per process.
"""

import cmath
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import gates
from .errors import SynthesisResidual
from .gamma import DIM
from .gates import RESIDUAL_TOL, Circuit, Csum, Rotation
from .linalg import phase_aligned_distance
from .mapping import MappedHamiltonian, hopping_local_factors, level_occupations


class _Piece(NamedTuple):
    middle: tuple  # (axis, sign) of the (0,1) and (2,3) rotations on the control
    control: tuple  # diagonal of the control correction P
    target: tuple  # diagonal of the target correction Q
    swap: bool  # P and Q exchange levels 1 and 2 before their phases


# Per hopping piece: the middle layer inside X^{12}_-pi ... X^{12}_pi, and the
# corrections P, Q with (P x Q) ansatz (P x Q)^dag = e^{-i h_i tau}.
_PIECES = {
    1: _Piece((("y", +1.0), ("y", +1.0)), (1, 1, 1, 1), (1, 1, 1, 1), False),
    2: _Piece((("y", +1.0), ("y", -1.0)), (1, 1, 1j, -1j), (1, 1, 1j, 1j), False),
    3: _Piece((("x", +1.0), ("x", -1.0)), (1, 1j, 1, 1j), (1, 1, 1, -1), True),
    4: _Piece((("y", -1.0), ("y", +1.0)), (1, -1j, 1, -1j), (1, 1j, 1, -1j), True),
}
HOPPING_TERM_IDS = tuple(_PIECES)


@dataclass(frozen=True)
class SchmidtDecomposition:
    coefficients: np.ndarray  # non-negative, descending
    left_ops: tuple  # 4x4 each, Hilbert-Schmidt orthonormal
    right_ops: tuple

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
        for lam, a, b in zip(self.coefficients, self.left_ops, self.right_ops):
            out += lam * np.kron(a, b)
        return out


def realign(u: np.ndarray) -> np.ndarray:
    """Index shuffle M[(i,i'),(j,j')] = u[(i,j),(i',j')]."""
    u = np.asarray(u, dtype=complex)
    return u.reshape(DIM, DIM, DIM, DIM).transpose(0, 2, 1, 3).reshape(DIM * DIM, DIM * DIM)


def osd(u: np.ndarray) -> SchmidtDecomposition:
    """Operator Schmidt decomposition u = sum_k lam_k A_k (x) B_k."""
    m = realign(u)
    left, singulars, right = np.linalg.svd(m)
    left_ops = tuple(left[:, k].reshape(DIM, DIM) for k in range(DIM * DIM))
    right_ops = tuple(right[k, :].reshape(DIM, DIM) for k in range(DIM * DIM))
    return SchmidtDecomposition(singulars, left_ops, right_ops)


# this module's cached tables build on first call: built at import, they raise every run's peak RSS
@lru_cache(maxsize=None)
def hopping_generator(term_id: int) -> np.ndarray:
    """Dense 16x16 generator h_i of one hopping piece on a bond."""
    left, right = hopping_local_factors()[term_id]
    return np.kron(left, right)


def hopping_target(term_id: int, tau: float) -> np.ndarray:
    """Target evolution e^{-i h_i tau}; h_i^2 = I gives the closed form."""
    h = hopping_generator(term_id)
    return np.cos(tau) * np.eye(DIM * DIM) - 1j * np.sin(tau) * h


def _diagonal_phase_ops(phases, sites) -> list:
    """Per site in `sites`, the virtual-Z sequence realizing diag(phases).

    Solves Z^{01}_a Z^{02}_b Z^{03}_c = diag up to phase once for all
    sites; zero-angle ops are dropped.
    """
    first, *rest = map(cmath.phase, phases)
    delta = [phase - first for phase in rest]
    s = sum(delta) / 2.0
    angles = [(level, 2.0 * d - s) for level, d in zip((1, 2, 3), delta)]
    return [[Rotation(site, 0, level, "z", angle, virtual=True)
             for level, angle in angles if abs(angle) > 1e-14] for site in sites]


def _correction_ops(phases, swap: bool, site: int) -> list:
    """Gate sequence for diag(phases), after a level-(1,2) swap if `swap`.
    The swap is X^{12}_pi . diag(1, i, i, 1), so its inner phases come first."""
    (ops,) = _diagonal_phase_ops(phases, [site])
    if swap:
        (inner,) = _diagonal_phase_ops((1, 1j, 1j, 1), [site])
        ops = [*inner, Rotation(site, 1, 2, "x", float(np.pi)), *ops]
    return ops


@lru_cache(maxsize=None)
def _sandwich_ops(term_id: int, control: int, target: int) -> tuple:
    """The tau-independent op tuples around a term's middle layer: (the
    inverse corrections, CSUM^dag, X^{12}_-pi on the control), and
    (X^{12}_pi, CSUM, then the corrections P, Q). Cached, so every circuit
    holds the same op objects and a grid column of them fuses as one matrix
    (`gates.Grid`)."""
    piece = _PIECES[term_id]
    p_ops = _correction_ops(piece.control, piece.swap, control)
    q_ops = _correction_ops(piece.target, piece.swap, target)
    before = [gates.gate_inverse(op) for op in reversed(p_ops)]
    before += [gates.gate_inverse(op) for op in reversed(q_ops)]
    before += [Csum(control, target, adjoint=True), Rotation(control, 1, 2, "x", -np.pi)]
    after = [Rotation(control, 1, 2, "x", np.pi), Csum(control, target), *p_ops, *q_ops]
    return tuple(before), tuple(after)


def hopping_term_ops(term_id: int, tau: float, control: int, target: int) -> list:
    """Gate ops realizing e^{-i h_i tau} on (control, target): the `before`
    sandwich, R^{01} and R^{23} at angle 2*sign*tau on the control, the
    `after` sandwich."""
    if term_id not in HOPPING_TERM_IDS:
        raise KeyError(f"hopping term id must be 1..4, got {term_id}")
    if tau == 0.0:
        return []
    before, after = _sandwich_ops(term_id, control, target)
    middle = [Rotation(control, m, m + 1, axis, 2.0 * sign * tau)
              for m, (axis, sign) in zip((0, 2), _PIECES[term_id].middle)]
    return [*before, *middle, *after]


def hopping_residual(term_id: int, tau: float) -> tuple:
    """(circuit, residual): the two-qudit circuit for one hopping evolution
    and its distance from the target at the optimal global phase."""
    ops = hopping_term_ops(term_id, tau, control=0, target=1)
    circuit = Circuit(2, tuple(ops), {"term": term_id, "tau": tau})
    residual = phase_aligned_distance(
        gates.circuit_unitary(circuit), hopping_target(term_id, tau)
    )
    return circuit, residual


def _bond_layers(geometry) -> list:
    """Bond groups applied in sequence inside one step (brick pattern): horizontal
    bonds from odd columns, then from even columns, then rungs; a chain has L columns."""
    cols = geometry.site_count // (2 if geometry.kind == "ladder" else 1)
    horiz = [b for b in geometry.bonds if b[1] - b[0] == 1]
    rungs = [b for b in geometry.bonds if b[1] - b[0] == cols]
    odd = [b for b in horiz if (b[0] - 1) % cols % 2 == 0]
    even = [b for b in horiz if (b[0] - 1) % cols % 2 == 1]
    return [layer for layer in (odd, even, rungs) if layer]


def hopping_angle(J: float, dt: float) -> float:
    """Evolution angle J*dt/2 of each hopping piece in a step over dt: the
    bond Hamiltonian is (J/2) sum_i h_i and the four pieces commute."""
    return J * dt / 2.0


def step_layers(mh: MappedHamiltonian, dt: float) -> list:
    """One first-order Trotter step over dt, as layers of per-part lists of
    gate ops.

    The first layer is the on-site evolution: per site, the virtual-Z ops
    of diag(e^{-i v dt n_up n_dn}) over the levels, with n_up n_dn from
    `mapping.level_occupations`, solved once and placed on every site
    (empty parts when v or dt is zero). Each further layer is one
    brick group of `_bond_layers`, with one part per bond: the four hopping
    pieces at evolution angle `hopping_angle(J, dt)`. The parts of one layer
    share no site. For ladder rungs the pair circuit covers the two
    endpoint factors; intervening string factors are not synthesized by the
    pair ansatz.
    """
    geometry = mh.geometry
    term_angle = hopping_angle(mh.J, dt)
    phases = [cmath.exp(-1j * mh.v * dt * n_up * n_dn) for n_up, n_dn in level_occupations()]
    layers = [_diagonal_phase_ops(phases, range(geometry.site_count))]
    for layer in _bond_layers(geometry):
        layers.append([
            [op for term_id in HOPPING_TERM_IDS
             for op in hopping_term_ops(term_id, term_angle, a - 1, b - 1)]
            for a, b in layer
        ])
    return layers


def trotter_step_circuit(mh: MappedHamiltonian, tau: float, steps: int) -> Circuit:
    """First-order Trotter circuit for e^{-i H tau}: the parts of
    `step_layers` over dt = tau/steps joined into one step, repeated
    `steps` times."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    step = tuple(op for layer in step_layers(mh, tau / steps) for part in layer for op in part)
    metadata = {"geometry": mh.geometry.label, "J": mh.J, "v": mh.v, "tau": tau}
    return Circuit(mh.geometry.site_count, step, metadata, repeat=steps)


@lru_cache(maxsize=8)
def trotter_grid(mh: MappedHamiltonian, taus: tuple, steps: int) -> gates.Grid:
    """The `trotter_step_circuit` of each tau as one `gates.Grid`. Cached,
    so every Green's-function component or population run on the same
    (H, taus, steps) reuses the emitted circuits and their fused blocks."""
    return gates.Grid(trotter_step_circuit(mh, tau, steps) for tau in taus)


def synthesis_report(term_id: int, tau: float) -> dict:
    """Schmidt data, residual, and tally for one transpiled hopping term;
    raises SynthesisResidual if the residual exceeds RESIDUAL_TOL."""
    circuit, residual = hopping_residual(term_id, tau)
    if residual > RESIDUAL_TOL:
        raise SynthesisResidual(
            f"term {term_id} at tau={tau:g}: residual {residual:.3e} > {RESIDUAL_TOL:g}"
        )
    decomposition = osd(hopping_target(term_id, tau))
    return {
        "term": term_id,
        "tau": tau,
        "schmidt_coefficients": [float(c) for c in decomposition.coefficients],
        "residual_norm": residual,
        "gate_tally": asdict(gates.count_gates(circuit)),
    }
