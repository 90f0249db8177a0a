import hashlib
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import gates, linalg, mapping, transpile
from ququart_hubbard.errors import SynthesisResidual
from ququart_hubbard.transpile import (
    hopping_generator,
    hopping_target,
    osd,
    trotter_step_circuit,
)

TAUS = (0.3, 0.7, 1.2, np.pi / 2)


def hopping_circuit(term, tau):
    """The two-qudit circuit behind `synthesis_report`."""
    return transpile.hopping_residual(term, tau)[0]


def hs_overlap(a, b):
    """|<a, b>| / (||a|| ||b||) under the Hilbert-Schmidt inner product."""
    num = abs(np.trace(a.conj().T @ b))
    return num / (np.linalg.norm(a.ravel()) * np.linalg.norm(b.ravel()))


def phase_overlap(a, b):
    """|tr(a^dag b)| / dim; equals 1 iff a = e^{i theta} b for unitaries."""
    return float(np.abs(np.trace(a.conj().T @ b)) / a.shape[0])


def random_two_qudit_unitary(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    return scipy.linalg.expm(-1j * 0.3 * (h + h.conj().T))


# --- operator Schmidt decomposition ------------------------------------------


def test_osd_identity_rank_one():
    dec = osd(np.eye(16))
    assert np.sum(dec.coefficients > 1e-10) == 1
    assert dec.coefficients[0] == pytest.approx(4.0)
    # the single pair is the normalized identity on both sides, up to phase
    assert hs_overlap(dec.left_ops[0], np.eye(4)) > 1 - 1e-12


def test_osd_csum_four_equal_coefficients():
    dec = osd(gates.csum_matrix())
    assert np.sum(dec.coefficients > 1e-10) == 4
    assert np.allclose(dec.coefficients[:4], 2.0)
    assert np.allclose(dec.coefficients[4:], 0.0)


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_osd_reconstruction_and_orthonormality(seed):
    u = random_two_qudit_unitary(seed)
    dec = osd(u)
    assert np.max(np.abs(dec.reconstruct() - u)) < 1e-10
    for ops in (dec.left_ops, dec.right_ops):
        gram = np.array(
            [[np.trace(a.conj().T @ b) for b in ops] for a in ops]
        )
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_osd_coefficients_invariant_under_local_unitaries(seed):
    rng = np.random.default_rng(seed)
    u = random_two_qudit_unitary(seed + 1)

    def local():
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return scipy.linalg.expm(-1j * 0.4 * (h + h.conj().T))

    dressed = np.kron(local(), local()) @ u @ np.kron(local(), local())
    base = osd(u).coefficients
    assert np.max(np.abs(osd(dressed).coefficients - base)) < 1e-9


def test_realigned_hopping_evolution_has_two_singulars():
    singulars = np.linalg.svd(transpile.realign(hopping_target(1, 0.7)), compute_uv=False)
    assert np.sum(singulars > 1e-10) == 2


# --- hopping targets ----------------------------------------------------------


def test_hopping_generators_square_to_identity():
    for term in transpile.HOPPING_TERM_IDS:
        h = hopping_generator(term)
        assert np.array_equal(h, h.conj().T)
        assert np.max(np.abs(h @ h - np.eye(16))) < 1e-14


def test_hopping_terms_mutually_commute():
    hs = [hopping_generator(i) for i in transpile.HOPPING_TERM_IDS]
    for a in hs:
        for b in hs:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_hopping_target_zero_angle():
    assert np.array_equal(hopping_target(2, 0.0), np.eye(16))


def test_hopping_target_matches_expm():
    for term in transpile.HOPPING_TERM_IDS:
        direct = hopping_target(term, 0.9)
        via_eig = scipy.linalg.expm(-1j * 0.9 * hopping_generator(term))
        assert np.max(np.abs(direct - via_eig)) < 1e-12


@pytest.mark.parametrize("term", transpile.HOPPING_TERM_IDS)
@pytest.mark.parametrize("tau", [0.3, 0.7, 1.2])
def test_hopping_target_schmidt_structure(term, tau):
    coeffs = osd(hopping_target(term, tau)).coefficients
    expected = np.sort([4 * abs(np.cos(tau)), 4 * abs(np.sin(tau))])[::-1]
    assert np.max(np.abs(coeffs[:2] - expected)) < 1e-10
    assert np.max(coeffs[2:]) < 1e-10


def test_first_schmidt_pair_matches_closed_form_term3():
    # two-term expansion of e^{-i h_3 tau}: the non-identity pair is
    # i (I x sx) on the control and -(sz x sx) on the target, up to phase
    tau = 0.7
    dec = osd(hopping_target(3, tau))
    order = np.argsort(-dec.coefficients)
    sin_idx = order[0] if tau > np.pi / 4 else order[1]
    left_expected = np.array(
        [[0, 1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, 1j], [0, 0, 1j, 0]]
    )
    right_expected = np.array(
        [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert hs_overlap(dec.left_ops[sin_idx], left_expected) > 1 - 1e-10
    assert hs_overlap(dec.right_ops[sin_idx], right_expected) > 1 - 1e-10


def test_sin_cos_pair_identity_side():
    tau = 0.3
    dec = osd(hopping_target(1, tau))
    # cos coefficient dominates at small tau, and its pair is the identity
    assert hs_overlap(dec.left_ops[0], np.eye(4)) > 1 - 1e-10


# --- synthesis ----------------------------------------------------------------


@pytest.mark.parametrize("term", transpile.HOPPING_TERM_IDS)
@pytest.mark.parametrize("tau", TAUS)
def test_transpiled_circuit_matches_target(term, tau):
    circuit = hopping_circuit(term, tau)
    u = gates.circuit_unitary(circuit)
    assert linalg.phase_aligned_distance(u, hopping_target(term, tau)) <= 1e-10


@pytest.mark.parametrize("term", transpile.HOPPING_TERM_IDS)
def test_transpiled_gate_budget(term):
    tally = gates.count_gates(hopping_circuit(term, 0.7))
    assert tally.two_qudit == 2
    # two middle pulses inside X^{12}_-pi .. X^{12}_pi, plus four swap pulses
    expected_physical = 4 if term in (1, 2) else 8
    assert tally.single_qudit_physical == expected_physical


def test_term_one_needs_no_corrections():
    circuit = hopping_circuit(1, 0.7)
    assert len(circuit.ops) == 6  # CSUM^dag and CSUM around four adjacent-level pulses
    assert gates.count_gates(circuit).virtual_z == 0


def test_term_two_corrections_all_virtual():
    circuit = hopping_circuit(2, 0.7)
    tally = gates.count_gates(circuit)
    assert tally.single_qudit_physical == 4
    assert tally.virtual_z > 0


def test_zero_angle_transpiles_to_empty():
    assert transpile.hopping_term_ops(3, 0.0, control=0, target=1) == []
    assert hopping_circuit(3, 0.0).ops == ()
    assert transpile.synthesis_report(3, 0.0)["gate_tally"] == asdict(gates.GateTally())


def test_residual_gate_raises(monkeypatch):
    # absurd tolerance turns the machine-precision residual into an error
    monkeypatch.setattr(transpile, "RESIDUAL_TOL", 1e-20)
    assert transpile.hopping_residual(1, 0.7)[1] > 1e-20  # the measurement never raises
    with pytest.raises(SynthesisResidual):
        transpile.synthesis_report(1, 0.7)


def test_synthesis_report_contents():
    report = transpile.synthesis_report(2, 0.7)
    assert report["gate_tally"]["two_qudit"] == 2
    assert report["residual_norm"] <= 1e-8
    nonzero = [c for c in report["schmidt_coefficients"] if c > 1e-10]
    assert len(nonzero) == 2


# --- trotter circuits ----------------------------------------------------------


@pytest.mark.parametrize("v, dt", [(2.0, 0.13), (8.0, 2.5), (0.0, 0.1), (2.0, 0.0)])
def test_onsite_layer_matches_exponential(v, dt):
    # each site part of the first layer against the Majorana form of the
    # on-site term; |v dt| = 20 > pi wraps the solved phases
    mh = mapping.build_mapped_hamiltonian(mapping.chain(3), 1.0, v)
    onsite = transpile.step_layers(mh, dt)[0]
    assert len(onsite) == 3
    p = mapping.resolve_int_prefactor()
    target = scipy.linalg.expm(-1j * dt * p * v * mapping.interaction_bracket())
    for site, part in enumerate(onsite):
        assert all(op.virtual and op.site == site for op in part)
        assert (part == []) == (v * dt == 0.0)
        u = np.eye(4, dtype=complex)
        for op in part:
            u = gates.gate_matrix(op) @ u
        assert phase_overlap(u, target) > 1 - 1e-12


def test_trotter_zero_hopping_only_virtual():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(2), 0.0, 2.0)
    circuit = trotter_step_circuit(mh, 1.0, 1)
    tally = gates.count_gates(circuit)
    assert tally.two_qudit == 0 and tally.single_qudit_physical == 0
    assert tally.virtual_z == 3 * 2


def test_trotter_step_counts_scale():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(3), 1.0, 2.0)
    one = gates.count_gates(trotter_step_circuit(mh, 1.0, 1))
    three = gates.count_gates(trotter_step_circuit(mh, 1.0, 3))
    assert three.two_qudit == 3 * one.two_qudit
    assert three.single_qudit_physical == 3 * one.single_qudit_physical


def test_trotter_unitary_converges_to_exact():
    geom = mapping.chain(2)
    mh = mapping.build_mapped_hamiltonian(geom, 1.0, 2.0)
    exact = scipy.linalg.expm(-1j * mapping.dense_hamiltonian(mh))
    errors = []
    for n in (4, 8, 16):
        u = gates.circuit_unitary(trotter_step_circuit(mh, 1.0, n))
        errors.append(linalg.phase_aligned_distance(u, exact))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.05


def test_trotter_single_bond_layer_exact():
    # one bond, v=0: the four commuting pieces compose without Trotter error
    geom = mapping.chain(2)
    mh = mapping.build_mapped_hamiltonian(geom, 1.0, 0.0)
    u = gates.circuit_unitary(trotter_step_circuit(mh, 0.8, 1))
    exact = scipy.linalg.expm(-1j * 0.8 * mapping.dense_hamiltonian(mh))
    assert linalg.phase_aligned_distance(u, exact) < 1e-10


def test_trotter_rejects_bad_steps():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(2), 1.0, 2.0)
    with pytest.raises(ValueError):
        trotter_step_circuit(mh, 1.0, 0)


def test_brick_pattern_orders_odd_before_even():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 0.0)
    circuit = trotter_step_circuit(mh, 1.0, 1)
    bonds_in_order = []
    for op in circuit.ops:
        if isinstance(op, gates.Csum):
            bond = (min(op.control, op.target) + 1, max(op.control, op.target) + 1)
            if bond not in bonds_in_order:
                bonds_in_order.append(bond)
    assert bonds_in_order == [(1, 2), (3, 4), (2, 3)]


# SHA-256 of repr(step) for J = 1, v = 2, steps = 5, recorded when the
# middle layers became adjacent-level pulses: emission must not change a
# single op or angle.
STEP_DIGESTS = {
    ("chain:4", 0.3): "0fd1944ea2c829e047b95c51120f263b5123585672f7794e2226cf3761effed2",
    ("chain:4", 2.7): "a4a4cfa39d1b50d176a9822dd5800062918326907f18a424b97bd82fe0cf8b38",
    ("chain:5", 0.3): "6bde9f6bc208d3027f152aebe25a93f6a406fd56927e2fa39c0b39159dd70e96",
    ("chain:8", 0.3): "e2408c46e5a4ea8867512b535ccff600764b4eeb6f08dfc8d617c0ba843b6172",
    ("chain:8", 2.7): "3ad39c8f66a3c848d21e78af3f47a45fdbaba179d3f374cd54742277358652d5",
    ("ladder:2x3", 0.3): "8b1fc5bda1ba5c695a1056c1cab2fb986bc5a62c2e13b3829bcb14816a217059",
    ("ladder:2x4", 0.3): "b4701b17ec302e1578bc0a749aaaf70b2095a6a960185f17c21d837b9a6ddfe1",
    ("ladder:2x4", 2.7): "da977120cad58a6e8f2b82214bce1f0e916a7133674959926f1cf037f2644d53",
}


@pytest.mark.parametrize("geometry, tau", sorted(STEP_DIGESTS))
def test_emitted_step_is_pinned(geometry, tau):
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry(geometry), 1.0, 2.0)
    step = trotter_step_circuit(mh, tau, 5).step
    assert hashlib.sha256(repr(step).encode()).hexdigest() == STEP_DIGESTS[(geometry, tau)]


@pytest.mark.parametrize("geometry", ["chain:8", "ladder:2x4"])
def test_emitted_pulses_are_adjacent_level_and_two_per_piece_carry_tau(geometry):
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry(geometry), 1.0, 2.0)
    step, other = (trotter_step_circuit(mh, tau, 1).step for tau in (0.3, 1.1))
    pulses = [op for op in step if isinstance(op, gates.Rotation) and not op.virtual]
    assert pulses and all(op.k == op.j + 1 for op in pulses)
    # each piece runs from its CSUM^dag to its CSUM; the on-site virtual Zs
    # are the only other ops that move with tau
    csums = [i for i, op in enumerate(step) if isinstance(op, gates.Csum)]
    pieces = list(zip(csums[::2], csums[1::2]))
    assert all(step[a].adjoint and not step[b].adjoint for a, b in pieces)
    moved = [i for i, (op, op2) in enumerate(zip(step, other)) if op != op2]
    assert all(step[i].virtual for i in moved if not any(a < i < b for a, b in pieces))
    assert [sum(a < i < b for i in moved) for a, b in pieces] == [2] * len(pieces)


@pytest.mark.parametrize("term", transpile.HOPPING_TERM_IDS)
def test_hopping_term_ops_result_is_the_callers_own(term):
    first = transpile.hopping_term_ops(term, 0.4, 2, 1)
    expected = list(first)
    first.clear()
    other = transpile.hopping_term_ops(term, 0.4, 2, 1)
    other.reverse()
    assert transpile.hopping_term_ops(term, 0.4, 2, 1) == expected


def test_trotter_grid_cache_is_bounded():
    assert isinstance(transpile.trotter_grid.cache_info().maxsize, int)
