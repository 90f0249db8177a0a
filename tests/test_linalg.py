import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import linalg
from ququart_hubbard.errors import NonHermitianInput
from ququart_hubbard.gamma import I2, PAULI_X, PAULI_Z

RNG = np.random.default_rng(20240517)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def test_kron_identity():
    assert np.array_equal(linalg.kron(I2, I2), np.eye(4))


def test_kron_pauli_x_identity_structure():
    g1 = linalg.kron(PAULI_X, I2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(g1, expected)


def test_kron_zz_diagonal():
    assert np.array_equal(linalg.kron(PAULI_Z, PAULI_Z), np.diag([1, -1, -1, 1]).astype(complex))


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_kron_associative_exact_on_integer_entries(seed):
    # small Gaussian-integer entries multiply exactly, so the two groupings
    # must agree bit for bit
    rng = np.random.default_rng(seed)
    a, b, c = (
        rng.integers(-3, 4, size=(2, 2)) + 1j * rng.integers(-3, 4, size=(2, 2))
        for _ in range(3)
    )
    left = linalg.kron(linalg.kron(a, b), c)
    right = linalg.kron(a, linalg.kron(b, c))
    assert np.array_equal(left, right)


def test_kron_associative_close_on_floats():
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    left = linalg.kron(linalg.kron(a, b), c)
    right = linalg.kron(a, linalg.kron(b, c))
    assert np.max(np.abs(left - right)) < 1e-14


def test_expm_zero_generator():
    assert np.allclose(linalg.expm(np.zeros((3, 3)), 2.3), np.eye(3))


def test_expm_pauli_z_analytic():
    assert np.allclose(linalg.expm(PAULI_Z, np.pi), -np.eye(2), atol=1e-14)


def test_expm_matches_pade_reference():
    h = random_hermitian(16)
    ours = linalg.expm(h, 0.37)
    reference = scipy.linalg.expm(-1j * 0.37 * h)
    assert np.max(np.abs(ours - reference)) < 1e-10


def test_expm_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        linalg.expm(m, 1.0)


@given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_expm_additivity_and_adjoint(seed, t1, t2):
    h = random_hermitian(8, np.random.default_rng(seed))
    u1 = linalg.expm(h, t1)
    u2 = linalg.expm(h, t2)
    assert np.max(np.abs(u1 @ u2 - linalg.expm(h, t1 + t2))) < 1e-9
    assert np.max(np.abs(u1.conj().T - linalg.expm(h, -t1))) < 1e-10


def test_expm_unitary_output():
    h = random_hermitian(12)
    assert linalg.is_unitary(linalg.expm(h, 1.7), tol=1e-10)


def test_svd_identity_singulars():
    _, s, _ = linalg.svd(np.eye(4))
    assert np.allclose(s, np.ones(4))


def test_svd_rank_one_diagonal():
    _, s, _ = linalg.svd(np.diag([3.0, 0.0, 0.0, 0.0]))
    assert np.allclose(s, [3.0, 0.0, 0.0, 0.0])


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_svd_reconstruction(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u, s, vh = linalg.svd(m)
    assert np.max(np.abs(u @ np.diag(s) @ vh - m)) < 1e-10
    assert np.all(np.diff(s) <= 1e-12)


def test_hermitian_and_unitary_checks():
    h = random_hermitian(5)
    assert linalg.is_hermitian(h)
    assert not linalg.is_hermitian(h + 1e-8 * 1j * np.eye(5))
    assert linalg.is_unitary(np.eye(5))
    assert not linalg.is_unitary(1.001 * np.eye(5))


def test_phase_aligned_distance_detects_phase_equality():
    u = scipy.linalg.expm(-1j * random_hermitian(4))
    assert linalg.phase_aligned_distance(np.exp(0.7j) * u, u) < 1e-12
    assert linalg.phase_aligned_distance(u, np.eye(4)) > 0.1
