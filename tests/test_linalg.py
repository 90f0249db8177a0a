import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import linalg
from ququart_hubbard.gamma import I2, PAULI_X, PAULI_Z

RNG = np.random.default_rng(20240517)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def test_kron_identity():
    assert np.array_equal(linalg.kron_all([I2, I2]), np.eye(4))


def test_kron_pauli_x_identity_structure():
    g1 = linalg.kron_all([PAULI_X, I2])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(g1, expected)


def test_kron_zz_diagonal():
    assert np.array_equal(linalg.kron_all([PAULI_Z, PAULI_Z]), np.diag([1, -1, -1, 1]).astype(complex))


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
    left = linalg.kron_all([linalg.kron_all([a, b]), c])
    right = linalg.kron_all([a, linalg.kron_all([b, c])])
    assert np.array_equal(left, right)
    assert np.array_equal(linalg.kron_all([a, b, c]), left)


def test_kron_associative_close_on_floats():
    rng = np.random.default_rng(11)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    left = linalg.kron_all([linalg.kron_all([a, b]), c])
    right = linalg.kron_all([a, linalg.kron_all([b, c])])
    assert np.max(np.abs(left - right)) < 1e-14


def test_phase_aligned_distance_detects_phase_equality():
    u = scipy.linalg.expm(-1j * random_hermitian(4))
    assert linalg.phase_aligned_distance(np.exp(0.7j) * u, u) < 1e-12
    assert linalg.phase_aligned_distance(u, np.eye(4)) > 0.1
