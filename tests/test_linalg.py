import numpy as np
import scipy.linalg

from ququart_hubbard import linalg

RNG = np.random.default_rng(20240517)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def test_phase_aligned_distance_detects_phase_equality():
    u = scipy.linalg.expm(-1j * random_hermitian(4))
    assert linalg.phase_aligned_distance(np.exp(0.7j) * u, u) < 1e-12
    assert linalg.phase_aligned_distance(u, np.eye(4)) > 0.1
