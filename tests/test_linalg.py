import numpy as np
import pytest
import scipy.linalg

from ququart_hubbard import linalg
from ququart_hubbard.errors import SectorCoupling

RNG = np.random.default_rng(20240517)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


def test_phase_aligned_distance_detects_phase_equality():
    u = scipy.linalg.expm(-1j * random_hermitian(4))
    assert linalg.phase_aligned_distance(np.exp(0.7j) * u, u) < 1e-12
    assert linalg.phase_aligned_distance(u, np.eye(4)) > 0.1


def test_sector_block_checks_coupling_then_symmetry():
    h = np.diag([1.0, 2.0, 3.0, 4.0])
    h[1, 3] = h[3, 1] = 0.5
    basis = np.array([1, 3])
    assert np.array_equal(linalg.sector_block(h, basis), [[2.0, 0.5], [0.5, 4.0]])
    for row, col in ((1, 3), (3, 1), (1, 1)):
        asymmetric = h.copy()
        asymmetric[row, col] = np.nan  # a NaN is its own mirror's mismatch
        with pytest.raises(ValueError, match="H must be symmetric"):
            linalg.sector_block(asymmetric, basis)
    for value in (1e-300, np.nan):
        coupled = h.copy()
        coupled[3, 0], coupled[1, 3] = value, 0.7  # the coupling check comes first
        with pytest.raises(SectorCoupling, match="no entry between two"):
            linalg.sector_block(coupled, basis)


def random_unitary(dim, rng=RNG):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_batch(site_count, width, rng=RNG):
    """A (4^L, width) batch, or a (4^L,) state when width is None."""
    shape = (4**site_count,) if width is None else (4**site_count, width)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def dense_embedding(m, sites, site_count):
    """The 4^L x 4^L matrix of a 16x16 m on two ascending sites, built by
    tensordot on the identity's register axes, not by the kernel's reshapes."""
    eye = np.eye(4**site_count, dtype=complex).reshape([4] * site_count + [-1])
    out = np.tensordot(m.reshape(4, 4, 4, 4), eye, axes=([2, 3], list(sites)))
    return np.moveaxis(out, [0, 1], list(sites)).reshape(4**site_count, -1)


def assert_block_matches_dense(site_count, sites, width):
    state = random_batch(site_count, width)
    m = random_unitary(16)
    out = linalg.apply_local(state, [(sites, m)], site_count)
    assert out.shape == state.shape
    assert np.max(np.abs(out - dense_embedding(m, sites, site_count) @ state)) < 1e-12


@pytest.mark.parametrize("width", [None, 1, 2, 3])
@pytest.mark.parametrize("site_count", [2, 3, 4, 5])
def test_trailing_pair_matches_dense_embedding(site_count, width):
    # the register's last two sites take the row-major GEMM
    assert_block_matches_dense(site_count, (site_count - 2, site_count - 1), width)


@pytest.mark.parametrize("width", [None, 1, 3])
@pytest.mark.parametrize("sites", [(0, 2), (1, 3), (0, 3)])
def test_non_adjacent_pair_on_the_last_site_matches_dense_embedding(sites, width):
    # ends on the last site but is not adjacent: stays on the swap path
    assert_block_matches_dense(sites[1] + 1, sites, width)


@pytest.mark.parametrize("sites", [(0,), (3,), (0, 1), (2, 3), (0, 2), (1, 3)], ids=str)
def test_zero_width_batch_comes_back_empty(sites):
    # one site, a leading and the trailing adjacent pair, and the two rungs
    # of a 2x2 ladder (non-adjacent); once a reshape error
    m = random_unitary(4 ** len(sites))
    out = linalg.apply_local(np.zeros((256, 0)), [(sites, m)], 4)
    assert out.shape == (256, 0)
