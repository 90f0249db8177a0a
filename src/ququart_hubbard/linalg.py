"""Dense complex linear algebra substrate.

Everything here operates on plain numpy arrays (complex128). Local
operators act on a register state through one kernel, ``apply_local``:
the state, or a batch of them, is held batch-leading as one contiguous
(B, 4^L) array, and each one- or two-site operator is a single
``np.matmul`` of its 4x4 or 16x16 matrix against a reshaped view of it,
or, on the register's last two sites, of the view against the matrix's
transpose (one row-major GEMM per column). Dense arrays must fit one
memory budget (``check_budget``); for a 4^L x 4^L register operator
(``dense_dim``) it admits L <= 6 sites. Within it, dense storage and full
factorizations are affordable and exact to machine precision. Every
(N_up, N_dn) block of a dense H is cut, and checked, by ``sector_block``.
"""

import numpy as np

from .errors import DimensionTooLarge, SectorCoupling, StateSizeMismatch
from .gamma import DIM

DENSE_BUDGET_BYTES = 1 << 30  # one dense register operator, 1 GiB


def check_budget(rows: int, cols: int, what: str) -> None:
    """Raises DimensionTooLarge, to be called before any allocation, when
    one dense rows x cols complex matrix would exceed DENSE_BUDGET_BYTES."""
    if rows * cols * 16 > DENSE_BUDGET_BYTES:
        raise DimensionTooLarge(f"{what}: a dense {rows} x {cols} complex matrix "
                                f"needs {rows * cols * 16 / 2**30:g} GiB, over the "
                                f"{DENSE_BUDGET_BYTES / 2**30:g} GiB budget")


def dense_dim(site_count: int) -> int:
    """4^L, once one dense 4^L x 4^L complex matrix fits `check_budget`."""
    dim = 4**site_count
    check_budget(dim, dim, f"{site_count} sites")
    return dim


def sector_block(h: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The block of the symmetric H on the sorted sector ``basis``;
    SectorCoupling if a row of it has an entry (NaN too) in another sector,
    then ValueError unless the block is exactly symmetric (eigh reads one triangle)."""
    block = h[np.ix_(basis, basis)]
    if np.count_nonzero(h[basis]) != np.count_nonzero(block):  # rows: a contiguous gather
        raise SectorCoupling("H must have no entry between two (N_up, N_dn) sectors")
    if not np.array_equal(block, block.T):
        raise ValueError("H must be symmetric")
    return block


def apply_local(state: np.ndarray, blocks, site_count: int) -> np.ndarray:
    """Apply local operators in order to a state of an L-site register,
    (4^L,), or to the columns of a (4^L, B) batch; returns a new array of
    the state's shape.

    Each block is (sites, m): one site, or two ascending sites, and its
    4x4 or 16x16 matrix, whose index is the sites' levels with the first
    site's level major. The batch is copied once into a contiguous
    batch-leading (B, 4^L) array. A block's inner matrix shapes never
    depend on B, so every column gets bit-identical arithmetic to a run on
    that column alone.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape[0] != DIM**site_count:
        raise StateSizeMismatch(f"state has {state.shape[0]} amplitudes, a register of "
                                f"{site_count} sites has {DIM**site_count}")
    psi = np.ascontiguousarray(state.T).reshape(-1, state.shape[0])
    for sites, m in blocks:
        psi = _apply_block(psi, m, sites)
    return psi.reshape(state.shape[::-1]).T


def _apply_block(psi: np.ndarray, m: np.ndarray, sites) -> np.ndarray:
    """One matmul of m against the (B, 4^L) array psi. Sites (a, b) are
    brought together by swapping the axis of the sites between them with
    a's axis: a free view when b = a + 1, a copy of the state each way for
    non-adjacent sites (ladder rungs). The adjacent pair on the last two
    sites multiplies psi's rows by m^T instead of m by 4^a single columns."""
    a = sites[0]
    head = len(psi) * DIM**a
    tail = psi.shape[1] // DIM ** (sites[-1] + 1)  # explicit sizes: B may be 0
    if len(sites) == 1:
        return np.matmul(m, psi.reshape(head, DIM, tail)).reshape(psi.shape)
    gap = DIM ** (sites[1] - a - 1)
    if gap == 1 and tail == 1:
        # the register's last two sites: one row-major GEMM per column
        return np.matmul(psi.reshape(len(psi), DIM**a, DIM * DIM), m.T).reshape(psi.shape)
    x = psi.reshape(head, DIM, gap, DIM, tail).swapaxes(1, 2)
    y = np.matmul(m, x.reshape(head * gap, DIM * DIM, tail))
    return y.reshape(head, gap, DIM, DIM, tail).swapaxes(1, 2).reshape(psi.shape)


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator 2-norm of a - e^{i theta} b at the optimal global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.trace(b.conj().T @ a)
    theta = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * theta) * b, ord=2))
