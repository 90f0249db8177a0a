"""Dense complex linear algebra substrate.

Everything here operates on plain numpy arrays (complex128). Local
operators act on a register state by tensor contraction (``contract``).
Dense register operators must fit one memory budget (``dense_dim``), which
admits L <= 6 sites; within it, dense storage and full factorizations
are affordable and exact to machine precision.
"""

import numpy as np

from .errors import DimensionTooLarge

DENSE_BUDGET_BYTES = 1 << 30  # one dense register operator, 1 GiB


def dense_dim(site_count: int) -> int:
    """4^L; raises DimensionTooLarge, before any allocation, when one dense
    4^L x 4^L complex matrix would exceed DENSE_BUDGET_BYTES."""
    dim = 4**site_count
    if dim * dim * 16 > DENSE_BUDGET_BYTES:
        raise DimensionTooLarge(f"{site_count} sites: a dense {dim} x {dim} complex matrix "
                                f"needs {dim * dim * 16 / 2**30:g} GiB, over the "
                                f"{DENSE_BUDGET_BYTES / 2**30:g} GiB budget")
    return dim


def contract(psi: np.ndarray, m: np.ndarray, sites) -> np.ndarray:
    """Apply a local (4,)*2k tensor, indexed [outs..., ins...], to axes
    `sites` of psi; any further axes of psi ride along as a batch."""
    k = len(sites)
    psi = np.tensordot(m, psi, axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(psi, list(range(k)), list(sites))


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator 2-norm of a - e^{i theta} b at the optimal global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.trace(b.conj().T @ a)
    theta = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * theta) * b, ord=2))
