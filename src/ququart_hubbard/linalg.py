"""Dense complex linear algebra substrate.

Everything here operates on plain numpy arrays (complex128). Dense
register operators must fit one memory budget (``dense_dim``), which
admits L <= 6 sites; within it, dense storage and full factorizations
are affordable and exact to machine precision.
"""

import numpy as np

from .errors import ConvergenceFailure, DimensionTooLarge, NonHermitianInput

DEFAULT_TOL = 1e-10
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (i*rb+k, j*cb+l) -> a[i,j]*b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker product of a sequence of matrices."""
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) < tol)


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < tol)


def expm(h: np.ndarray, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary evolution e^{-i h t} of a Hermitian generator.

    Computed by eigendecomposition, which is exact to machine precision at
    these sizes. Raises NonHermitianInput if h fails the Hermiticity check.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, tol):
        raise NonHermitianInput(
            f"generator deviates from Hermiticity by more than {tol:g}"
        )
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh is robust
        raise ConvergenceFailure(str(exc)) from exc
    phases = np.exp(-1j * evals * t)
    return (evecs * phases) @ evecs.conj().T


def svd(m: np.ndarray):
    """Singular value decomposition m = U diag(s) Vh, s descending."""
    try:
        return np.linalg.svd(np.asarray(m, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator 2-norm of a - e^{i theta} b at the optimal global phase."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.trace(b.conj().T @ a)
    theta = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(a - np.exp(1j * theta) * b, ord=2))


def phase_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / dim; equals 1 iff a = e^{i theta} b for unitaries."""
    a = np.asarray(a)
    return float(np.abs(np.trace(a.conj().T @ b)) / a.shape[0])
