"""Exact occupation-number-basis reference for the spinful Hubbard chain/ladder.

This is an independent implementation route. Configurations are numbered
by the bit string (n_up1, n_dn1, n_up2, ...), first mode most significant.
c or c^dag on one mode is a signed map applied to given basis indices:
it flips that bit with sign (-1)^(occupied modes preceding it), or
annihilates the state. The Hamiltonian

    H = -J sum_bonds sum_spin (c^dag_a c_b + h.c.) + v sum_m N_up N_dn

is scattered from those maps, applied to all 4^L indices, with no matrix
products. J, v and every sign are real, so H is a float64 matrix and its
eigendecomposition is a real one. One eigendecomposition evolves a state
over a whole time grid.

H conserves N_up and N_dn, so a pure state is propagated only under the
block of H on its (N_up, N_dn) sector, the sorted basis indices sharing
its spin counts (Weisse & Fehske, Lect. Notes Phys. 739 (2008)), cut by
``linalg.sector_block``, which refuses an H coupling two sectors or not
symmetric. ``lesser_gf`` evolves psi0 and c_j psi0 in their sectors,
applies c_i to the first sector's basis and finds the targets in the
second with ``np.searchsorted``. The
thermal Green's function sums its Lehmann terms over pairs of sector
blocks, one real eigendecomposition per sector, and holds one (4^L, T)
phase table. Every circuit-lane result is validated against this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, SiteOutOfRange, StateSizeMismatch
from .linalg import check_budget, dense_dim, sector_block
from .mapping import SPIN_DOWN, SPIN_UP, SPINS, TOKENS, LatticeGeometry

_TOKEN_BITS = {"0": "00", "u": "10", "d": "01", "ud": "11"}


def mode_index(site: int, spin: str) -> int:
    """0-based spin-orbital index under the (up_1, dn_1, up_2, ...) order."""
    if spin not in SPINS:
        raise ValueError(f"spin must be up/down, got {spin!r}")
    return 2 * (site - 1) + SPINS.index(spin)


def _bit(site: int, spin: str, site_count: int) -> int:
    """Bit of mode (site, spin) in a basis index; SiteOutOfRange off 1..L."""
    if not 1 <= site <= site_count:
        raise SiteOutOfRange(f"site {site} outside 1..{site_count}")
    return 2 * site_count - 1 - mode_index(site, spin)


def _ladder(indices, site: int, spin: str, kind: str, site_count: int) -> tuple:
    """c ("annihilate") or c^dag ("create") on the basis states ``indices``
    (an array or one int) as (target, sign): |idx> -> sign |target>, sign 0
    where it annihilates the state. A B is (t_a, s_a * s_b), (t_a, s_a) = A(t_b)."""
    bit = _bit(site, spin, site_count)
    occupied = (indices >> bit) & 1
    allowed = occupied if kind == "annihilate" else 1 - occupied
    sign = allowed * (-1.0) ** np.bitwise_count(indices >> (bit + 1))
    return indices ^ (1 << bit), sign


def occupation(site: int, spin: str, site_count: int) -> np.ndarray:
    """Diagonal of the number operator N_{site,spin} (0.0 or 1.0 per basis state)."""
    return ((np.arange(4**site_count) >> _bit(site, spin, site_count)) & 1).astype(float)


def fermionic_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> np.ndarray:
    """Dense real (float64) H on the 4^L occupation basis."""
    L = geometry.site_count
    dim = dense_dim(L)
    cols = np.arange(dim)
    h = np.zeros((dim, dim))
    for a, b in geometry.bonds:
        for spin in SPINS:
            t_b, s_b = _ladder(cols, b, spin, "annihilate", L)
            rows, s_a = _ladder(t_b, a, spin, "create", L)  # c^dag_a c_b
            amp = s_a * s_b
            h[rows, cols] -= J * amp
            h[cols, rows] -= J * amp
    for m in range(1, L + 1):
        h[cols, cols] += v * occupation(m, SPIN_UP, L) * occupation(m, SPIN_DOWN, L)
    return h


def fock_index(tokens) -> int:
    """Basis index of a product configuration given per-site tokens;
    ValueError naming the first token that is not 0/u/d/ud."""
    for t in tokens:
        if t not in _TOKEN_BITS:
            raise ValueError(f"unknown occupation token {t!r}; use {'/'.join(TOKENS)}")
    return int("".join(_TOKEN_BITS[t] for t in tokens), 2)


def _site_count(h: np.ndarray) -> int:
    """L of a 4^L x 4^L Hamiltonian; StateSizeMismatch for any other shape."""
    L = (h.shape[0].bit_length() - 1) // 2
    if L < 1 or h.shape != (4**L, 4**L):
        raise StateSizeMismatch(f"a Hamiltonian of shape {h.shape} is not 4^L x 4^L")
    return L


def _start(h: np.ndarray, tokens) -> tuple:
    """(L, Fock index) of the product state ``tokens``; StateSizeMismatch
    unless H is 4^L x 4^L on those L sites."""
    if _site_count(h) != len(tokens):
        raise StateSizeMismatch(f"{len(tokens)} tokens for a Hamiltonian of "
                                f"dimension {h.shape[0]}")
    return len(tokens), fock_index(tokens)


def sector_labels(site_count: int) -> np.ndarray:
    """N_up * (L + 1) + N_dn of every basis state, read off its bits: up
    modes sit on the odd bits of an index, down modes on the even bits."""
    idx = np.arange(4**site_count)
    n_up = np.bitwise_count(idx & int("10" * site_count, 2))
    n_dn = np.bitwise_count(idx & int("01" * site_count, 2))
    return n_up.astype(int) * (site_count + 1) + n_dn


def _sector_evolve(h: np.ndarray, index: int, times) -> tuple:
    """(basis, amplitudes): the sorted (N_up, N_dn) sector holding ``index``
    and e^{-i H t} |index> on it, (len(basis), T), from one eigh of H's block
    there (real for a real H). Columns with t = 0 are |index>, bit for bit."""
    labels = sector_labels(_site_count(h))
    basis = np.flatnonzero(labels == labels[index])
    state = np.zeros(len(basis), dtype=complex)
    state[np.searchsorted(basis, index)] = 1.0
    times = np.asarray(times, dtype=float)
    evals, evecs = np.linalg.eigh(sector_block(h, basis))
    out = evecs @ (np.exp(-1j * np.outer(evals, times)) * (evecs.conj().T @ state)[:, None])
    out[:, times == 0.0] = state[:, None]
    return basis, out


def exact_populations(h: np.ndarray, tokens, times) -> dict:
    """{(site, spin): <N>(t) over times} from the product state ``tokens``,
    propagated in its (N_up, N_dn) sector."""
    L, start = _start(h, tokens)
    basis, amplitudes = _sector_evolve(h, start, times)
    probs = np.abs(amplitudes) ** 2
    return {(s, spin): ((basis >> _bit(s, spin, L)) & 1).astype(float) @ probs
            for s in range(1, L + 1) for spin in SPINS}


# --- Green's functions ------------------------------------------------------


@dataclass
class GreensSeries:
    """Time samples of a two-point function with its defining metadata."""

    times: np.ndarray
    values: np.ndarray
    i: int
    j: int
    spin: str
    kind: str  # "lesser" or "retarded"
    site_count: int
    J: float
    v: float
    init: str = ""
    source: str = "oracle"


def lesser_gf(h: np.ndarray, tokens, i: int, j: int, spin: str, times) -> np.ndarray:
    """G^<_{ij}(t) = i <psi0| c^dag_j(0) c_i(t) |psi0> for a pure state.

    Evaluated as i <U(t) c_j psi0 | c_i U(t) psi0>. psi0 is propagated in
    its (N_up, N_dn) sector and c_j psi0 in the sector with one fewer
    ``spin`` particle, each over the whole grid at once; c_i is applied to
    the first sector's basis. Exactly zero when orbital j is empty. Sites
    and spin are checked (`_bit`) before any eigh, as in `retarded_gf`.
    """
    L, start = _start(h, tokens)
    _bit(i, spin, L)
    hole, sign_j = _ladder(start, j, spin, "annihilate", L)  # c_j psi0 = sign_j |hole>
    if sign_j == 0.0:
        return np.zeros(len(times), dtype=complex)
    source, ket = _sector_evolve(h, start, times)
    removed, bra = _sector_evolve(h, hole, times)
    target_i, sign_i = _ladder(source, i, spin, "annihilate", L)
    keep = sign_i != 0.0  # c_i annihilates the rest
    rows = np.searchsorted(removed, target_i[keep])
    c_ket = sign_i[keep, None] * ket[keep]
    return 1j * np.sum((sign_j * bra)[rows].conj() * c_ket, axis=0)


def _restricted(op: tuple, vecs: np.ndarray, target: np.ndarray,
                target_vecs: np.ndarray) -> np.ndarray:
    """<n|op|m> for eigenvectors m (``vecs``) of a sector, with ``op`` applied
    to its basis, and n (``target_vecs``) of the sorted sector ``target``."""
    to, sign = op
    keep = sign != 0.0
    rows = np.searchsorted(target, to[keep])
    return (target_vecs[rows].T * sign[keep]) @ vecs[keep]


def retarded_gf(h: np.ndarray, beta: float, i: int, j: int, spin: str, times) -> np.ndarray:
    """Thermal G^R_{ij}(t) = -i theta(t) <{c_i(t), c^dag_j(0)}>_beta.

    theta(0) = 0.5; t < 0 samples are zero. Uses the Lehmann form
    sum_nm (w_n + w_m) <n|c_i|m> <m|c^dag_j|n> e^{i (E_n - E_m) t} / Z, with
    one real eigh per (N_up, N_dn) sector block and global E_min and Z. The
    only nonzero terms have m in a sector S and n in S' with one ``spin``
    particle fewer; each such pair adds sum_n conj(Q_n) (A Q)_n, with A its
    amplitude block and Q = e^{-i E t} read from one (4^L, T) phase table.
    Before any eigh, refuses an H that is not 4^L x 4^L (StateSizeMismatch),
    couples two sectors or has a block that is not symmetric
    (`sector_block`), and a beta outside [0, inf).
    """
    L = _site_count(h)
    for site in (i, j):
        _bit(site, spin, L)
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    labels = sector_labels(L)
    ends = np.cumsum(np.bincount(labels))[:-1]
    bases = np.split(np.argsort(labels, kind="stable"), ends)  # each one sorted
    evals, vecs = zip(*map(np.linalg.eigh, [sector_block(h, b) for b in bases]))  # cut all first
    energies = np.concatenate(evals)
    gap = energies - energies.min()
    # eigh splits a degenerate ground level by rounding (chain(4)'s two
    # sectors by 8e-15); as one level, beta -> inf averages over all of it
    gap[gap <= 1e-12 * np.abs(energies).max()] = 0.0
    with np.errstate(over="ignore"):  # a large beta sends -beta (E - E_min) to -inf: weight 0
        weights = np.exp(-beta * gap)
    w = np.split(weights, ends)
    times = np.asarray(times, dtype=float)
    q = np.outer(energies, -1j * times)
    q = np.split(np.exp(q, out=q), ends)
    axis = SPINS.index(spin)  # a label is N_up (L + 1) + N_dn
    total = np.zeros(len(times), dtype=complex)
    for s in range(len(bases)):
        if divmod(s, L + 1)[axis] == 0:
            continue  # no ``spin`` particle for c_i to remove
        r = s - (L + 1, 1)[axis]
        c = _restricted(_ladder(bases[s], i, spin, "annihilate", L), vecs[s], bases[r], vecs[r])
        cdag = _restricted(_ladder(bases[r], j, spin, "create", L), vecs[r], bases[s], vecs[s])
        amp = (w[r][:, None] + w[s][None, :]) * c * cdag.T
        total += np.sum(q[r].conj() * (amp @ q[s]), axis=0)
    theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
    return -1j * theta * total / weights.sum()


def retarded_series(h, beta, i, j, spin, times, site_count, J=np.nan, v=np.nan) -> GreensSeries:
    """`retarded_gf` as a series; a `site_count` other than H's L raises
    StateSizeMismatch before any eigh."""
    L = _site_count(h)
    if site_count != L:
        raise StateSizeMismatch(f"site_count {site_count} for a Hamiltonian on {L} sites")
    values = retarded_gf(h, beta, i, j, spin, times)
    return GreensSeries(np.asarray(times, float), values, i, j, spin, "retarded",
                        site_count, J, v, f"beta={beta:g}")


# --- frequency domain -------------------------------------------------------


# extent and spacing of the default retarded-GF time grid (`greens`, criterion 7)
RETARDED_T_MAX, RETARDED_DT = 40.0, 0.05

# the spectral-function grid of `greens` and acceptance criterion 7
OMEGAS = np.arange(-12.0, 12.0 + 1e-9, 0.01)
OMEGAS.flags.writeable = False


def uniform_grid(start: float, stop: float, step: float, rows: int = 1) -> np.ndarray:
    """start, start + step, ... never past stop; a stop within 1e-9 steps of
    a grid point counts as reaching it. ValueError unless start <= stop are
    finite and step is finite and positive. Raises DimensionTooLarge,
    before any allocation, when one complex (rows, T) array over the grid
    would exceed the dense budget (`retarded_gf` holds one with rows = 4^L)."""
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and start <= stop):
        raise ValueError(f"time grid: need finite start <= stop, step > 0; got {start, stop, step}")
    # a span that overflows to inf is refused by the budget, not by int()
    points = int(min((stop - start) / step, 2.0**62) + 1e-9) + 1
    check_budget(rows, points, "time grid")
    return start + step * np.arange(points)


def gf_fourier(series: GreensSeries, eta: float, omegas) -> np.ndarray:
    """Damped one-sided transform G(w) = sum_t dt e^{i w t} e^{-eta t} G(t).

    The grid must be finite, increasing and uniform (else ValueError), with
    two samples or more (else EmptySeries). The last enters with half weight;
    the t = 0 sample of a retarded series already carries theta(0) = 0.5,
    which supplies the correct boundary half-weight of the underlying
    discontinuous integrand, so it keeps unit weight here.
    """
    if len(series.times) < 2:
        raise EmptySeries(f"cannot transform a series of {len(series.times)} samples")
    times = np.asarray(series.times, dtype=float)
    steps = np.diff(times) if np.isfinite(times).all() else np.array([np.nan])  # inf - inf warns
    dt = steps[0]
    if not dt > 0 or np.max(np.abs(steps - dt)) > 1e-9 * max(dt, 1):
        raise ValueError("time grid must be finite, increasing and uniform")
    weights = np.full(len(times), dt)
    weights[-1] *= 0.5
    if series.kind != "retarded":
        weights[0] *= 0.5
    # uniform grid: e^{i w t_k} = e^{i w t_0} z^k with z = e^{i w dt}. The
    # sum over k runs in rows of 32 terms: one product with z^0 .. z^31 for
    # every row, then Horner's rule in z^32 over the rows
    width = 32
    damped = np.zeros(-(-len(times) // width) * width, dtype=complex)
    damped[:len(times)] = series.values * np.exp(-eta * times) * weights
    omegas = np.asarray(omegas, dtype=float)
    z = np.exp(1j * omegas * dt)
    powers = np.cumprod([np.ones_like(z)] + [z] * width, axis=0)  # z^0 .. z^width
    *rows, total = np.tensordot(damped.reshape(-1, width), powers[:-1], axes=1)
    for row in reversed(rows):
        total = total * powers[-1] + row
    return np.exp(1j * omegas * times[0]) * total


def spectral(series: GreensSeries, eta: float, omegas) -> np.ndarray:
    """Spectral function A(w) = -(1/pi) Im G^R(w)."""
    return -np.imag(gf_fourier(series, eta, omegas)) / np.pi
