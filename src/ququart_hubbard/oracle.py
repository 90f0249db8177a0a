"""Exact occupation-number-basis reference for the spinful Hubbard chain/ladder.

This is an independent implementation route. Configurations are numbered
by the bit string (n_up1, n_dn1, n_up2, ...), first mode most significant.
c or c^dag on one mode is a signed map of basis indices: it flips that
bit with sign (-1)^(occupied modes preceding it), or annihilates the
state. The Hamiltonian

    H = -J sum_bonds sum_spin (c^dag_a c_b + h.c.) + v sum_m N_up N_dn

is scattered from those maps with no matrix products. J, v and every
sign are real, so H is a float64 matrix and its eigendecomposition is a
real one. One eigendecomposition evolves a state over a whole time grid.

H conserves N_up and N_dn, so a pure state is propagated only in its
(N_up, N_dn) sector: the sorted basis indices sharing its spin counts
(``sector_basis``; Weisse & Fehske, Lect. Notes Phys. 739 (2008)), with
the block of H on them. ``exact_populations`` evolves the initial product
state in its sector, and ``lesser_gf`` evolves psi0 and c_j psi0 in theirs,
mapping c_i between the two with the signed index maps and
``np.searchsorted``. The thermal Green's function sums its Lehmann terms
over pairs of sector blocks, one real eigendecomposition per sector, and
holds one (4^L, T) phase table. Every circuit-lane result is validated
against this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, SectorCoupling, SiteOutOfRange, StateSizeMismatch
from .linalg import check_budget, dense_dim
from .mapping import SPIN_DOWN, SPIN_UP, SPINS, TOKENS, LatticeGeometry

_TOKEN_BITS = {"0": "00", "u": "10", "d": "01", "ud": "11"}


def mode_index(site: int, spin: str) -> int:
    """0-based spin-orbital index under the (up_1, dn_1, up_2, ...) order."""
    if spin not in SPINS:
        raise ValueError(f"spin must be up/down, got {spin!r}")
    return 2 * (site - 1) + SPINS.index(spin)


def _mode_bits(site: int, spin: str, site_count: int) -> tuple:
    """(every basis index, the bit of mode (site, spin) in an index, that bit
    of every index); SiteOutOfRange for a site outside 1..L."""
    if not 1 <= site <= site_count:
        raise SiteOutOfRange(f"site {site} outside 1..{site_count}")
    idx, bit = np.arange(4**site_count), 2 * site_count - 1 - mode_index(site, spin)
    return idx, bit, (idx >> bit) & 1


def _ladder(site: int, spin: str, kind: str, site_count: int) -> tuple:
    """c ("annihilate") or c^dag ("create") as a signed map of basis indices.

    The operator sends basis state idx to sign[idx] * |target[idx]>; sign is
    0 where it annihilates the state. target is a bijection, so a product
    A B composes by indexing: (t_a[t_b], s_a[t_b] * s_b).
    """
    idx, bit, occupied = _mode_bits(site, spin, site_count)
    allowed = occupied if kind == "annihilate" else 1 - occupied
    sign = allowed * (-1.0) ** np.bitwise_count(idx >> (bit + 1))
    return idx ^ (1 << bit), sign


def occupation(site: int, spin: str, site_count: int) -> np.ndarray:
    """Diagonal of the number operator N_{site,spin} (0.0 or 1.0 per basis state)."""
    return _mode_bits(site, spin, site_count)[2].astype(float)


def fermionic_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> np.ndarray:
    """Dense real (float64) H on the 4^L occupation basis."""
    L = geometry.site_count
    dim = dense_dim(L)
    cols = np.arange(dim)
    h = np.zeros((dim, dim))
    for a, b in geometry.bonds:
        for spin in SPINS:
            t_a, s_a = _ladder(a, spin, "create", L)
            t_b, s_b = _ladder(b, spin, "annihilate", L)
            rows, amp = t_a[t_b], s_a[t_b] * s_b  # c^dag_a c_b
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
    """(L, Fock index, sorted sector basis) of the product state ``tokens``;
    StateSizeMismatch unless H is 4^L x 4^L on those L sites."""
    if _site_count(h) != len(tokens):
        raise StateSizeMismatch(f"{len(tokens)} tokens for a Hamiltonian of "
                                f"dimension {h.shape[0]}")
    start = fock_index(tokens)
    return len(tokens), start, sector_basis(start, len(tokens))


def sector_labels(site_count: int) -> np.ndarray:
    """N_up * (L + 1) + N_dn of every basis state, read off its bits: up
    modes sit on the odd bits of an index, down modes on the even bits."""
    idx = np.arange(4**site_count)
    n_up = np.bitwise_count(idx & int("10" * site_count, 2))
    n_dn = np.bitwise_count(idx & int("01" * site_count, 2))
    return n_up.astype(int) * (site_count + 1) + n_dn


def sector_basis(index: int, site_count: int) -> np.ndarray:
    """Sorted basis indices with the same (N_up, N_dn) as basis state ``index``."""
    labels = sector_labels(site_count)
    return np.flatnonzero(labels == labels[index])


def _sector_evolve(h: np.ndarray, basis: np.ndarray, index: int, times) -> np.ndarray:
    """(len(basis), T) amplitudes of e^{-i H t} |index> on the sorted sector
    ``basis`` that holds ``index``, from one eigendecomposition of the block
    of H on that sector (real for a real H). Columns with t = 0 are |index>
    itself, bit for bit."""
    state = np.zeros(len(basis), dtype=complex)
    state[np.searchsorted(basis, index)] = 1.0
    times = np.asarray(times, dtype=float)
    evals, evecs = np.linalg.eigh(h[np.ix_(basis, basis)])
    out = evecs @ (np.exp(-1j * np.outer(evals, times)) * (evecs.conj().T @ state)[:, None])
    out[:, times == 0.0] = state[:, None]
    return out


def exact_populations(h: np.ndarray, tokens, times) -> dict:
    """{(site, spin): <N>(t) over times} from the product state ``tokens``,
    propagated in its (N_up, N_dn) sector."""
    L, start, basis = _start(h, tokens)
    probs = np.abs(_sector_evolve(h, basis, start, times)) ** 2
    return {(s, spin): occupation(s, spin, L)[basis] @ probs
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
    ``spin`` particle, each over the whole grid at once; c_i maps the first
    sector into the second. Exactly zero when orbital j is empty. Sites and
    spin are checked (`_ladder`) before any eigh, as in `retarded_gf`.
    """
    L, start, source = _start(h, tokens)
    times = np.asarray(times, dtype=float)
    (target_i, sign_i), (target_j, sign_j) = (_ladder(s, spin, "annihilate", L) for s in (i, j))
    if sign_j[start] == 0.0:
        return np.zeros(len(times), dtype=complex)
    hole = int(target_j[start])  # c_j psi0 = sign_j[start] |hole>
    removed = sector_basis(hole, L)
    bra = sign_j[start] * _sector_evolve(h, removed, hole, times)
    ket = _sector_evolve(h, source, start, times)
    keep = sign_i[source] != 0.0  # c_i annihilates the rest
    rows = np.searchsorted(removed, target_i[source[keep]])
    c_ket = sign_i[source[keep], None] * ket[keep]
    return 1j * np.sum(bra[rows].conj() * c_ket, axis=0)


def _restricted(op: tuple, source: np.ndarray, vecs: np.ndarray, target: np.ndarray,
                target_vecs: np.ndarray) -> np.ndarray:
    """<n|op|m> for eigenvectors m (``vecs``) of the sorted sector ``source``
    and n (``target_vecs``) of the sorted sector ``target`` it maps into."""
    to, sign = op
    keep = sign[source] != 0.0
    rows = np.searchsorted(target, to[source[keep]])
    return (target_vecs[rows].T * sign[source[keep]]) @ vecs[keep]


def retarded_gf(h: np.ndarray, beta: float, i: int, j: int, spin: str, times) -> np.ndarray:
    """Thermal G^R_{ij}(t) = -i theta(t) <{c_i(t), c^dag_j(0)}>_beta.

    theta(0) = 0.5; t < 0 samples are zero. Uses the Lehmann form
    sum_nm (w_n + w_m) <n|c_i|m> <m|c^dag_j|n> e^{i (E_n - E_m) t} / Z, with
    one real eigh per (N_up, N_dn) sector block and global E_min and Z. The
    only nonzero terms have m in a sector S and n in S' with one ``spin``
    particle fewer; each such pair adds sum_n conj(Q_n) (A Q)_n, with A its
    amplitude block and Q = e^{-i E t} read from one (4^L, T) phase table.
    An H that is not 4^L x 4^L raises StateSizeMismatch, and one with an
    entry between two sectors SectorCoupling, both before any eigh.
    """
    L = _site_count(h)
    c_i, cdag_j = _ladder(i, spin, "annihilate", L), _ladder(j, spin, "create", L)
    labels = sector_labels(L)
    ends = np.cumsum(np.bincount(labels))[:-1]
    bases = np.split(np.argsort(labels, kind="stable"), ends)  # each one sorted
    if np.count_nonzero(h) != sum(np.count_nonzero(h[np.ix_(b, b)]) for b in bases):
        raise SectorCoupling("retarded_gf needs an H with no entry between two "
                             "(N_up, N_dn) sectors")
    evals, vecs = zip(*(np.linalg.eigh(h[np.ix_(b, b)]) for b in bases))
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
        c = _restricted(c_i, bases[s], vecs[s], bases[r], vecs[r])
        cdag = _restricted(cdag_j, bases[r], vecs[r], bases[s], vecs[s])
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

    The grid must be uniform, with at least two samples (else EmptySeries:
    one sample has no dt). The final sample enters with half weight;
    the t = 0 sample of a retarded series already carries theta(0) = 0.5,
    which supplies the correct boundary half-weight of the underlying
    discontinuous integrand, so it keeps unit weight here.
    """
    if len(series.times) < 2:
        raise EmptySeries(f"cannot transform a series of {len(series.times)} samples")
    times = np.asarray(series.times, dtype=float)
    steps = np.diff(times)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("time grid must be uniform")
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
