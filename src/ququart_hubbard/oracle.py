"""Exact occupation-number-basis reference for the spinful Hubbard chain/ladder.

This is an independent implementation route. Configurations are numbered
by the bit string (n_up1, n_dn1, n_up2, ...), first mode most significant.
c or c^dag on one mode is a signed map of basis indices: it flips that
bit with sign (-1)^(occupied modes preceding it), or annihilates the
state. The Hamiltonian

    H = -J sum_bonds sum_spin (c^dag_a c_b + h.c.) + v sum_m N_up N_dn

is scattered from those maps with no matrix products. One
eigendecomposition (``ExactPropagator``) evolves states over whole time
grids and supplies the Lehmann sums of the thermal Green's function.
Every circuit-lane result is validated against this module.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries
from .linalg import dense_dim
from .mapping import SPIN_DOWN, SPIN_UP, SPINS, LatticeGeometry

_TOKEN_BITS = {"0": "00", "u": "10", "d": "01", "ud": "11"}


def mode_index(site: int, spin: str) -> int:
    """0-based spin-orbital index under the (up_1, dn_1, up_2, ...) order."""
    return 2 * (site - 1) + (0 if spin == SPIN_UP else 1)


def _ladder(site: int, spin: str, kind: str, site_count: int) -> tuple:
    """c ("annihilate") or c^dag ("create") as a signed map of basis indices.

    The operator sends basis state idx to sign[idx] * |target[idx]>; sign is
    0 where it annihilates the state. target is a bijection, so a product
    A B composes by indexing: (t_a[t_b], s_a[t_b] * s_b).
    """
    bit = 2 * site_count - 1 - mode_index(site, spin)
    idx = np.arange(4**site_count)
    occupied = (idx >> bit) & 1
    allowed = occupied if kind == "annihilate" else 1 - occupied
    sign = allowed * (-1.0) ** np.bitwise_count(idx >> (bit + 1))
    return idx ^ (1 << bit), sign


def _apply(op: tuple, psi: np.ndarray) -> np.ndarray:
    """Index map applied to a state or to the columns of a (dim, k) array."""
    target, sign = op
    out = np.empty_like(psi)
    out[target] = (psi.T * sign).T
    return out


def occupation(site: int, spin: str, site_count: int) -> np.ndarray:
    """Diagonal of the number operator N_{site,spin} (0.0 or 1.0 per basis state)."""
    bit = 2 * site_count - 1 - mode_index(site, spin)
    return ((np.arange(4**site_count) >> bit) & 1).astype(float)


def fermion_operator(site: int, spin: str, kind: str, site_count: int) -> np.ndarray:
    """Dense c or c^dag for (site, spin) on the 4^L occupation basis."""
    dim = dense_dim(site_count)
    target, sign = _ladder(site, spin, kind, site_count)
    out = np.zeros((dim, dim), dtype=complex)
    out[target, np.arange(dim)] = sign
    return out


def fermionic_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> np.ndarray:
    L = geometry.site_count
    dim = dense_dim(L)
    cols = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
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
    """Basis index of a product configuration given per-site tokens."""
    return int("".join(_TOKEN_BITS[t] for t in tokens), 2)


def fock_state(tokens) -> np.ndarray:
    state = np.zeros(4 ** len(tokens), dtype=complex)
    state[fock_index(tokens)] = 1.0
    return state


class ExactPropagator:
    """Cached eigendecomposition of a Hermitian Hamiltonian."""

    def __init__(self, h: np.ndarray):
        self.evals, self.evecs = np.linalg.eigh(np.asarray(h, dtype=complex))

    def phases(self, times) -> np.ndarray:
        """(dim, T) matrix e^{-i E_n t} over the eigenvalues and a time grid."""
        return np.exp(-1j * np.outer(self.evals, times))

    def evolve(self, state: np.ndarray, times) -> np.ndarray:
        """(dim, T) array whose column k is e^{-i H t_k} state.

        Columns with t = 0 are ``state`` itself, bit for bit.
        """
        state = np.asarray(state, dtype=complex)
        times = np.asarray(times, dtype=float)
        coeffs = self.evecs.conj().T @ state
        out = self.evecs @ (self.phases(times) * coeffs[:, None])
        out[:, times == 0.0] = state[:, None]
        return out


def exact_populations(h: np.ndarray, tokens, times) -> dict:
    """{(site, spin): <N>(t) over times} from the product state ``tokens``."""
    L = len(tokens)
    probs = np.abs(ExactPropagator(h).evolve(fock_state(tokens), times)) ** 2
    return {(s, spin): occupation(s, spin, L) @ probs for s in range(1, L + 1) for spin in SPINS}


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

    Evaluated as i <U(t) c_j psi0 | c_i U(t) psi0>, both vectors propagated
    over the whole grid at once.
    """
    L = len(tokens)
    prop = ExactPropagator(h)
    psi0 = fock_state(tokens)
    bra = prop.evolve(_apply(_ladder(j, spin, "annihilate", L), psi0), times)
    ket = _apply(_ladder(i, spin, "annihilate", L), prop.evolve(psi0, times))
    return 1j * np.sum(bra.conj() * ket, axis=0)


def retarded_gf(h: np.ndarray, beta: float, i: int, j: int, spin: str, times) -> np.ndarray:
    """Thermal G^R_{ij}(t) = -i theta(t) <{c_i(t), c^dag_j(0)}>_beta.

    theta(0) = 0.5; t < 0 samples are zero. Uses the Lehmann form in the
    eigenbasis, sum_nm A_nm e^{i (E_n - E_m) t}, evaluated as
    sum_n conj(Q_n) (A Q)_n over the (dim, T) phase matrix Q = e^{-i E t}.
    """
    prop = ExactPropagator(h)
    vecs = prop.evecs
    L = (vecs.shape[0].bit_length() - 1) // 2
    shifted = prop.evals - prop.evals.min()  # avoid overflow in e^{-beta E}
    weights = np.exp(-beta * shifted)
    c = vecs.conj().T @ _apply(_ladder(i, spin, "annihilate", L), vecs)
    cdag = vecs.conj().T @ _apply(_ladder(j, spin, "create", L), vecs)
    amp = (weights[:, None] + weights[None, :]) * c * cdag.T / weights.sum()
    times = np.asarray(times, dtype=float)
    theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
    q = prop.phases(times)
    return -1j * theta * np.sum(q.conj() * (amp @ q), axis=0)


def lesser_series(h, tokens, i, j, spin, times, J=np.nan, v=np.nan, init="") -> GreensSeries:
    values = lesser_gf(h, tokens, i, j, spin, times)
    return GreensSeries(np.asarray(times, float), values, i, j, spin, "lesser",
                        len(tokens), J, v, init or ",".join(tokens))


def retarded_series(h, beta, i, j, spin, times, site_count, J=np.nan, v=np.nan) -> GreensSeries:
    values = retarded_gf(h, beta, i, j, spin, times)
    return GreensSeries(np.asarray(times, float), values, i, j, spin, "retarded",
                        site_count, J, v, f"beta={beta:g}")


# --- frequency domain -------------------------------------------------------


def gf_fourier(series: GreensSeries, eta: float, omegas) -> np.ndarray:
    """Damped one-sided transform G(w) = sum_t dt e^{i w t} e^{-eta t} G(t).

    The grid must be uniform. The final sample enters with half weight;
    the t = 0 sample of a retarded series already carries theta(0) = 0.5,
    which supplies the correct boundary half-weight of the underlying
    discontinuous integrand, so it keeps unit weight here.
    """
    if len(series.times) == 0:
        raise EmptySeries("cannot transform an empty series")
    times = np.asarray(series.times, dtype=float)
    if len(times) > 1:
        steps = np.diff(times)
        dt = steps[0]
        if np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
            raise ValueError("time grid must be uniform")
    else:
        dt = 1.0
    weights = np.full(len(times), dt)
    weights[-1] *= 0.5
    if series.kind != "retarded" and len(times) > 1:
        weights[0] *= 0.5
    damped = series.values * np.exp(-eta * times) * weights
    # uniform grid: e^{i w t_k} = e^{i w t_0} z^k with z = e^{i w dt}
    omegas = np.asarray(omegas, dtype=float)
    z = np.exp(1j * omegas * dt)
    return np.exp(1j * omegas * times[0]) * np.polynomial.polynomial.polyval(z, damped)


def spectral(series: GreensSeries, eta: float, omegas) -> np.ndarray:
    """Spectral function A(w) = -(1/pi) Im G^R(w)."""
    return -np.imag(gf_fourier(series, eta, omegas)) / np.pi


# --- CSV --------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def series_to_csv(series: GreensSeries) -> str:
    buf = io.StringIO()
    buf.write(
        f"# i={series.i} j={series.j} spin={series.spin} kind={series.kind} "
        f"L={series.site_count} J={_fmt(series.J)} v={_fmt(series.v)} "
        f"init={series.init} source={series.source}\n"
    )
    writer = csv.writer(buf)
    writer.writerow(["t", "re", "im"])
    for t, val in zip(series.times, series.values):
        writer.writerow([_fmt(t), _fmt(val.real), _fmt(val.imag)])
    return buf.getvalue()


def series_from_csv(text: str) -> GreensSeries:
    lines = text.strip().splitlines()
    meta = {}
    if lines and lines[0].startswith("#"):
        for item in lines[0][1:].split():
            key, _, value = item.partition("=")
            meta[key] = value
        lines = lines[1:]
    rows = list(csv.reader(lines))
    data = [(float(t), complex(float(re), float(im))) for t, re, im in rows[1:]]
    times = np.array([t for t, _ in data])
    values = np.array([g for _, g in data])
    return GreensSeries(
        times,
        values,
        int(meta.get("i", 0)),
        int(meta.get("j", 0)),
        meta.get("spin", SPIN_UP),
        meta.get("kind", "lesser"),
        int(meta.get("L", 0)),
        float(meta.get("J", "nan")),
        float(meta.get("v", "nan")),
        meta.get("init", ""),
        meta.get("source", "oracle"),
    )
