"""Exact occupation-number-basis reference for the spinful Hubbard chain/ladder.

This is an independent implementation route: fermionic operators are built
as sign-string kron products over 2L spin-orbital modes ordered
(up_1, dn_1, up_2, dn_2, ...), the Hamiltonian is assembled directly from

    H = -J sum_bonds sum_spin (c^dag_a c_b + h.c.) + v sum_m N_up N_dn,

and time evolution / Green's functions come from full eigendecomposition.
Every circuit-lane result is validated against this module.

Basis index convention: configurations are numbered lexicographically by
the bit string (n_up1, n_dn1, n_up2, ...) with the first mode most
significant; matrix elements carry (-1)^(occupied modes preceding the
target mode).
"""

import csv
import io
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionTooLarge, EmptySeries
from .mapping import SPIN_DOWN, SPIN_UP, LatticeGeometry

_TOKEN_BITS = {"0": (0, 0), "u": (1, 0), "d": (0, 1), "ud": (1, 1)}

_A_LOCAL = np.array([[0, 1], [0, 0]], dtype=complex)  # annihilate |1> -> |0>
_SIGN = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def mode_index(site: int, spin: str) -> int:
    """0-based spin-orbital index under the (up_1, dn_1, up_2, ...) order."""
    return 2 * (site - 1) + (0 if spin == SPIN_UP else 1)


@lru_cache(maxsize=None)
def _mode_annihilator(mode: int, n_modes: int) -> np.ndarray:
    factors = [_SIGN] * mode + [_A_LOCAL] + [_I2] * (n_modes - mode - 1)
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    out.flags.writeable = False
    return out


def fermion_operator(site: int, spin: str, kind: str, site_count: int) -> np.ndarray:
    """Dense c or c^dag for (site, spin) on the 4^L occupation basis."""
    if site_count > 6:
        raise DimensionTooLarge("dense fermionic operators limited to 6 sites")
    c = _mode_annihilator(mode_index(site, spin), 2 * site_count)
    return c.conj().T.copy() if kind == "create" else c.copy()


def number_operator(site: int, spin: str, site_count: int) -> np.ndarray:
    c = fermion_operator(site, spin, "annihilate", site_count)
    return c.conj().T @ c


def fermionic_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> np.ndarray:
    L = geometry.site_count
    if L > 6:
        raise DimensionTooLarge("exact diagonalization limited to 6 sites")
    dim = 4**L
    h = np.zeros((dim, dim), dtype=complex)
    for a, b in geometry.bonds:
        for spin in (SPIN_UP, SPIN_DOWN):
            cdag_a = fermion_operator(a, spin, "create", L)
            c_b = fermion_operator(b, spin, "annihilate", L)
            hop = cdag_a @ c_b
            h += -J * (hop + hop.conj().T)
    for m in range(1, L + 1):
        h += v * number_operator(m, SPIN_UP, L) @ number_operator(m, SPIN_DOWN, L)
    return h


def fock_index(tokens) -> int:
    """Basis index of a product configuration given per-site tokens."""
    bits = []
    for t in tokens:
        bits.extend(_TOKEN_BITS[t])
    index = 0
    for b in bits:
        index = (index << 1) | b
    return index


def fock_state(tokens) -> np.ndarray:
    state = np.zeros(4 ** len(tokens), dtype=complex)
    state[fock_index(tokens)] = 1.0
    return state


class ExactPropagator:
    """Cached eigendecomposition of a Hermitian Hamiltonian."""

    def __init__(self, h: np.ndarray):
        self.h = np.asarray(h, dtype=complex)
        self.evals, self.evecs = np.linalg.eigh(self.h)

    def evolve(self, state: np.ndarray, t: float) -> np.ndarray:
        state = np.asarray(state, dtype=complex)
        if t == 0.0:
            return state.copy()
        coeffs = self.evecs.conj().T @ state
        return self.evecs @ (np.exp(-1j * self.evals * t) * coeffs)


def exact_population(h: np.ndarray, tokens, t: float, site: int, spin: str) -> float:
    psi = ExactPropagator(h).evolve(fock_state(tokens), t)
    n = number_operator(site, spin, len(tokens))
    return float(np.real(np.vdot(psi, n @ psi)))


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

    Evaluated as i <U(t) c_j psi0 | c_i U(t) psi0>, two propagations per
    time sample.
    """
    L = len(tokens)
    prop = ExactPropagator(h)
    c_i = fermion_operator(i, spin, "annihilate", L)
    c_j = fermion_operator(j, spin, "annihilate", L)
    psi0 = fock_state(tokens)
    removed = c_j @ psi0
    out = np.empty(len(times), dtype=complex)
    for idx, t in enumerate(times):
        bra = prop.evolve(removed, t)
        ket = c_i @ prop.evolve(psi0, t)
        out[idx] = 1j * np.vdot(bra, ket)
    return out


def retarded_gf(h: np.ndarray, beta: float, i: int, j: int, spin: str, times) -> np.ndarray:
    """Thermal G^R_{ij}(t) = -i theta(t) <{c_i(t), c^dag_j(0)}>_beta.

    theta(0) = 0.5; t < 0 samples are zero. Uses the Lehmann form in the
    eigenbasis, so a whole time grid costs one eigendecomposition.
    """
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    if dim > 4**4:
        raise DimensionTooLarge("thermal trace limited to 4 sites")
    L = int(round(np.log(dim) / np.log(4)))
    evals, evecs = np.linalg.eigh(h)
    shifted = evals - evals.min()  # avoid overflow in e^{-beta E}
    weights = np.exp(-beta * shifted)
    z = weights.sum()
    c = evecs.conj().T @ fermion_operator(i, spin, "annihilate", L) @ evecs
    cdag = evecs.conj().T @ fermion_operator(j, spin, "create", L) @ evecs
    pair = c * cdag.T  # C_nm * D_mn
    rho_sum = weights[:, None] + weights[None, :]
    amp = (rho_sum * pair) / z
    freq = evals[:, None] - evals[None, :]
    times = np.asarray(times, dtype=float)
    theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
    phases = np.exp(1j * np.outer(times, freq.ravel()))
    return -1j * theta * (phases @ amp.ravel())


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
    omegas = np.asarray(omegas, dtype=float)
    out = np.empty(len(omegas), dtype=complex)
    chunk = 512  # bound the e^{i w t} kernel memory
    for start in range(0, len(omegas), chunk):
        block = omegas[start : start + chunk]
        kernel = np.exp(1j * np.outer(block, times))
        out[start : start + chunk] = kernel @ damped
    return out


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
