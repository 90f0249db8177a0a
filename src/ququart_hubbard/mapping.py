"""Fermion-to-ququart encoding and the mapped Hubbard Hamiltonian.

One spinful lattice site (four Fock states) maps onto one four-level
qudit. Creation/annihilation operators become strings of the fifth
Clifford element Gt on all preceding sites times a local ladder factor,

    c       =  (Gt (x) ... (x) Gt) (x) (1/2)(G_{2v-1} -+ i G_{2v}) (x) I ...
     m,v

with spin up using the (G1, G2) pair and spin down the (G3, G4) pair.
Anticommutation of the Gt string with every local factor reproduces the
fermionic algebra exactly. ``apply_fermion`` applies that string to a
register state factor by factor, each 4x4 factor one ``linalg.apply_local``
matmul on its own site of the batch-leading state array, so no 4^L x 4^L
matrix is formed; ``map_fermion`` is its dense image (the string applied
to the identity), for the algebra checks.

Under this map the hopping term on a bond (a, b) splits into four
mutually commuting Hermitian pieces carrying a Gt string over any sites
strictly between a and b (empty for nearest-neighbor register pairs):

    h1 = -i G2 Gt (x) [Gt ...] (x) G1      h2 = +i G1 Gt (x) [Gt ...] (x) G2
    h3 = -i G4 Gt (x) [Gt ...] (x) G3      h4 = +i G3 Gt (x) [Gt ...] (x) G4

each entering with coefficient J/2. The on-site interaction stays local:
N_up N_dn = (1/4)(I - i G1 G2 - i G3 G4 + Gt), a projector onto the doubly
occupied level scaled by 4, whose 1/4 is computed from the operator product
rather than assumed. `MappedHamiltonian.terms` is the one list of these
terms; `dense_hamiltonian` and the `save_hamiltonian` document read it.

Sites are 1-based throughout this module (register position = site - 1).
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SiteOutOfRange, UnsupportedLattice
from .gamma import DIM, G1, G2, G3, G4, GT
from .linalg import apply_local, dense_dim

SPIN_UP = "up"
SPIN_DOWN = "down"
SPINS = (SPIN_UP, SPIN_DOWN)

# occupation tokens accepted for initial states
TOKENS = ("0", "u", "d", "ud")


@dataclass(frozen=True)
class LatticeGeometry:
    """A chain or two-row ladder with 1-based sites and ordered bonds."""

    kind: str  # "chain" or "ladder"
    site_count: int
    bonds: tuple  # ((a, b), ...) with a < b
    label: str


def chain(length: int) -> LatticeGeometry:
    if length < 1:
        raise UnsupportedLattice(f"chain length must be >= 1, got {length}")
    bonds = tuple((m, m + 1) for m in range(1, length))
    return LatticeGeometry("chain", length, bonds, f"chain({length})")


def ladder(rows: int, cols: int) -> LatticeGeometry:
    """Two-row ladder, row-major site numbering, horizontal bonds then rungs."""
    if rows != 2:
        raise UnsupportedLattice("only 2-row ladders are supported")
    if cols < 2:
        raise UnsupportedLattice(f"ladder needs at least 2 columns, got {cols}")
    horizontal = [(r * cols + c, r * cols + c + 1) for r in range(2) for c in range(1, cols)]
    rungs = [(c, c + cols) for c in range(1, cols + 1)]
    return LatticeGeometry("ladder", 2 * cols, tuple(horizontal + rungs), f"ladder(2,{cols})")


def parse_geometry(token: str) -> LatticeGeometry:
    """Parse 'chain:L', 'ladder:2xN', or shorthand '1x8' / '2x4'."""
    token = token.strip().lower()
    if token.startswith("chain:"):
        return chain(int(token.split(":", 1)[1]))
    if token.startswith("ladder:"):
        rows, cols = token.split(":", 1)[1].split("x")
        return ladder(int(rows), int(cols))
    if "x" in token:
        rows, cols = (int(p) for p in token.split("x"))
        if rows == 1:
            return chain(cols)
        return ladder(rows, cols)
    raise UnsupportedLattice(f"cannot parse geometry {token!r}")


_LADDER_FACTORS = {(spin, kind): 0.5 * (a + sign * b)
                   for spin, (a, b) in ((SPIN_UP, (G1, G2)), (SPIN_DOWN, (G3, G4)))
                   for kind, sign in (("annihilate", -1j), ("create", 1j))}


def local_fermion_factor(spin: str, kind: str) -> np.ndarray:
    """A copy of the site-local 4x4 ladder factor (1/2)(G_{2v-1} +- i G_{2v})."""
    try:
        return _LADDER_FACTORS[(spin, kind)].copy()
    except KeyError:
        raise ValueError(f"spin must be up/down and kind create/annihilate, got ({spin!r}, {kind!r})")


def apply_fermion(state: np.ndarray, site: int, spin: str, kind: str,
                  site_count: int) -> np.ndarray:
    """c ("annihilate") or c^dag ("create") on a register state, or on the
    columns of a (4^L, k) batch: Gt on every site before `site`, then the
    local ladder factor on `site`."""
    if not 1 <= site <= site_count:
        raise SiteOutOfRange(f"site {site} outside 1..{site_count}")
    string = [((axis,), GT) for axis in range(site - 1)]
    return apply_local(state, string + [((site - 1,), local_fermion_factor(spin, kind))],
                       site_count)[0]


def map_fermion(site: int, spin: str, kind: str, site_count: int) -> np.ndarray:
    """Dense register image of one fermionic ladder operator (within the
    dense budget)."""
    eye = np.eye(dense_dim(site_count), dtype=complex)
    return apply_fermion(eye, site, spin, kind, site_count)


def mapped_number_operator(site: int, spin: str, site_count: int) -> np.ndarray:
    cdag = map_fermion(site, spin, "create", site_count)
    c = map_fermion(site, spin, "annihilate", site_count)
    return cdag @ c


@lru_cache(maxsize=None)
def level_occupations() -> tuple:
    """Per-level (n_up, n_dn) read off the single-site number operators."""
    n_up = np.real(np.diag(mapped_number_operator(1, SPIN_UP, 1)))
    n_dn = np.real(np.diag(mapped_number_operator(1, SPIN_DOWN, 1)))
    return tuple((int(round(u)), int(round(d))) for u, d in zip(n_up, n_dn))


def sector_labels(site_count: int) -> np.ndarray:
    """N_up * (L + 1) + N_dn of every register basis state (first site's
    level most significant), summed from the per-level occupations."""
    n_up, n_dn = np.array(level_occupations()).T
    per_level = n_up * (site_count + 1) + n_dn
    labels = np.zeros(1, dtype=int)
    for _ in range(site_count):
        labels = (labels[:, None] + per_level).ravel()
    return labels


@lru_cache(maxsize=None)
def level_of_token() -> dict:
    """{token: qudit level} for the occupation tokens, each token spelled
    from its level's (n_up, n_dn): 'u' per up, 'd' per down, else '0'."""
    return {("u" * n_up + "d" * n_dn) or "0": level
            for level, (n_up, n_dn) in enumerate(level_occupations())}


def parse_init_tokens(text: str) -> tuple:
    tokens = tuple(t.strip() for t in text.split(","))
    for t in tokens:
        if t not in TOKENS:
            raise ValueError(f"unknown occupation token {t!r}; use 0/u/d/ud")
    return tokens


def product_state(tokens) -> np.ndarray:
    """Register basis state for per-site occupation tokens."""
    levels = [level_of_token()[t] for t in tokens]
    index = 0
    for lvl in levels:
        index = index * DIM + lvl
    state = np.zeros(DIM ** len(levels), dtype=complex)
    state[index] = 1.0
    return state


@dataclass(frozen=True)
class MappedHamiltonian:
    geometry: LatticeGeometry
    J: float
    v: float
    int_prefactor: float

    def terms(self):
        """Every term of H as (coefficient, {site: 4x4 factor}), identity on
        the sites not named: per bond in `geometry.bonds` order, its four
        `hopping_local_factors` pieces at J/2 with Gt on the sites strictly
        between its ends; then p v times the interaction bracket per site."""
        for a, b in self.geometry.bonds:
            for left, right in hopping_local_factors().values():
                yield self.J / 2.0, {a: left, **dict.fromkeys(range(a + 1, b), GT), b: right}
        local = self.int_prefactor * self.v * interaction_bracket()
        for site in range(1, self.geometry.site_count + 1):
            yield 1.0, {site: local}


@lru_cache(maxsize=None)
def resolve_int_prefactor() -> float:
    """Prefactor p with N_up N_dn = p (I - i G1 G2 - i G3 G4 + Gt) at one site.

    Computed from the mapped operator product and checked to be exact; the
    typeset constant in front of the bracket is not trusted.
    """
    n_product = mapped_number_operator(1, SPIN_UP, 1) @ mapped_number_operator(1, SPIN_DOWN, 1)
    bracket = interaction_bracket()
    p = np.vdot(bracket, n_product) / np.vdot(bracket, bracket)
    if abs(p.imag) > 1e-14 or np.max(np.abs(n_product - p.real * bracket)) > 1e-14:
        raise ArithmeticError("interaction bracket does not match N_up N_dn")
    return float(p.real)


@lru_cache(maxsize=None)
def hopping_local_factors() -> dict:
    """The four (left, right) 4x4 factor pairs of a mapped bond."""
    return {
        1: (-1j * G2 @ GT, G1),
        2: (1j * G1 @ GT, G2),
        3: (-1j * G4 @ GT, G3),
        4: (1j * G3 @ GT, G4),
    }


def interaction_bracket() -> np.ndarray:
    return np.eye(DIM) - 1j * G1 @ G2 - 1j * G3 @ G4 + GT


def build_mapped_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> MappedHamiltonian:
    return MappedHamiltonian(geometry, J, v, resolve_int_prefactor())


def _add_kron_string(h: np.ndarray, factors, coefficient: float) -> None:
    """Add coefficient * (f_1 (x) ... (x) f_L) to the real matrix h.

    The product is scattered from the nonzeros of the 4x4 factors, multiplied
    left to right as a dense Kronecker product would be. Raises
    ArithmeticError unless every entry is exactly real.
    """
    rows = cols = np.zeros(1, dtype=np.intp)
    vals = np.ones(1, dtype=complex)
    for f in factors:
        f = np.asarray(f, dtype=complex)
        r, c = np.nonzero(f)
        rows = (rows[:, None] * DIM + r).ravel()
        cols = (cols[:, None] * DIM + c).ravel()
        vals = (vals[:, None] * f[r, c]).ravel()
    vals = coefficient * vals
    if np.any(vals.imag != 0.0):
        raise ArithmeticError("mapped Hamiltonian term has entries that are not real")
    h[rows, cols] += vals.real  # the entries of one product have distinct positions


def dense_hamiltonian(mh: MappedHamiltonian) -> np.ndarray:
    """Full real (float64) 4^L matrix of the mapped Hamiltonian (within the
    dense budget), scattered term by term from the tensor factors."""
    L = mh.geometry.site_count
    dim = dense_dim(L)
    h = np.zeros((dim, dim))
    eye = np.eye(DIM)
    for coefficient, factors in mh.terms():
        _add_kron_string(h, [factors.get(s, eye) for s in range(1, L + 1)], coefficient)
    return h


# --- serialization ----------------------------------------------------------


def _matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def save_hamiltonian(mh: MappedHamiltonian, path) -> None:
    """Write geometry, couplings and every term of `mh.terms()`, each factor
    an [re, im] matrix keyed by its site, so the file alone rebuilds H."""
    doc = {
        "geometry": {
            "kind": mh.geometry.kind,
            "sites": mh.geometry.site_count,
            "bonds": [list(b) for b in mh.geometry.bonds],
            "label": mh.geometry.label,
        },
        "J": mh.J,
        "v": mh.v,
        "int_prefactor": mh.int_prefactor,
        "terms": [
            {"coefficient": coefficient,
             "factors": {str(site): _matrix_to_json(f) for site, f in factors.items()}}
            for coefficient, factors in mh.terms()
        ],
    }
    # json.dumps without indent takes the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
