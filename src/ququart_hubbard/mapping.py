"""Fermion-to-ququart encoding and the mapped Hubbard Hamiltonian.

One spinful lattice site (four Fock states) maps onto one four-level
qudit. Creation/annihilation operators become strings of the fifth
Clifford element Gt on all preceding sites times a local ladder factor,

    c       =  (Gt (x) ... (x) Gt) (x) (1/2)(G_{2v-1} -+ i G_{2v}) (x) I ...
     m,v

with spin up using the (G1, G2) pair and spin down the (G3, G4) pair.
Anticommutation of the Gt string with every local factor reproduces the
fermionic algebra exactly.

Under this map the hopping term on a bond (a, b) splits into four
mutually commuting Hermitian pieces carrying a Gt string over any sites
strictly between a and b (empty for nearest-neighbor register pairs):

    h1 = -i G2 Gt (x) [Gt ...] (x) G1      h2 = +i G1 Gt (x) [Gt ...] (x) G2
    h3 = -i G4 Gt (x) [Gt ...] (x) G3      h4 = +i G3 Gt (x) [Gt ...] (x) G4

each entering with coefficient J/2. The on-site interaction stays local:
expanding N_up N_dn gives (1/4)(I - i G1 G2 - i G3 G4 + Gt), a projector
onto the doubly occupied level scaled by 4; the 1/4 prefactor is computed
here from the operator product rather than assumed, and locked in by the
spectrum-equivalence tests against the occupation-number reference.

Sites are 1-based throughout this module (register position = site - 1).
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SiteOutOfRange, UnsupportedLattice
from .gamma import DIM, make_gamma_set
from .linalg import dense_dim, kron_all

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

    @property
    def bond_count(self) -> int:
        return len(self.bonds)


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


@lru_cache(maxsize=None)
def _local_operators():
    g = make_gamma_set()
    half = {
        (SPIN_UP, "annihilate"): 0.5 * (g.gamma(1) - 1j * g.gamma(2)),
        (SPIN_UP, "create"): 0.5 * (g.gamma(1) + 1j * g.gamma(2)),
        (SPIN_DOWN, "annihilate"): 0.5 * (g.gamma(3) - 1j * g.gamma(4)),
        (SPIN_DOWN, "create"): 0.5 * (g.gamma(3) + 1j * g.gamma(4)),
    }
    return g, half


def local_fermion_factor(spin: str, kind: str) -> np.ndarray:
    """The site-local 4x4 ladder factor (1/2)(G_{2v-1} +- i G_{2v})."""
    _, half = _local_operators()
    try:
        return half[(spin, kind)].copy()
    except KeyError:
        raise ValueError(f"spin must be up/down and kind create/annihilate, got ({spin!r}, {kind!r})")


@dataclass(frozen=True)
class MappedOperator:
    site: int
    spin: str
    kind: str
    matrix: np.ndarray


def map_fermion(site: int, spin: str, kind: str, site_count: int) -> MappedOperator:
    """Dense register image of one fermionic ladder operator."""
    if not 1 <= site <= site_count:
        raise SiteOutOfRange(f"site {site} outside 1..{site_count}")
    dense_dim(site_count)
    g, _ = _local_operators()
    local = local_fermion_factor(spin, kind)
    factors = [g.tilde] * (site - 1) + [local] + [np.eye(DIM)] * (site_count - site)
    return MappedOperator(site, spin, kind, kron_all(factors))


def mapped_number_operator(site: int, spin: str, site_count: int) -> np.ndarray:
    cdag = map_fermion(site, spin, "create", site_count).matrix
    c = map_fermion(site, spin, "annihilate", site_count).matrix
    return cdag @ c


@lru_cache(maxsize=None)
def level_occupations() -> tuple:
    """Per-level (n_up, n_dn) read off the single-site number operators."""
    n_up = np.real(np.diag(mapped_number_operator(1, SPIN_UP, 1)))
    n_dn = np.real(np.diag(mapped_number_operator(1, SPIN_DOWN, 1)))
    return tuple((int(round(u)), int(round(d))) for u, d in zip(n_up, n_dn))


_OCC_TO_TOKEN = {(0, 0): "0", (1, 0): "u", (0, 1): "d", (1, 1): "ud"}


def map_ququart_level(level: int) -> str:
    """Fock label ('0', 'u', 'd', 'ud') encoded by a qudit level."""
    if not 0 <= level <= 3:
        raise SiteOutOfRange(f"level {level} outside 0..3")
    return _OCC_TO_TOKEN[level_occupations()[level]]


@lru_cache(maxsize=None)
def level_for_token() -> dict:
    return {map_ququart_level(lvl): lvl for lvl in range(DIM)}


def parse_init_tokens(text: str) -> tuple:
    tokens = tuple(t.strip() for t in text.split(","))
    for t in tokens:
        if t not in TOKENS:
            raise ValueError(f"unknown occupation token {t!r}; use 0/u/d/ud")
    return tokens


def product_state(tokens) -> np.ndarray:
    """Register basis state for per-site occupation tokens."""
    levels = [level_for_token()[t] for t in tokens]
    index = 0
    for lvl in levels:
        index = index * DIM + lvl
    state = np.zeros(DIM ** len(levels), dtype=complex)
    state[index] = 1.0
    return state


@dataclass(frozen=True)
class HoppingTerm:
    """One of the four pieces of a mapped bond, as a tensor-factor string."""

    bond: tuple
    index: int  # 1..4
    left: np.ndarray  # 4x4 factor on the lower site
    right: np.ndarray  # 4x4 factor on the higher site
    string_sites: tuple  # sites strictly between, each carrying Gt
    coefficient: float  # J/2

    def factor_map(self) -> dict:
        g, _ = _local_operators()
        factors = {self.bond[0]: self.left, self.bond[1]: self.right}
        for s in self.string_sites:
            factors[s] = g.tilde
        return factors


@dataclass(frozen=True)
class MappedHamiltonian:
    geometry: LatticeGeometry
    J: float
    v: float
    hop_terms: tuple  # per bond: tuple of 4 HoppingTerm
    int_terms: tuple  # per site: local 4x4 (prefactor and v included)
    int_prefactor: float


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
    g, _ = _local_operators()
    g1, g2, g3, g4 = (g.gamma(i) for i in range(1, 5))
    return {
        1: (-1j * g2 @ g.tilde, g1),
        2: (1j * g1 @ g.tilde, g2),
        3: (-1j * g4 @ g.tilde, g3),
        4: (1j * g3 @ g.tilde, g4),
    }


def interaction_bracket() -> np.ndarray:
    g, _ = _local_operators()
    return (
        np.eye(DIM)
        - 1j * g.gamma(1) @ g.gamma(2)
        - 1j * g.gamma(3) @ g.gamma(4)
        + g.tilde
    )


def build_mapped_hamiltonian(geometry: LatticeGeometry, J: float, v: float) -> MappedHamiltonian:
    factors = hopping_local_factors()
    prefactor = resolve_int_prefactor()
    hop_terms = []
    for bond in geometry.bonds:
        a, b = bond
        string_sites = tuple(range(a + 1, b))
        terms = tuple(
            HoppingTerm(bond, i, factors[i][0], factors[i][1], string_sites, J / 2.0)
            for i in range(1, 5)
        )
        hop_terms.append(terms)
    int_local = prefactor * v * interaction_bracket()
    int_terms = tuple(int_local.copy() for _ in range(geometry.site_count))
    return MappedHamiltonian(geometry, J, v, tuple(hop_terms), int_terms, prefactor)


def embed_factors(factor_map: dict, site_count: int) -> np.ndarray:
    """Dense register operator from a {site: 4x4} factor map."""
    factors = [factor_map.get(s, np.eye(DIM)) for s in range(1, site_count + 1)]
    return kron_all(factors)


def dense_hamiltonian(mh: MappedHamiltonian) -> np.ndarray:
    """Full 4^L matrix of the mapped Hamiltonian (within the dense budget)."""
    L = mh.geometry.site_count
    dim = dense_dim(L)
    h = np.zeros((dim, dim), dtype=complex)
    for terms in mh.hop_terms:
        for term in terms:
            h += term.coefficient * embed_factors(term.factor_map(), L)
    for site, local in enumerate(mh.int_terms, start=1):
        h += embed_factors({site: local}, L)
    return h


# --- serialization ----------------------------------------------------------


def _matrix_to_json(m: np.ndarray):
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def hamiltonian_to_json_dict(mh: MappedHamiltonian) -> dict:
    return {
        "geometry": {
            "kind": mh.geometry.kind,
            "sites": mh.geometry.site_count,
            "bonds": [list(b) for b in mh.geometry.bonds],
            "label": mh.geometry.label,
        },
        "J": mh.J,
        "v": mh.v,
        "int_prefactor": mh.int_prefactor,
        "hop_terms": [
            {
                "bond": list(terms[0].bond),
                "terms": [
                    {
                        "index": t.index,
                        "coefficient": t.coefficient,
                        "left": _matrix_to_json(t.left),
                        "right": _matrix_to_json(t.right),
                        "string_sites": list(t.string_sites),
                    }
                    for t in terms
                ],
            }
            for terms in mh.hop_terms
        ],
        "int_terms": [_matrix_to_json(m) for m in mh.int_terms],
    }


def hamiltonian_from_json_dict(doc: dict) -> MappedHamiltonian:
    geo = doc["geometry"]
    bonds = tuple(tuple(b) for b in geo["bonds"])
    geometry = LatticeGeometry(geo["kind"], geo["sites"], bonds, geo["label"])
    hop_terms = tuple(
        tuple(
            HoppingTerm(
                tuple(entry["bond"]),
                t["index"],
                _matrix_from_json(t["left"]),
                _matrix_from_json(t["right"]),
                tuple(t["string_sites"]),
                t["coefficient"],
            )
            for t in entry["terms"]
        )
        for entry in doc["hop_terms"]
    )
    int_terms = tuple(_matrix_from_json(m) for m in doc["int_terms"])
    return MappedHamiltonian(
        geometry, doc["J"], doc["v"], hop_terms, int_terms, doc["int_prefactor"]
    )


def save_hamiltonian(mh: MappedHamiltonian, path) -> None:
    with open(path, "w") as fh:
        json.dump(hamiltonian_to_json_dict(mh), fh)


def load_hamiltonian(path) -> MappedHamiltonian:
    with open(path) as fh:
        return hamiltonian_from_json_dict(json.load(fh))
