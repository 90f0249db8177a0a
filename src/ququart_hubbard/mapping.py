"""Fermion-to-ququart encoding and the mapped Hubbard Hamiltonian.

One spinful lattice site (four Fock states) maps onto one four-level
qudit. Creation/annihilation operators become strings of the fifth
Clifford element Gt on all preceding sites times a local ladder factor,

    c       =  (Gt (x) ... (x) Gt) (x) (1/2)(G_{2v-1} -+ i G_{2v}) (x) I ...
     m,v

with spin up using the (G1, G2) pair and spin down the (G3, G4) pair.
Anticommutation of the Gt string with every local factor reproduces the
fermionic algebra exactly. c and each term of H are Kronecker strings of
factors with one nonzero per column, so signed index maps of register basis
states (``kron_index_map``): ``fermion_index_map`` and ``dense_hamiltonian``.
``Sector.fermion`` reads c on a sector, ``map_fermion`` scatters it into a
dense image, and the acceptance checks compose it: pairwise, and along each
Fock state's creation string.
``charges`` is the one table of each register state's (N_up, N_dn): a
``Sector``'s basis and the charge classes of ``Sector.gather`` read it.
``token_levels`` is the one reader of occupation tokens, each level's
token spelled from its (n_up, n_dn), and ``token_state`` turns tokens into
a start: its sector and its amplitudes there.

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
from typing import NamedTuple

import numpy as np

from .errors import SiteOutOfRange, UnsupportedLattice
from .gamma import DIM, G1, G2, G3, G4, GT
from .linalg import dense_dim

SPIN_UP = "up"
SPIN_DOWN = "down"
SPINS = (SPIN_UP, SPIN_DOWN)

# the occupation tokens of initial states, one per level (`token_levels`)
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
    """Parse 'chain:L', 'ladder:2xN', or shorthand '1xL' / '2xN'; any other
    token raises UnsupportedLattice naming it and these forms."""
    kind, colon, size = token.strip().lower().rpartition(":")
    try:
        numbers = [int(part) for part in size.split("x")]
    except ValueError:
        numbers = []
    if kind == "chain" and len(numbers) == 1:
        return chain(numbers[0])
    if len(numbers) == 2 and (kind == "ladder" or not colon):
        rows, cols = numbers
        return chain(cols) if rows == 1 and not colon else ladder(rows, cols)
    raise UnsupportedLattice(f"cannot parse geometry {token!r}; use chain:L, ladder:2xN, "
                             "1xL or 2xN")


_LADDER_FACTORS = {(spin, kind): 0.5 * (a + sign * b)
                   for spin, (a, b) in ((SPIN_UP, (G1, G2)), (SPIN_DOWN, (G3, G4)))
                   for kind, sign in (("annihilate", -1j), ("create", 1j))}


def local_fermion_factor(spin: str, kind: str) -> np.ndarray:
    """A copy of the site-local 4x4 ladder factor (1/2)(G_{2v-1} +- i G_{2v})."""
    try:
        return _LADDER_FACTORS[(spin, kind)].copy()
    except KeyError:
        raise ValueError(f"spin must be up/down and kind create/annihilate, got ({spin!r}, {kind!r})")


@lru_cache(maxsize=64)
def _column_map(factor: bytes) -> tuple:
    """(nonzero row - column, its entry) per column of the 4x4 complex factor
    with these bytes; ValueError for a column with two nonzeros or more."""
    factor = np.frombuffer(factor, dtype=complex).reshape(DIM, DIM)
    if np.any(np.count_nonzero(factor, axis=0) > 1):
        raise ValueError("a Kronecker factor has a column with more than one nonzero entry")
    row = np.argmax(factor != 0, axis=0)
    return row - np.arange(DIM), factor[row, np.arange(DIM)]


def kron_index_map(indices: np.ndarray, factors: dict, site_count: int) -> tuple:
    """The Kronecker string of 4x4 `factors` {1-based site: factor}, identity
    elsewhere, each with at most one nonzero per column (else ValueError), on
    register basis states `indices` as (dest, coefficient): |idx> ->
    coefficient |dest>, the factors' entries multiplied in dict order (0 on a
    zero column)."""
    dest, coefficient = indices, None
    for site, factor in factors.items():
        shift, entry = _column_map(np.asarray(factor, dtype=complex).tobytes())
        level = indices // DIM ** (site_count - site) % DIM
        coefficient = entry[level] if coefficient is None else coefficient * entry[level]
        dest = dest + shift[level] * DIM ** (site_count - site)
    return dest, coefficient


def fermion_index_map(indices: np.ndarray, site: int, spin: str, kind: str,
                      site_count: int) -> tuple:
    """c ("annihilate") or c^dag ("create") at 1-based `site` on register
    basis states `indices` as `kron_index_map`'s (dest, coefficient): the
    local factor, first so that a zero keeps its sign, and Gt on each site before."""
    if not 1 <= site <= site_count:
        raise SiteOutOfRange(f"site {site} outside 1..{site_count}")
    return kron_index_map(indices, {site: local_fermion_factor(spin, kind),
                                    **dict.fromkeys(range(1, site), GT)}, site_count)


def map_fermion(site: int, spin: str, kind: str, site_count: int) -> np.ndarray:
    """Dense image of `fermion_index_map` on every basis state (within the dense budget)."""
    columns = np.arange(dense_dim(site_count))
    dest, coefficient = fermion_index_map(columns, site, spin, kind, site_count)
    image = np.zeros((len(columns), len(columns)), dtype=complex)
    image[dest, columns] = coefficient
    return image


def _site_number(spin: str) -> np.ndarray:
    """N_spin = c^dag c of a one-site register, where c is its local factor."""
    return local_fermion_factor(spin, "create") @ local_fermion_factor(spin, "annihilate")


# this module's cached tables build on first call: built at import, they raise every run's peak RSS
@lru_cache(maxsize=None)
def level_occupations() -> tuple:
    """Per-level (n_up, n_dn) read off the single-site number operators."""
    n_up, n_dn = (np.real(np.diag(_site_number(spin))) for spin in SPINS)
    return tuple((int(round(u)), int(round(d))) for u, d in zip(n_up, n_dn))


def charges(site_count: int) -> np.ndarray:
    """(4^L, 2): (N_up, N_dn) of every register basis state (first site's
    level most significant), summed from the per-level occupations;
    ``charges(1)`` is the per-level table itself."""
    charge = np.zeros((1, 2), dtype=int)
    for _ in range(site_count):
        charge = (charge[:, None] + np.array(level_occupations())).reshape(-1, 2)
    return charge


class SectorFermion(NamedTuple):
    """A mapped c or c^dag between two sectors as a signed index map: the
    amplitude at `source` position k moves to `dest` position k of the
    target sector, times `coefficient` k."""

    target: "Sector"
    source: np.ndarray
    dest: np.ndarray
    coefficient: np.ndarray

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """The map on the last axis of (..., n) sector amplitudes."""
        out = np.zeros((*states.shape[:-1], len(self.target.basis)), dtype=complex)
        out[..., self.dest] = states[..., self.source] * self.coefficient
        return out


@lru_cache(maxsize=None)
def _charge_classes(k: int) -> tuple:
    """For the 4^k local states of k sites (first site's level major): the
    (4^k, 4) table of the states of each state's (N_up, N_dn), padded with
    the state itself, its 0/1 mask of the padding, and the (4^k, 4^k) bool
    pattern of the entries between different charges."""
    charge = charges(k)
    same = np.all(charge[:, None] == charge[None, :], axis=-1)
    cols = np.repeat(np.arange(len(same))[:, None], 4, axis=1)
    mask = np.zeros(cols.shape)
    for q, row in enumerate(same):
        members = np.flatnonzero(row)
        cols[q, :len(members)], mask[q, :len(members)] = members, 1.0
    return cols, mask, ~same


class Sector:
    """The register basis states with N_up up and N_dn down particles, as
    their sorted register indices `basis` (the rows of `charges` equal to
    the counts; none for counts out of range): the basis of a state vector
    that keeps only these amplitudes. Positions on it are found only here
    and in `token_state`: `gather` and `fermion`."""

    def __init__(self, site_count: int, n_up: int, n_dn: int):
        self.site_count, self.counts = site_count, (n_up, n_dn)
        self.basis = np.flatnonzero(np.all(charges(site_count) == (n_up, n_dn), axis=1))
        self._tables = {}  # sites -> (partners, entries, mask) of `gather`

    def _levels(self, site: int) -> np.ndarray:
        """Level of 0-based register `site` in each basis state."""
        return self.basis // DIM ** (self.site_count - 1 - site) % DIM

    def occupations(self) -> np.ndarray:
        """(n, L, 2): (n_up, n_dn) of each site in each basis state."""
        levels = np.column_stack([self._levels(s) for s in range(self.site_count)])
        return charges(1)[levels]

    def gather(self, sites: tuple, stack: np.ndarray) -> tuple:
        """(partners, entries, leak) of a (T, d, d) block stack on 0-based
        ascending `sites`. Row p of `partners` lists the <= 4 basis
        positions with the same levels off those sites as position p, which
        in one sector means the same charge on them too, padded with p
        itself; `entries` holds the (T, 1, n, 4) block entries each partner
        needs, per run, 0 on the padding; `leak` is the largest entry
        between local states of different charge. The index tables are
        built per `sites` on first use and kept."""
        cols, mask, off_charge = _charge_classes(len(sites))
        if sites not in self._tables:
            local = np.zeros(len(self.basis), dtype=np.intp)
            rest = self.basis.copy()
            for s in sites:
                level = self._levels(s)
                local = local * DIM + level
                rest -= level * DIM ** (self.site_count - 1 - s)
            cols, mask = cols[local], mask[local]
            partners = rest[:, None]
            for k, s in enumerate(sites):
                digit = cols // DIM ** (len(sites) - 1 - k) % DIM
                partners = partners + digit * DIM ** (self.site_count - 1 - s)
            self._tables[sites] = (np.searchsorted(self.basis, partners),
                                   local[:, None] * len(off_charge) + cols, mask)
        partners, entries, mask = self._tables[sites]
        leak = float(np.max(np.abs(stack[..., off_charge]), initial=0.0))
        return partners, stack.reshape(len(stack), 1, -1)[..., entries] * mask, leak

    def fermion(self, site: int, spin: str, kind: str) -> SectorFermion:
        """c ("annihilate") or c^dag ("create") at 1-based `site` into its
        target sector: the basis states' `fermion_index_map` where nonzero."""
        dest, coefficient = fermion_index_map(self.basis, site, spin, kind, self.site_count)
        source = np.flatnonzero(coefficient)
        rows, cols = np.nonzero(local_fermion_factor(spin, kind))
        occ = charges(1)
        n_up, n_dn = np.array(self.counts) + occ[rows[0]] - occ[cols[0]]
        target = sector(self.site_count, int(n_up), int(n_dn))
        return SectorFermion(target, source, np.searchsorted(target.basis, dest[source]),
                             coefficient[source])


@lru_cache(maxsize=16)
def sector(site_count: int, n_up: int, n_dn: int) -> Sector:
    """The kept `Sector` of these counts, so its index tables are built once."""
    return Sector(site_count, n_up, n_dn)


def token_state(tokens) -> tuple:
    """(`Sector`, amplitudes) of the product state of occupation `tokens`:
    its sector, and one 1.0 on it at `product_index(tokens)`, without a
    4^L vector."""
    n_up, n_dn = charges(1)[token_levels(tokens)].sum(axis=0)
    start = sector(len(tokens), int(n_up), int(n_dn))
    return start, (start.basis == product_index(tokens)).astype(complex)


def token_levels(tokens) -> list:
    """The qudit level of each occupation token, each level's token spelled
    from its (n_up, n_dn): 'u' per up, 'd' per down, else '0'; ValueError
    for any other token."""
    level = {("u" * n_up + "d" * n_dn) or "0": k
             for k, (n_up, n_dn) in enumerate(level_occupations())}
    for t in tokens:
        if t not in level:
            raise ValueError(f"unknown occupation token {t!r}; use {'/'.join(TOKENS)}")
    return [level[t] for t in tokens]


def product_index(tokens) -> int:
    """Register index of the product state of per-site occupation tokens
    (first site's level most significant)."""
    index = 0
    for level in token_levels(tokens):
        index = index * DIM + level
    return index


def product_state(tokens) -> np.ndarray:
    """Register basis state for per-site occupation tokens."""
    state = np.zeros(DIM ** len(tokens), dtype=complex)
    state[product_index(tokens)] = 1.0
    return state


@dataclass(frozen=True)
class MappedHamiltonian:
    geometry: LatticeGeometry
    J: float
    v: float

    def terms(self):
        """Every term of H as (coefficient, {site: 4x4 factor}), identity on
        the sites not named: per bond in `geometry.bonds` order, its four
        `hopping_local_factors` pieces at J/2 with Gt on the sites strictly
        between its ends; then p v times the interaction bracket per site."""
        for a, b in self.geometry.bonds:
            for left, right in hopping_local_factors().values():
                yield self.J / 2.0, {a: left, **dict.fromkeys(range(a + 1, b), GT), b: right}
        local = resolve_int_prefactor() * self.v * interaction_bracket()
        for site in range(1, self.geometry.site_count + 1):
            yield 1.0, {site: local}


@lru_cache(maxsize=None)
def resolve_int_prefactor() -> float:
    """Prefactor p with N_up N_dn = p (I - i G1 G2 - i G3 G4 + Gt) at one site.

    Computed from the mapped operator product and checked to be exact; the
    typeset constant in front of the bracket is not trusted.
    """
    n_product = _site_number(SPIN_UP) @ _site_number(SPIN_DOWN)
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
    return MappedHamiltonian(geometry, J, v)


def dense_hamiltonian(mh: MappedHamiltonian) -> np.ndarray:
    """Full real (float64) 4^L matrix of the mapped H (within the dense budget),
    each term's `kron_index_map` scattered over every column. ArithmeticError
    if an entry is not real; a NaN passes, for `acceptance.mapping_residual`."""
    L = mh.geometry.site_count
    columns = np.arange(dense_dim(L))
    h = np.zeros((len(columns), len(columns)))
    for coefficient, factors in mh.terms():
        dest, value = kron_index_map(columns, factors, L)
        value = coefficient * value
        if np.any(np.abs(value.imag) > 0.0):
            raise ArithmeticError("mapped Hamiltonian term has entries that are not real")
        h[dest, columns] += value.real  # a term's columns each have one entry
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
        "int_prefactor": resolve_int_prefactor(),
        "terms": [
            {"coefficient": coefficient,
             "factors": {str(site): _matrix_to_json(f) for site, f in factors.items()}}
            for coefficient, factors in mh.terms()
        ],
    }
    # json.dumps without indent takes the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))
