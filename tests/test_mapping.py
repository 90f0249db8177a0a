import dataclasses
import functools
import hashlib
import itertools
import json

import numpy as np
import pytest
import scipy.sparse

from ququart_hubbard import mapping, oracle
from ququart_hubbard.errors import SiteOutOfRange, UnsupportedLattice
from ququart_hubbard.gamma import G1, G2, GT


# --- dense Kronecker reference ----------------------------------------------
# The construction dense_hamiltonian used before it scattered its terms:
# every term as a dense Kronecker product of its 4x4 factors, summed in
# complex arithmetic.


def embed(factor_map, site_count):
    factors = [factor_map.get(s, np.eye(4)) for s in range(1, site_count + 1)]
    return functools.reduce(np.kron, factors)


def kron_all_hamiltonian(mh):
    L = mh.geometry.site_count
    h = np.zeros((4**L, 4**L), dtype=complex)
    for coefficient, factors in mh.terms():
        h += coefficient * embed(factors, L)
    return h


# --- geometry ---------------------------------------------------------------


def test_chain_bonds():
    geom = mapping.chain(4)
    assert geom.bonds == ((1, 2), (2, 3), (3, 4))
    assert geom.site_count == 4


def test_ladder_bond_inventory():
    geom = mapping.ladder(2, 4)
    assert geom.site_count == 8
    assert len(geom.bonds) == 10  # 2*(N-1) horizontal + N rungs
    horizontal = ((1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8))
    rungs = ((1, 5), (2, 6), (3, 7), (4, 8))
    assert geom.bonds == horizontal + rungs


def test_ladder_2x2():
    assert mapping.ladder(2, 2).bonds == ((1, 2), (3, 4), (1, 3), (2, 4))


def test_parse_geometry_tokens():
    assert mapping.parse_geometry("chain:3").label == "chain(3)"
    assert mapping.parse_geometry("ladder:2x4").label == "ladder(2,4)"
    assert mapping.parse_geometry("1x8").label == "chain(8)"
    assert mapping.parse_geometry("2x4").label == "ladder(2,4)"
    with pytest.raises(UnsupportedLattice):
        mapping.parse_geometry("3x3")
    for token in ("1x8x2", "ladder:2x4x1", "chain:", "ladder:2", "1xq", "x", ":1x8", "ring:4"):
        with pytest.raises(UnsupportedLattice) as refused:
            mapping.parse_geometry(token)
        assert str(refused.value) == (f"cannot parse geometry {token!r}; "
                                      "use chain:L, ladder:2xN, 1xL or 2xN")


# --- mapped ladder operators ------------------------------------------------


def test_single_site_annihilator_structure():
    # (1/2)(G1 - i G2) moves the first internal two-level factor: |0b> -> |1b>
    op = mapping.map_fermion(1, "up", "annihilate", 1)
    expected = 0.5 * (G1 - 1j * G2)
    assert np.array_equal(op, expected)
    nonzero = {(r, c) for r, c in zip(*np.nonzero(op))}
    assert nonzero == {(2, 0), (3, 1)}


def test_site_out_of_range():
    with pytest.raises(SiteOutOfRange):
        mapping.map_fermion(3, "up", "create", 2)
    for site in (0, 3):
        with pytest.raises(SiteOutOfRange):
            mapping.fermion_index_map(np.arange(16), site, "up", "create", 2)


def kron_fermion(site, spin, kind, site_count):
    """c or c^dag as a Kronecker string: Gt on each site before `site`,
    the local ladder factor on `site`, identities after it."""
    factors = ([GT] * (site - 1) + [mapping.local_fermion_factor(spin, kind)]
               + [np.eye(4)] * (site_count - site))
    return functools.reduce(np.kron, factors)


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_fermion_operators_equal_kronecker_strings(L):
    for site in range(1, L + 1):
        for spin in mapping.SPINS:
            for kind in ("annihilate", "create"):
                dense = mapping.map_fermion(site, spin, kind, L)
                assert type(dense) is np.ndarray and dense.dtype == complex
                assert np.array_equal(dense, kron_fermion(site, spin, kind, L))


def number_operator(site, spin, site_count):
    """N = c^dag c as the product of the two dense images."""
    return (mapping.map_fermion(site, spin, "create", site_count)
            @ mapping.map_fermion(site, spin, "annihilate", site_count))


def test_number_operators_commute():
    L = 3
    numbers = [
        number_operator(m, s, L)
        for m in range(1, L + 1)
        for s in mapping.SPINS
    ]
    for a in numbers:
        for b in numbers:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12


# --- level labels -----------------------------------------------------------


def test_level_labels_bijective():
    assert sorted(mapping.token_levels(mapping.TOKENS)) == [0, 1, 2, 3]


def test_level_labels_from_number_operators():
    # derived from the diagonal of the mapped number operators at one site
    assert mapping.token_levels(("ud", "u", "d", "0")) == [0, 1, 2, 3]


def test_product_state_is_number_eigenstate():
    state = mapping.product_state(("u", "d"))
    n_up_1 = number_operator(1, "up", 2)
    n_dn_2 = number_operator(2, "down", 2)
    assert abs(np.vdot(state, n_up_1 @ state) - 1.0) < 1e-14
    assert abs(np.vdot(state, n_dn_2 @ state) - 1.0) < 1e-14


# --- interaction term -------------------------------------------------------


def test_interaction_bracket_is_doublon_projector():
    assert np.allclose(mapping.interaction_bracket(), np.diag([4, 0, 0, 0]), atol=0)


def test_int_prefactor_resolved_to_quarter():
    assert mapping.resolve_int_prefactor() == 0.25


def test_mapped_hamiltonian_has_no_settable_prefactor():
    # the one correct prefactor is resolved, never passed
    assert [f.name for f in dataclasses.fields(mapping.MappedHamiltonian)] == ["geometry", "J", "v"]
    with pytest.raises(TypeError):
        mapping.MappedHamiltonian(mapping.chain(2), 1.0, 2.0, 0.3)


def test_int_term_matches_number_product():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(1), 1.0, 3.0)
    n_product = number_operator(1, "up", 1) @ number_operator(1, "down", 1)
    [(coefficient, factors)] = mh.terms()
    assert list(factors) == [1]
    assert np.max(np.abs(coefficient * factors[1] - 3.0 * n_product)) < 1e-14


# --- assembled Hamiltonian --------------------------------------------------


def test_zero_couplings_give_zero_hamiltonian():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(2), 0.0, 0.0)
    assert np.max(np.abs(mapping.dense_hamiltonian(mh))) == 0.0


def bond_terms(mh):
    """The terms of each bond, keyed by bond: the first four per bond."""
    terms = list(mh.terms())
    return {bond: terms[4 * k:4 * k + 4] for k, bond in enumerate(mh.geometry.bonds)}


def test_terms_are_four_per_bond_then_one_per_site():
    mh = mapping.build_mapped_hamiltonian(mapping.ladder(2, 3), 1.3, 0.7)
    terms = list(mh.terms())
    assert len(terms) == 4 * len(mh.geometry.bonds) + mh.geometry.site_count
    for (a, b), pieces in bond_terms(mh).items():
        for (coefficient, factors), (left, right) in zip(
                pieces, mapping.hopping_local_factors().values(), strict=True):
            assert coefficient == 1.3 / 2.0
            assert np.array_equal(factors[a], left) and np.array_equal(factors[b], right)


def test_hop_terms_hermitian():
    mh = mapping.build_mapped_hamiltonian(mapping.ladder(2, 2), 1.3, 0.7)
    for pieces in bond_terms(mh).values():
        for _, factors in pieces:
            dense = embed(factors, 4)
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


def test_interaction_terms_local():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(3), 1.0, 2.0)
    onsite = list(mh.terms())[4 * len(mh.geometry.bonds):]
    for site, (coefficient, factors) in enumerate(onsite, start=1):
        assert list(factors) == [site]
        local = factors[site]
        assert local.shape == (4, 4)
        p = mapping.resolve_int_prefactor()
        assert np.array_equal(coefficient * local, p * mh.v * mapping.interaction_bracket())
        embedded = embed(factors, 3)
        assert np.array_equal(embedded, functools.reduce(
            np.kron, [local if s == site else np.eye(4) for s in (1, 2, 3)]))


def test_rung_bonds_carry_string():
    mh = mapping.build_mapped_hamiltonian(mapping.ladder(2, 3), 1.0, 0.0)
    by_bond = bond_terms(mh)
    for _, factors in by_bond[(1, 4)]:
        assert sorted(factors) == [1, 2, 3, 4]
        assert all(np.array_equal(factors[s], GT) for s in (2, 3))
    for _, factors in by_bond[(1, 2)]:
        assert sorted(factors) == [1, 2]


@pytest.mark.parametrize("geom", [mapping.chain(2), mapping.chain(3), mapping.ladder(2, 2)])
@pytest.mark.parametrize("J,v", [(1.0, 0.0), (1.0, 2.0), (0.0, 3.0), (1.0, 8.0)])
def test_spectrum_matches_occupation_reference(geom, J, v):
    mapped = mapping.dense_hamiltonian(mapping.build_mapped_hamiltonian(geom, J, v))
    exact = oracle.fermionic_hamiltonian(geom, J, v)
    gap = np.max(np.abs(np.linalg.eigvalsh(mapped) - np.linalg.eigvalsh(exact)))
    assert gap < 1e-10


@pytest.mark.parametrize("geom", [mapping.chain(1), mapping.chain(2), mapping.chain(4),
                                  mapping.ladder(2, 2)], ids=lambda g: g.label)
@pytest.mark.parametrize("J,v", [(1.0, 0.0), (1.0, 2.0), (0.0, 3.0), (1.0, 8.0), (0.7, -3.1)])
def test_dense_hamiltonian_is_real_and_equals_kron_reference(geom, J, v):
    mh = mapping.build_mapped_hamiltonian(geom, J, v)
    dense = mapping.dense_hamiltonian(mh)
    assert dense.dtype == np.float64
    assert np.array_equal(dense, kron_all_hamiltonian(mh))


def plant_bracket(monkeypatch, bracket):
    # resolve_int_prefactor caches its check of the true bracket first, so
    # only the on-site terms read the plant, whichever test runs first
    mapping.resolve_int_prefactor()
    monkeypatch.setattr(mapping, "interaction_bracket", lambda: bracket)


def test_dense_hamiltonian_refuses_a_complex_term(monkeypatch):
    mh = mapping.build_mapped_hamiltonian(mapping.chain(2), 1.0, 2.0)
    tilted = mapping.interaction_bracket()  # Hermitian, but with imaginary entries
    tilted[1, 2], tilted[2, 1] = 0.5j, -0.5j  # columns 1 and 2 of the bracket are zero
    plant_bracket(monkeypatch, tilted)
    with pytest.raises(ArithmeticError, match="not real"):
        mapping.dense_hamiltonian(mh)


def test_a_factor_column_with_two_nonzeros_is_refused(monkeypatch):
    # the index map once kept the column's first nonzero and dropped the
    # second: max |image - np.kron| = 1.0 on chain(2), with no error
    factor = np.eye(4)
    factor[1, 0] = 1.0
    with pytest.raises(ValueError, match="more than one nonzero"):
        mapping.kron_index_map(np.arange(16), {1: factor}, 2)
    doubled = mapping.interaction_bracket()
    doubled[1, 0] = 1.0  # below the bracket's 4
    plant_bracket(monkeypatch, doubled)
    with pytest.raises(ValueError, match="more than one nonzero"):
        mapping.dense_hamiltonian(mapping.build_mapped_hamiltonian(mapping.chain(2), 1.0, 2.0))


def test_mapped_hamiltonian_hermitian():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(3), 1.0, 2.0)
    dense = mapping.dense_hamiltonian(mh)
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


# --- sectors ----------------------------------------------------------------


def site_levels(site_count):
    """(4^L, L): the level of each site in each register index, first site major."""
    return np.arange(4**site_count)[:, None] // 4 ** np.arange(site_count - 1, -1, -1) % 4


def register_block(sites, block, site_count):
    """The block embedded in the register by index arithmetic: entry (a, b)
    is block[a's levels on `sites`, b's] where a and b agree off `sites`."""
    levels = site_levels(site_count)
    local = levels[:, list(sites)] @ 4 ** np.arange(len(sites) - 1, -1, -1)
    rest = np.delete(levels, sites, axis=1)
    agree = np.all(rest[:, None] == rest[None, :], axis=-1)
    return np.where(agree, block[local[:, None], local[None, :]], 0)


def off_charge_pattern(k):
    charge = np.array(mapping.level_occupations())[site_levels(k)].sum(axis=1)
    return np.any(charge[:, None] != charge[None, :], axis=-1)


@pytest.mark.parametrize("sites", [(0,), (2,), (0, 1), (1, 2), (0, 2)])
def test_sector_gather_scatters_back_to_the_register_block(sites):
    # every sector of L = 3: the gathered entries, scattered to an n x n
    # matrix, are exactly the block embedded in the register on the basis
    rng = np.random.default_rng(3)
    d = 4 ** len(sites)
    stack = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    stack[:, off_charge_pattern(len(sites))] = 0.0
    for n_up, n_dn in itertools.product(range(4), repeat=2):
        sector = mapping.sector(3, n_up, n_dn)
        n = len(sector.basis)
        partners, entries, leak = sector.gather(sites, stack)
        assert leak == 0.0 and entries.shape == (2, 1, n, 4)
        for block, e in zip(stack, entries):
            scattered = np.zeros((n, n), dtype=complex)
            np.add.at(scattered, (np.arange(n)[:, None], partners), e[0])
            expected = register_block(sites, block, 3)[np.ix_(sector.basis, sector.basis)]
            assert np.array_equal(scattered, expected)
        assert sector.gather(sites, stack)[0] is partners  # the index tables are kept
    planted = stack.copy()
    q, r = np.argwhere(off_charge_pattern(len(sites)))[-1]
    planted[1, q, r] = 0.25 - 0.5j
    assert mapping.sector(3, 1, 2).gather(sites, planted)[2] == abs(0.25 - 0.5j)


@pytest.mark.parametrize("L", range(1, 7))
def test_sector_basis_is_the_label_class_of_its_counts(L):
    # out-of-range counts have an empty basis even where a label
    # N_up (L + 1) + N_dn would alias an in-range one: for L = 2, (-1, 3)
    # and (0, 0) both have label 0
    charges, covered = mapping.charges(L), []
    for n_up, n_dn in itertools.product(range(-1, L + 2), repeat=2):
        basis = mapping.Sector(L, n_up, n_dn).basis
        if 0 <= n_up <= L and 0 <= n_dn <= L:
            assert np.all(charges[basis] == (n_up, n_dn)) and np.all(np.diff(basis) > 0)
            covered.append(basis)
        else:
            assert basis.size == 0
    assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(4**L))


# --- serialization ----------------------------------------------------------


def saved_document(mh, tmp_path):
    path = tmp_path / "hamiltonian.json"
    mapping.save_hamiltonian(mh, path)
    return path


def json_matrix(data):
    data = np.array(data)
    return data[..., 0] + 1j * data[..., 1]


def test_hamiltonian_json_round_trip(tmp_path):
    mh = mapping.build_mapped_hamiltonian(mapping.ladder(2, 2), 1.5, 2.5)
    doc = json.loads(saved_document(mh, tmp_path).read_text())
    assert doc["geometry"] == {"kind": "ladder", "sites": 4, "bonds": [[1, 2], [3, 4], [1, 3], [2, 4]],
                               "label": "ladder(2,2)"}
    assert (doc["J"], doc["v"], doc["int_prefactor"]) == (mh.J, mh.v, 0.25)
    for saved, (coefficient, factors) in zip(doc["terms"], mh.terms(), strict=True):
        assert saved["coefficient"] == coefficient
        assert list(saved["factors"]) == [str(site) for site in factors]
        for site, factor in factors.items():
            assert np.array_equal(json_matrix(saved["factors"][str(site)]), factor)


def rebuild_from_document(path):
    """H from the saved document alone: the sum over terms of coefficient
    times the sparse Kronecker product of the factors, identity elsewhere."""
    doc = json.loads(path.read_text())
    L = doc["geometry"]["sites"]
    h = scipy.sparse.csr_array((4**L, 4**L), dtype=complex)
    for term in doc["terms"]:
        product = scipy.sparse.identity(1, dtype=complex, format="csr")
        for site in range(1, L + 1):
            factor = term["factors"].get(str(site))
            local = np.eye(4) if factor is None else json_matrix(factor)
            product = scipy.sparse.kron(product, scipy.sparse.csr_array(local), format="csr")
        h = h + term["coefficient"] * product
    return h.tocoo()


@pytest.mark.parametrize("geom", [mapping.chain(3), mapping.ladder(2, 3)], ids=lambda g: g.label)
def test_saved_document_rebuilds_the_dense_hamiltonian(tmp_path, geom):
    mh = mapping.build_mapped_hamiltonian(geom, 1.0, 2.0)
    rebuilt = rebuild_from_document(saved_document(mh, tmp_path))
    dense = mapping.dense_hamiltonian(mh)
    assert not np.any(rebuilt.data.imag)
    # equal at every stored entry, and no nonzero of dense elsewhere
    assert np.array_equal(dense[rebuilt.row, rebuilt.col], rebuilt.data.real)
    assert np.count_nonzero(dense) == np.count_nonzero(rebuilt.data)


# sha256 of the `map` document at J = 1, v = 2
HAMILTONIAN_FILE_DIGESTS = {
    "chain:3": "3e4e4a15ef775c85b82cf2a41b150fcd1ad40086d01b4c1460fd4e8d5bf1986b",
    "ladder:2x3": "189762b2d17c9cc5e9757eaaf03f0e06a9b6d8109fffe568ac160ef378c79cc0",
}


@pytest.mark.parametrize("geometry", sorted(HAMILTONIAN_FILE_DIGESTS))
def test_saved_hamiltonian_bytes_are_pinned(tmp_path, geometry):
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry(geometry), 1.0, 2.0)
    data = saved_document(mh, tmp_path).read_bytes()
    assert hashlib.sha256(data).hexdigest() == HAMILTONIAN_FILE_DIGESTS[geometry]
    assert data == json.dumps(json.loads(data)).encode()  # compact, one line


def test_init_token_parsing():
    assert mapping.token_levels(("u", "ud", "0", "d")) == [1, 0, 3, 2]
    for token in ("x", " u", "U", "du", ""):
        with pytest.raises(ValueError, match="unknown occupation token"):
            mapping.token_levels(("u", token))
