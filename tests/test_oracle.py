import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from ququart_hubbard import mapping, oracle
from ququart_hubbard.errors import (
    DimensionTooLarge, EmptySeries, SectorCoupling, SiteOutOfRange, StateSizeMismatch,
)
from ququart_hubbard.oracle import GreensSeries

# --- Kronecker-string reference -------------------------------------------
# The construction the index maps replaced: c on mode k of n is
# Z^(x)k (x) a (x) I^(x)(n-k-1), with Z = diag(1, -1) the parity of each
# preceding mode and a = |0><1|.

A_LOCAL = np.array([[0, 1], [0, 0]], dtype=complex)
SIGN = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def kron_annihilator(site, spin, site_count):
    mode = oracle.mode_index(site, spin)
    out = np.array([[1.0 + 0j]])
    for f in [SIGN] * mode + [A_LOCAL] + [I2] * (2 * site_count - mode - 1):
        out = np.kron(out, f)
    return out


def kron_operator(site, spin, kind, site_count):
    c = kron_annihilator(site, spin, site_count)
    return c.conj().T.copy() if kind == "create" else c


def kron_hamiltonian(geometry, J, v):
    L = geometry.site_count
    h = np.zeros((4**L, 4**L), dtype=complex)
    for a, b in geometry.bonds:
        for spin in mapping.SPINS:
            hop = kron_operator(a, spin, "create", L) @ kron_operator(b, spin, "annihilate", L)
            h += -J * (hop + hop.conj().T)
    for m in range(1, L + 1):
        n_up = kron_operator(m, "up", "create", L) @ kron_operator(m, "up", "annihilate", L)
        n_dn = kron_operator(m, "down", "create", L) @ kron_operator(m, "down", "annihilate", L)
        h += v * n_up @ n_dn
    return h


def dense_ladder(site, spin, kind, site_count):
    """The signed index map of c or c^dag scattered into a dense matrix."""
    target, sign = oracle._ladder(np.arange(4**site_count), site, spin, kind, site_count)
    out = np.zeros((4**site_count, 4**site_count), dtype=complex)
    out[target, np.arange(4**site_count)] = sign
    return out


def fock_vector(tokens):
    state = np.zeros(4 ** len(tokens), dtype=complex)
    state[oracle.fock_index(tokens)] = 1.0
    return state


REFERENCE_GEOMETRIES = [mapping.chain(1), mapping.chain(2), mapping.chain(3),
                        mapping.chain(4), mapping.ladder(2, 2)]


@pytest.mark.parametrize("geometry", REFERENCE_GEOMETRIES, ids=lambda g: g.label)
def test_operators_equal_kronecker_reference(geometry):
    L = geometry.site_count
    for site in range(1, L + 1):
        for spin in mapping.SPINS:
            n = kron_operator(site, spin, "create", L) @ kron_operator(site, spin, "annihilate", L)
            assert np.array_equal(np.diag(oracle.occupation(site, spin, L)), n)
            for kind in ("annihilate", "create"):
                assert np.array_equal(dense_ladder(site, spin, kind, L),
                                      kron_operator(site, spin, kind, L))


@pytest.mark.parametrize("geometry", REFERENCE_GEOMETRIES, ids=lambda g: g.label)
def test_hamiltonian_equals_kronecker_reference(geometry):
    for J, v in ((1.0, 2.0), (0.7, -3.1), (0.0, 0.1)):
        h = oracle.fermionic_hamiltonian(geometry, J, v)
        assert h.dtype == np.float64
        assert np.array_equal(h, kron_hamiltonian(geometry, J, v))


def test_single_site_spectrum():
    h = oracle.fermionic_hamiltonian(mapping.chain(1), 1.0, 3.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), [0.0, 0.0, 0.0, 3.0])


def test_free_chain_spectrum_from_mode_filling():
    # independent route: v=0 eigenvalues are sums over filled single-particle
    # modes with energies -J, +J per spin on two sites
    J = 1.0
    h = oracle.fermionic_hamiltonian(mapping.chain(2), J, 0.0)
    single = [-J, J, -J, J]  # (up-, up+, down-, down+)
    expected = []
    for r in range(5):
        for combo in combinations(range(4), r):
            expected.append(sum(single[i] for i in combo))
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), np.sort(expected), atol=1e-12)


def test_conserves_particle_numbers():
    geom = mapping.chain(3)
    h = oracle.fermionic_hamiltonian(geom, 1.0, 2.0)
    n_up = np.diag(sum(oracle.occupation(m, "up", 3) for m in range(1, 4)))
    n_dn = np.diag(sum(oracle.occupation(m, "down", 3) for m in range(1, 4)))
    assert np.max(np.abs(h @ n_up - n_up @ h)) < 1e-12
    assert np.max(np.abs(h @ n_dn - n_dn @ h)) < 1e-12


def test_mode_anticommutators():
    L = 2
    eye = np.eye(4**L)
    for s1 in range(1, L + 1):
        for sp1 in mapping.SPINS:
            c = dense_ladder(s1, sp1, "annihilate", L)
            cdag = dense_ladder(s1, sp1, "create", L)
            assert np.array_equal(c @ cdag + cdag @ c, eye)
            assert np.max(np.abs(c @ c)) == 0.0


def test_ladder_on_given_indices_equals_the_full_map():
    L = 3
    subset = np.random.default_rng(2).choice(4**L, size=17, replace=False)
    for site in range(1, L + 1):
        for spin in mapping.SPINS:
            for kind in ("annihilate", "create"):
                target, sign = oracle._ladder(np.arange(4**L), site, spin, kind, L)
                t, s = oracle._ladder(subset, site, spin, kind, L)
                assert np.array_equal(t, target[subset]) and np.array_equal(s, sign[subset])
                for k in subset:
                    assert oracle._ladder(int(k), site, spin, kind, L) == (target[k], sign[k])


def test_initial_state_populations():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    pops = oracle.exact_populations(h, ("u", "d"), [0.0])
    assert pops[(1, "up")][0] == pytest.approx(1.0)
    assert pops[(1, "down")][0] == pytest.approx(0.0)
    assert pops[(2, "down")][0] == pytest.approx(1.0)


def test_population_conservation_over_time():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    pops = oracle.exact_populations(h, ("u", "d"), [0.3, 1.7, 4.2])
    up_total = pops[(1, "up")] + pops[(2, "up")]
    assert np.max(np.abs(up_total - 1.0)) <= 1e-10


def test_populations_bounded():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 8.0)
    p = oracle.exact_populations(h, ("u", "d"), np.linspace(0, 5, 11))[(1, "up")]
    assert np.all(-1e-12 <= p) and np.all(p <= 1 + 1e-12)


def test_propagator_against_pade_expm():
    # independent second propagation route for the four-site reference point
    geom = mapping.chain(4)
    h = oracle.fermionic_hamiltonian(geom, 1.0, 2.0)
    tokens = ("u", "ud", "u", "d")
    psi0 = fock_vector(tokens)
    tau = 2.5
    basis, ours = oracle._sector_evolve(h, oracle.fock_index(tokens), [tau])
    reference = scipy.linalg.expm(-1j * tau * h) @ psi0
    assert np.max(np.abs(ours[:, 0] - reference[basis])) < 1e-10
    assert np.max(np.abs(np.delete(reference, basis))) < 1e-10  # nothing leaves the sector


def test_evolve_grid_matches_expm_with_exact_origin():
    h = oracle.fermionic_hamiltonian(mapping.ladder(2, 2), 1.0, 2.0)
    tokens = ("ud", "u", "0", "d")
    psi0 = fock_vector(tokens)
    times = [0.0, 0.4, 1.3, 0.0, 7.9]
    basis, out = oracle._sector_evolve(h, oracle.fock_index(tokens), times)
    assert out.shape == (len(basis), len(times))
    assert np.array_equal(out[:, 0], psi0[basis]) and np.array_equal(out[:, 3], psi0[basis])
    for k, t in enumerate(times):
        reference = scipy.linalg.expm(-1j * t * h) @ psi0
        assert np.max(np.abs(out[:, k] - reference[basis])) < 1e-10
        assert np.max(np.abs(np.delete(reference, basis))) < 1e-10


# --- sector propagation against the full space ------------------------------
# The full-space formula the sector code replaced: psi0 and c_j psi0 are
# propagated on all 4^L states, by a second route (expm_multiply on the
# sparse H, Al-Mohy & Higham 2011) that needs no eigendecomposition, and c
# is a sparse Kronecker string.


def sparse_annihilator(site, spin, site_count):
    mode = oracle.mode_index(site, spin)
    out = scipy.sparse.identity(1, format="csr")
    for f in [SIGN] * mode + [A_LOCAL] + [I2] * (2 * site_count - mode - 1):
        out = scipy.sparse.kron(out, f, format="csr")
    return out


def full_space_evolve(h, states, times):
    """e^{-i H t} states over a uniform grid starting at 0, indexed [t, ...]."""
    return expm_multiply(-1j * scipy.sparse.csr_array(h), states, start=0.0, stop=times[-1],
                         num=len(times), endpoint=True)


def full_space_lesser_gfs(h, tokens, components, times):
    """{(i, j, spin): i <U(t) c_j psi0 | c_i U(t) psi0>}, with psi0 and every
    c_j psi0 propagated as one batch."""
    L = len(tokens)
    psi0 = fock_vector(tokens)
    sources = [psi0] + [sparse_annihilator(j, spin, L) @ psi0 for _, j, spin in components]
    evolved = full_space_evolve(h, np.column_stack(sources), times)  # (T, 4^L, 1 + k)
    out = {}
    for k, (i, j, spin) in enumerate(components, start=1):
        ket = sparse_annihilator(i, spin, L) @ evolved[:, :, 0].T
        out[(i, j, spin)] = 1j * np.sum(evolved[:, :, k].T.conj() * ket, axis=0)
    return out


def full_space_populations(h, tokens, times):
    L = len(tokens)
    probs = np.abs(full_space_evolve(h, fock_vector(tokens), times).T) ** 2
    return {(s, spin): oracle.occupation(s, spin, L) @ probs
            for s in range(1, L + 1) for spin in mapping.SPINS}


# Every geometry has an empty orbital; chain(1) and chain(3) have a spin
# with no particles at all.
SECTOR_CASES = [
    pytest.param(geometry, tokens, id=geometry.label)
    for geometry, tokens in (
        (mapping.chain(1), ("u",)),
        (mapping.chain(2), ("u", "d")),
        (mapping.chain(3), ("u", "0", "u")),
        (mapping.chain(4), ("u", "ud", "u", "d")),
        (mapping.chain(5), ("ud", "0", "u", "d", "u")),
        (mapping.ladder(2, 2), ("ud", "u", "0", "d")),
        (mapping.ladder(2, 3), ("u", "d", "0", "ud", "u", "d")),
    )
]
SECTOR_TIMES = np.linspace(0.0, 4.0, 17)


@pytest.mark.parametrize("geometry,tokens", SECTOR_CASES)
def test_sector_lesser_gf_matches_full_space(geometry, tokens):
    L = geometry.site_count
    h = oracle.fermionic_hamiltonian(geometry, 1.0, 2.0)
    components = {(i, j, spin) for spin in mapping.SPINS
                  for i, j in ((1, 1), (1, L), (L, 1), (L, (L + 1) // 2))}
    components.add((1, 1 + tokens.index("0") if "0" in tokens else 1, "down"))
    components = sorted(components)
    references = full_space_lesser_gfs(h, tokens, components, SECTOR_TIMES)
    for i, j, spin in components:
        ours = oracle.lesser_gf(h, tokens, i, j, spin, SECTOR_TIMES)
        assert np.max(np.abs(ours - references[(i, j, spin)])) <= 1e-12, (i, j, spin)
        occupied = (spin == "up" and "u" in tokens[j - 1]) or (spin == "down" and "d" in tokens[j - 1])
        if not occupied:
            assert np.array_equal(ours, np.zeros(len(SECTOR_TIMES), dtype=complex))
        # the t = 0 sample is exact: i <psi0| c^dag_j c_i |psi0>
        assert ours[0] == (1j if i == j and occupied else 0.0)


@pytest.mark.parametrize("geometry,tokens", SECTOR_CASES)
def test_sector_populations_match_full_space(geometry, tokens):
    h = oracle.fermionic_hamiltonian(geometry, 1.0, 2.0)
    ours = oracle.exact_populations(h, tokens, SECTOR_TIMES)
    reference = full_space_populations(h, tokens, SECTOR_TIMES)
    assert ours.keys() == reference.keys()
    for key in ours:
        assert np.max(np.abs(ours[key] - reference[key])) <= 1e-12, key


def test_sector_basis_holds_the_spin_counts():
    tokens = ("u", "ud", "0", "d")
    h = oracle.fermionic_hamiltonian(mapping.chain(4), 1.0, 2.0)
    basis, _ = oracle._sector_evolve(h, oracle.fock_index(tokens), [0.0])
    assert len(basis) == 6 * 6  # C(4,2) up placements x C(4,2) down placements
    assert np.all(np.diff(basis) > 0)
    for spin, count in (("up", 2), ("down", 2)):
        n = sum(oracle.occupation(s, spin, 4) for s in range(1, 5))
        assert np.all(n[basis] == count)


def test_lesser_gf_equal_time_is_i_times_population():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    g0 = oracle.lesser_gf(h, ("u", "d"), 1, 1, "up", [0.0])[0]
    assert g0 == pytest.approx(1j * 1.0)
    assert abs(g0.real) < 1e-14


def test_lesser_gf_vanishes_for_empty_source():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    # no down spin at site 1 in |u,d>, so the j=1 down component is zero
    g = oracle.lesser_gf(h, ("u", "d"), 2, 1, "down", np.linspace(0, 3, 7))
    assert np.max(np.abs(g)) < 1e-14


@pytest.mark.parametrize("solve", [
    lambda h, tokens: oracle.exact_populations(h, tokens, [1.0]),
    lambda h, tokens: oracle.lesser_gf(h, tokens, 1, 1, "up", [1.0]),
    lambda h, tokens: oracle.fock_index(tokens),
], ids=["exact_populations", "lesser_gf", "fock_index"])
def test_an_unknown_occupation_token_is_refused_by_name(solve):
    # once a bare KeyError: 'x' from the token lookup
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    with pytest.raises(ValueError, match="unknown occupation token 'x'; use 0/u/d/ud"):
        solve(h, ("u", "x"))


@pytest.mark.parametrize("solve", [
    lambda h, tokens: oracle.exact_populations(h, tokens, [1.0]),
    lambda h, tokens: oracle.lesser_gf(h, tokens, 1, 1, "up", [1.0]),
], ids=["exact_populations", "lesser_gf"])
@pytest.mark.parametrize("tokens", [("u", "d"), ("u", "d", "0", "0")])
def test_tokens_for_another_lattice_raise_before_any_eigh(monkeypatch, solve, tokens):
    # with a chain(3) H, chain(2) tokens once picked the sites 2-3 block of
    # H and returned chain(2)'s numbers
    h = oracle.fermionic_hamiltonian(mapping.chain(3), 1.0, 2.0)

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(StateSizeMismatch, match="tokens for a Hamiltonian of dimension 64"):
        solve(h, tokens)


GREENS_FUNCTIONS = {
    "lesser_gf": lambda h, i, j, spin: oracle.lesser_gf(h, ("u", "d"), i, j, spin, [0.0, 1.0]),
    "retarded_gf": lambda h, i, j, spin: oracle.retarded_gf(h, 1.0, i, j, spin, [0.0, 1.0]),
}


@pytest.mark.parametrize("name", sorted(GREENS_FUNCTIONS))
@pytest.mark.parametrize("i, j", [(0, 1), (3, 1), (1, 0), (1, 3)])
def test_greens_functions_refuse_a_site_outside_the_lattice_before_any_eigh(
        monkeypatch, name, i, j):
    # once a zero series, a bare ValueError or an IndexError
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(SiteOutOfRange, match="outside 1..2"):
        GREENS_FUNCTIONS[name](h, i, j, "up")


@pytest.mark.parametrize("site", [0, 3, -1])
@pytest.mark.parametrize("spin", ["up", "down"])
def test_occupation_refuses_a_site_outside_the_lattice(site, spin):
    # sites 0 and L + 1 once read as 4^L zeros
    with pytest.raises(SiteOutOfRange, match="outside 1..2"):
        oracle.occupation(site, spin, 2)


@pytest.mark.parametrize("name", sorted(GREENS_FUNCTIONS))
def test_greens_functions_refuse_a_spin_other_than_up_or_down(name):
    # "sideways" was once read as spin down
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    with pytest.raises(ValueError, match="spin must be up/down"):
        GREENS_FUNCTIONS[name](h, 2, 2, "sideways")


@pytest.mark.parametrize("h", [np.eye(32), np.eye(8), np.eye(1), np.zeros((16, 4))],
                         ids=["32x32", "8x8", "1x1", "16x4"])
def test_retarded_gf_refuses_a_hamiltonian_that_is_not_4_to_the_L_square(monkeypatch, h):
    # np.eye(32) once ran its full eigh, then raised a bare numpy ValueError
    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(StateSizeMismatch, match="is not 4\\^L x 4\\^L"):
        oracle.retarded_gf(h, 1.0, 1, 1, "up", [0.0, 1.0])
    with pytest.raises(StateSizeMismatch, match="is not 4\\^L x 4\\^L"):
        oracle.retarded_series(h, 1.0, 1, 1, "up", [0.0, 1.0], 2)


@pytest.mark.parametrize("solve", [
    lambda h: oracle.exact_populations(h, ("u", "d"), [1.0]),
    lambda h: oracle.lesser_gf(h, ("u", "d"), 1, 1, "up", [1.0]),
], ids=["exact_populations", "lesser_gf"])
@pytest.mark.parametrize("h", [np.zeros((16, 32)), np.zeros((16, 8)), np.eye(32)],
                         ids=["16x32", "16x8", "32x32"])
def test_token_lanes_refuse_a_hamiltonian_that_is_not_4_to_the_L_square(monkeypatch, solve, h):
    # a 16-row H once passed the token count, then reached eigh or raised a
    # bare IndexError
    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(StateSizeMismatch, match="is not 4\\^L x 4\\^L"):
        solve(h)


@pytest.mark.parametrize("site_count", [1, 3])
def test_retarded_series_refuses_a_site_count_other_than_the_hamiltonians(
        monkeypatch, site_count):
    # a chain(2) H with site_count 3 once returned a series labelled L = 3
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(StateSizeMismatch, match=f"site_count {site_count} for a Hamiltonian "
                                                "on 2 sites"):
        oracle.retarded_series(h, 1.0, 1, 1, "up", [0.0, 1.0], site_count)


def test_retarded_gf_takes_a_large_finite_beta_as_its_zero_temperature_limit():
    # e^{-beta (E - E_min)} overflows its exponent to -inf, whose exp is the
    # limit 0; beta = 1e4 already gives those weights exactly. chain(4)'s
    # two ground states, in sectors (1, 2) and (2, 1), once came out of eigh
    # 2.7e-15 apart, so beta = 1e308 weighed only one of them
    times = np.linspace(0.0, 3.0, 7)
    for sites in (2, 4):
        h = oracle.fermionic_hamiltonian(mapping.chain(sites), 1.0, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cold = oracle.retarded_gf(h, 1e308, 1, 1, "up", times)
        assert np.array_equal(cold, oracle.retarded_gf(h, 1e4, 1, 1, "up", times))


def test_retarded_gf_zero_before_start():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    g = oracle.retarded_gf(h, 1.0, 1, 1, "up", [-1.0, -0.1])
    assert np.max(np.abs(g)) == 0.0


def test_retarded_gf_half_weight_at_origin():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    g0 = oracle.retarded_gf(h, 1.0, 1, 1, "up", [0.0])[0]
    # anticommutator at equal time is the identity, theta(0) = 0.5
    assert g0 == pytest.approx(-0.5j, abs=1e-12)


def lehmann_retarded(h, beta, i, j, spin, times):
    """Double sum over eigenpairs (n, m) with dense Kronecker-string operators.
    Levels within rounding of the lowest one weigh as much as it does."""
    L = int(round(np.log(h.shape[0]) / np.log(4)))
    evals, evecs = np.linalg.eigh(h)
    gap = evals - evals.min()
    gap[gap <= 1e-12 * np.abs(evals).max()] = 0.0
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * gap)
    c = evecs.conj().T @ kron_operator(i, spin, "annihilate", L) @ evecs
    cdag = evecs.conj().T @ kron_operator(j, spin, "create", L) @ evecs
    amp = (weights[:, None] + weights[None, :]) * c * cdag.T / weights.sum()
    freq = evals[:, None] - evals[None, :]
    times = np.asarray(times, dtype=float)
    theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
    return -1j * theta * (np.exp(1j * np.outer(times, freq.ravel())) @ amp.ravel())


@pytest.mark.parametrize("geometry", [pytest.param(mapping.chain(n), id=str(n)) for n in (2, 3, 4)]
                         + [pytest.param(mapping.ladder(2, 2), id="ladder(2,2)")])
def test_retarded_gf_matches_double_lehmann_sum(geometry):
    # the ladder's rungs join sites 1-3 and 2-4, so its hopping passes over
    # the modes of the site between them
    L = geometry.site_count
    h = oracle.fermionic_hamiltonian(geometry, 1.0, 2.0)
    times = np.linspace(-1.0, 12.0, 53)  # holds t < 0, t = 0 and t > 0
    for beta in (0.0, 1.0, 1e308):
        for i, j, spin in ((1, 1, "up"), (1, L, "down"), (L, 1, "up"), (2, 1, "down")):
            ours = oracle.retarded_gf(h, beta, i, j, spin, times)
            ref = lehmann_retarded(h, beta, i, j, spin, times)
            assert np.max(np.abs(ours - ref)) <= 1e-12, (beta, i, j, spin)


def test_retarded_gf_holds_one_phase_table():
    # one complex (4^5, 801) phase table is 12.5 MiB; all else is sector-sized
    h = oracle.fermionic_hamiltonian(mapping.chain(5), 1.0, 2.0)
    times = np.arange(801) * 0.05
    tracemalloc.start()
    try:
        oracle.retarded_gf(h, 1.0, 3, 3, "down", times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4**5 * len(times) * 16


def test_retarded_gf_refuses_a_hamiltonian_that_couples_sectors_before_any_eigh(monkeypatch):
    # the sector sums never read an entry between two sectors, so such an H
    # would give wrong numbers silently
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    # |ud,u> and |ud,ud> differ in N_dn; their sectors are the last ones cut
    h[14, 15] = h[15, 14] = 1e-9

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(SectorCoupling, match="no entry between two"):
        oracle.retarded_gf(h, 1.0, 1, 1, "up", [0.0, 1.0])


@pytest.mark.parametrize("solve", [
    lambda h: oracle.exact_populations(h, ("u", "d"), [1.0]),
    lambda h: oracle.lesser_gf(h, ("u", "d"), 1, 1, "up", [1.0]),
], ids=["exact_populations", "lesser_gf"])
@pytest.mark.parametrize("value", [1e-9, np.nan])
def test_pure_state_lanes_refuse_a_hamiltonian_that_couples_the_start_sector(solve, value):
    # each evolved only the start's sector block and returned numbers
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    start = oracle.fock_index(("u", "d"))
    h[start, start ^ 1] = h[start ^ 1, start] = value  # flips site 2's down spin
    with pytest.raises(SectorCoupling, match="no entry between two"):
        solve(h)


@pytest.mark.parametrize("solve", [
    lambda h: oracle.exact_populations(h, ("u", "d"), [1.0]),
    lambda h: oracle.lesser_gf(h, ("u", "d"), 1, 1, "up", [1.0]),
    lambda h: oracle.retarded_gf(h, 1.0, 1, 1, "up", [0.0, 1.0]),
], ids=["exact_populations", "lesser_gf", "retarded_gf"])
def test_exact_lanes_refuse_a_sector_block_that_is_not_symmetric_before_any_eigh(
        monkeypatch, solve):
    # eigh reads one triangle, so exact_populations once returned the
    # unplanted numbers bit for bit
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    assert [oracle.fock_index(t) for t in (("0", "ud"), ("u", "d"), ("ud", "0"))] == [3, 9, 12]
    h[3, 12] += 0.7  # both in the start's sector [3, 6, 9, 12]

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="H must be symmetric"):
        solve(h)


@pytest.mark.parametrize("beta", [np.inf, np.nan, -1000.0])
def test_retarded_gf_refuses_a_beta_outside_zero_to_inf_before_any_eigh(monkeypatch, beta):
    # each once returned an all-NaN series
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)

    def no_eigh(*args):
        raise AssertionError("eigh ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        oracle.retarded_gf(h, beta, 1, 1, "up", [0.0, 1.0])


def test_retarded_gf_on_five_sites():
    h = oracle.fermionic_hamiltonian(mapping.chain(5), 1.0, 2.0)
    g = oracle.retarded_gf(h, 1.0, 3, 3, "down", [0.0, 0.5])
    assert abs(g[0] - (-0.5j)) <= 1e-12
    assert np.isfinite(g[1])


def test_dense_builders_refuse_seven_sites_before_allocating():
    geometry = mapping.chain(7)
    mh = mapping.build_mapped_hamiltonian(geometry, 1.0, 2.0)
    builders = (
        lambda: oracle.fermionic_hamiltonian(geometry, 1.0, 2.0),
        lambda: mapping.map_fermion(1, "up", "annihilate", 7),
        lambda: mapping.dense_hamiltonian(mh),
    )
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge, match="GiB budget"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("start, stop, step", [
    (0.0, 1.0, -0.5), (0.0, 1.0, 0.0), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
    (0.0, np.nan, 0.5), (0.0, np.inf, 0.5), (np.nan, 1.0, 0.5), (-np.inf, 1.0, 0.5),
    (1.0, 0.5, 0.25),
])
def test_uniform_grid_refuses_a_bad_step_or_span(start, stop, step):
    # once an empty grid (step -0.5, stop < start), ZeroDivisionError
    # (step 0) and "cannot convert float NaN to integer" (stop nan)
    with pytest.raises(ValueError, match="time grid: need finite start <= stop, step > 0"):
        oracle.uniform_grid(start, stop, step)


def test_gf_fourier_matches_direct_sum():
    rng = np.random.default_rng(5)
    times = 0.3 + 0.05 * np.arange(801)
    omegas = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    values = rng.normal(size=801) + 1j * rng.normal(size=801)
    for kind in ("lesser", "retarded"):
        series = GreensSeries(times, values, 1, 1, "up", kind, 1, 1.0, 0.0)
        weights = np.full(len(times), 0.05)
        weights[-1] *= 0.5
        if kind == "lesser":
            weights[0] *= 0.5
        damped = values * np.exp(-0.1 * times) * weights
        direct = np.exp(1j * np.outer(omegas, times)) @ damped
        assert np.max(np.abs(oracle.gf_fourier(series, 0.1, omegas) - direct)) <= 1e-12


@pytest.mark.parametrize("times", [[0.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.5, np.nan],
                                   [0.0, np.inf, np.inf]],
                         ids=["zero-step", "decreasing", "nan", "inf"])
def test_gf_fourier_refuses_a_step_that_is_not_finite_and_positive(times):
    # once an all-zero transform, -1.81 at w = 0, NaN, and numpy's
    # RuntimeWarning from inf - inf in place of the refusal
    series = GreensSeries(np.array(times), np.ones(3, dtype=complex), 1, 1, "up", "lesser",
                          1, 1.0, 0.0)
    with pytest.raises(ValueError, match="time grid must be finite, increasing and uniform"):
        oracle.gf_fourier(series, 0.1, [0.0, 1.0])


def test_gf_fourier_single_pole():
    eps, eta = 1.5, 0.1
    times = np.arange(0.0, 400.0, 0.01)
    series = GreensSeries(
        times, -1j * np.exp(-1j * eps * times), 1, 1, "up", "retarded", 1, 1.0, 0.0
    )
    val = oracle.gf_fourier(series, eta, [eps])[0]
    # analytic value at resonance: -i / eta; the series value at t=0 already
    # includes no theta factor here, so supply full weight via kind override
    assert val.imag == pytest.approx(-1.0 / eta, rel=1e-3)
    a = oracle.spectral(series, eta, [eps])[0]
    assert a == pytest.approx(1.0 / (np.pi * eta), rel=1e-3)


def test_gf_fourier_empty_series():
    series = GreensSeries(np.array([]), np.array([]), 1, 1, "up", "lesser", 1, 1.0, 0.0)
    with pytest.raises(EmptySeries):
        oracle.gf_fourier(series, 0.1, [0.0])
    # one sample has no dt, so no transform
    one = GreensSeries(np.array([0.0]), np.array([-0.5j]), 1, 1, "up", "retarded", 1, 1.0, 0.0)
    with pytest.raises(EmptySeries):
        oracle.gf_fourier(one, 0.1, [0.0])


def test_spectral_positive_and_normalized_small_system():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    times = np.arange(0.0, 120.0 + 1e-9, 0.01)
    series = oracle.retarded_series(h, 1.0, 1, 1, "up", times, 2, 1.0, 2.0)
    omegas = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    a = oracle.spectral(series, 0.1, omegas)
    assert a.min() >= -1e-6
    assert np.trapezoid(a, omegas) == pytest.approx(1.0, abs=0.02)
