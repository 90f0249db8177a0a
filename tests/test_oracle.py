import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

from ququart_hubbard import mapping, oracle
from ququart_hubbard.errors import DimensionTooLarge, EmptySeries
from ququart_hubbard.oracle import ExactPropagator, GreensSeries

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
                assert np.array_equal(oracle.fermion_operator(site, spin, kind, L),
                                      kron_operator(site, spin, kind, L))


@pytest.mark.parametrize("geometry", REFERENCE_GEOMETRIES, ids=lambda g: g.label)
def test_hamiltonian_equals_kronecker_reference(geometry):
    for J, v in ((1.0, 2.0), (0.7, -3.1), (0.0, 0.1)):
        assert np.array_equal(oracle.fermionic_hamiltonian(geometry, J, v),
                              kron_hamiltonian(geometry, J, v))


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
            c = oracle.fermion_operator(s1, sp1, "annihilate", L)
            cdag = oracle.fermion_operator(s1, sp1, "create", L)
            assert np.array_equal(c @ cdag + cdag @ c, eye)
            assert np.max(np.abs(c @ c)) == 0.0


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
    prop = ExactPropagator(h)
    psi0 = oracle.fock_state(("u", "ud", "u", "d"))
    tau = 2.5
    ours = prop.evolve(psi0, [tau])[:, 0]
    reference = scipy.linalg.expm(-1j * tau * h) @ psi0
    assert np.max(np.abs(ours - reference)) < 1e-10


def test_evolve_grid_matches_expm_with_exact_origin():
    h = oracle.fermionic_hamiltonian(mapping.ladder(2, 2), 1.0, 2.0)
    psi0 = oracle.fock_state(("ud", "u", "0", "d"))
    times = [0.0, 0.4, 1.3, 0.0, 7.9]
    out = ExactPropagator(h).evolve(psi0, times)
    assert out.shape == (len(psi0), len(times))
    assert np.array_equal(out[:, 0], psi0) and np.array_equal(out[:, 3], psi0)
    for k, t in enumerate(times):
        reference = scipy.linalg.expm(-1j * t * h) @ psi0
        assert np.max(np.abs(out[:, k] - reference)) < 1e-10


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
    """Double sum over eigenpairs (n, m) with dense Kronecker-string operators."""
    L = int(round(np.log(h.shape[0]) / np.log(4)))
    evals, evecs = np.linalg.eigh(h)
    weights = np.exp(-beta * (evals - evals.min()))
    c = evecs.conj().T @ kron_operator(i, spin, "annihilate", L) @ evecs
    cdag = evecs.conj().T @ kron_operator(j, spin, "create", L) @ evecs
    amp = (weights[:, None] + weights[None, :]) * c * cdag.T / weights.sum()
    freq = evals[:, None] - evals[None, :]
    times = np.asarray(times, dtype=float)
    theta = np.where(times > 0, 1.0, np.where(times == 0, 0.5, 0.0))
    return -1j * theta * (np.exp(1j * np.outer(times, freq.ravel())) @ amp.ravel())


@pytest.mark.parametrize("sites", [2, 3])
def test_retarded_gf_matches_double_lehmann_sum(sites):
    h = oracle.fermionic_hamiltonian(mapping.chain(sites), 1.0, 2.0)
    times = np.linspace(-1.0, 12.0, 53)
    for i, j, spin, beta in ((1, 1, "up", 1.0), (1, sites, "down", 0.3), (sites, 1, "up", 0.0)):
        ours = oracle.retarded_gf(h, beta, i, j, spin, times)
        assert np.max(np.abs(ours - lehmann_retarded(h, beta, i, j, spin, times))) <= 1e-12


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
        lambda: oracle.fermion_operator(1, "up", "annihilate", 7),
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


def test_spectral_positive_and_normalized_small_system():
    h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
    times = np.arange(0.0, 120.0 + 1e-9, 0.01)
    series = oracle.retarded_series(h, 1.0, 1, 1, "up", times, 2, 1.0, 2.0)
    omegas = np.arange(-12.0, 12.0 + 1e-9, 0.01)
    a = oracle.spectral(series, 0.1, omegas)
    assert a.min() >= -1e-6
    assert np.trapezoid(a, omegas) == pytest.approx(1.0, abs=0.02)


def test_series_csv_round_trip():
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.0 - 1.0j])
    series = GreensSeries(times, values, 2, 1, "down", "lesser", 3, 1.0, 2.0, "u,d,0")
    text = oracle.series_to_csv(series)
    loaded = oracle.series_from_csv(text)
    assert np.array_equal(loaded.times, times)
    assert np.array_equal(loaded.values, values)
    assert (loaded.i, loaded.j, loaded.spin, loaded.kind) == (2, 1, "down", "lesser")
    assert loaded.site_count == 3 and loaded.init == "u,d,0"
