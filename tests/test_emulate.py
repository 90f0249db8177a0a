import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from ququart_hubbard import acceptance, emulate, gates, linalg, mapping, oracle, transpile
from ququart_hubbard.errors import SiteOutOfRange, StateSizeMismatch
from ququart_hubbard.oracle import GreensSeries
from test_mapping import kron_fermion


def test_circuit_populations_initial_state():
    state = mapping.product_state(("u", "ud", "0"))
    pops = emulate.circuit_populations(state, 3)
    assert pops[(1, "up")] == pytest.approx(1.0)
    assert pops[(1, "down")] == pytest.approx(0.0)
    assert pops[(2, "up")] == pytest.approx(1.0)
    assert pops[(2, "down")] == pytest.approx(1.0)
    assert pops[(3, "up")] == pytest.approx(0.0)


def test_population_grid_zero_time_exact():
    circuit, exact = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [0.0], steps=5
    )
    assert circuit.shape == exact.shape == (1, 2, 2)
    assert np.max(np.abs(circuit - exact)) <= 1e-12
    # [tau, site - 1, (up, down)]: site 1 holds the up spin, site 2 the down
    assert np.max(np.abs(exact - [[[1.0, 0.0], [0.0, 1.0]]])) <= 1e-12


def test_population_grid_matches_oracle_at_modest_time():
    circuit, exact = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [0.5, 1.0], steps=30
    )
    assert np.max(np.abs(circuit - exact)) < 0.01


def test_population_row_mirror_symmetry():
    # half-filled two-site exchange: site 2 mirrors site 1 with spins swapped
    _, exact = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [1.5], steps=30
    )
    up, down = exact[0].sum(axis=0)  # summed over the two sites
    assert up == pytest.approx(1.0, abs=1e-10)
    assert down == pytest.approx(1.0, abs=1e-10)


def test_lesser_gf_circuit_zero_time():
    series, = emulate.lesser_gf_circuit(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [(1, 1, "up")], [0.0], steps=5
    )
    assert series.values[0] == pytest.approx(1j)


def test_lesser_gf_pair_tracks_oracle():
    times = np.linspace(0.0, 2.0, 5)
    circ, orac = emulate.lesser_gf_pair(
        mapping.chain(2), 1.0, 1.0, ("u", "d"), 1, 1, "up", times, steps=30
    )
    assert circ.source == "circuit" and orac.source == "oracle"
    assert np.max(np.abs(circ.values - orac.values)) < 0.02


@pytest.mark.parametrize("i, j, differing", [(2, 1, ["values", "source"]),
                                             (1, 3, ["source"])])  # c_3 psi0 = 0: both 0
def test_lesser_gf_pair_oracle_series_is_the_circuit_series_with_exact_values(i, j, differing):
    tokens, times = ("u", "d", "0"), np.linspace(0.0, 2.0, 5)
    circ, orac = emulate.lesser_gf_pair(mapping.chain(3), 1.0, 2.0, tokens, i, j, "up", times, 10)
    assert differing == [f.name for f in dataclasses.fields(GreensSeries)
                         if not np.array_equal(getattr(circ, f.name), getattr(orac, f.name))]
    h = oracle.fermionic_hamiltonian(mapping.chain(3), 1.0, 2.0)
    assert np.array_equal(orac.values, oracle.lesser_gf(h, tokens, i, j, "up", times))


def test_lesser_gf_structural_zero_component():
    times = np.linspace(0.0, 2.0, 5)
    circ, orac = emulate.lesser_gf_pair(
        mapping.chain(3), 1.0, 2.0, ("u", "d", "0"), 1, 3, "up", times, steps=10
    )
    assert np.max(np.abs(orac.values)) < 1e-12
    assert not np.any(circ.values)  # c_3 psi0 = 0: nothing is propagated


@pytest.mark.parametrize("tokens", [("u", "d", "0"), ("0", "0", "0")])
@pytest.mark.parametrize("i, j", [(4, 1), (0, 1), (1, 4), (1, 0)])
def test_lesser_gf_circuit_refuses_a_site_out_of_range(tokens, i, j):
    # ("0", "0", "0"): c_j psi0 = 0, so no circuit runs
    with pytest.raises(SiteOutOfRange, match="outside 1..3"):
        emulate.lesser_gf_circuit(mapping.chain(3), 1.0, 2.0, tokens, [(i, j, "up")], [0.0, 0.5], 3)


@pytest.mark.parametrize("tokens", [("0", "0"), ("0", "0", "0", "0"), ("u", "d")])
def test_lesser_gf_circuit_refuses_tokens_for_another_length(tokens):
    with pytest.raises(StateSizeMismatch):
        emulate.lesser_gf_circuit(mapping.chain(3), 1.0, 2.0, tokens, [(1, 1, "up")], [0.0, 0.5], 3)


@pytest.mark.parametrize("tokens", [("u", "ud", "u", "d"), ("u", "d", "ud", "0", "u", "d", "ud")]
                         + [t for L in (1, 2, 3)
                            for t in itertools.product(mapping.TOKENS, repeat=L)])
def test_sector_start_is_the_product_state_on_its_sector(tokens):
    sector, psi0 = mapping.token_state(tokens)
    counts = (sum("u" in t for t in tokens), sum("d" in t for t in tokens))
    assert sector is mapping.sector(len(tokens), *counts)
    assert np.array_equal(psi0, mapping.product_state(tokens)[sector.basis])


def test_grids_start_without_a_register_vector(monkeypatch):
    args = (mapping.chain(3), 1.0, 2.0, ("u", "ud", "0"))
    pops = emulate.population_grid(*args, [0.0, 0.7], 3)
    series, = emulate.lesser_gf_circuit(*args, [(2, 2, "up")], [0.0, 0.7], 3)

    def no_register_vector(tokens):
        raise AssertionError("a 4^L product state was built")

    monkeypatch.setattr(mapping, "product_state", no_register_vector)
    assert all(map(np.array_equal, emulate.population_grid(*args, [0.0, 0.7], 3), pops))
    assert np.array_equal(emulate.lesser_gf_circuit(*args, [(2, 2, "up")], [0.0, 0.7], 3)[0].values,
                          series.values)


def test_population_grid_refuses_tokens_for_another_length_in_the_oracle(monkeypatch):
    # the oracle checks the tokens before its solve, ahead of the circuit lane
    def no_grid(*args):
        raise AssertionError("the circuit lane ran")

    monkeypatch.setattr(transpile, "trotter_grid", no_grid)
    with pytest.raises(StateSizeMismatch, match="2 tokens for a Hamiltonian"):
        emulate.population_grid(mapping.chain(3), 1.0, 2.0, ("u", "d"), [0.0, 1.0], 3)


def test_lesser_gf_circuit_needs_no_dense_operator(monkeypatch):
    args = (mapping.chain(3), 1.0, 2.0, ("u", "ud", "d"), [(2, 1, "up")], [0.0, 0.4, 1.3], 3)
    expected = emulate.lesser_gf_circuit(*args)[0].values
    # one dense chain(3) operator needs 64 x 64 x 16 B
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 64 * 64 * 16 - 1)
    assert np.array_equal(emulate.lesser_gf_circuit(*args)[0].values, expected)


@pytest.mark.parametrize("steps", [1, 2])
def test_lesser_gf_circuit_runs_seven_sites(steps):
    # one dense chain(7) operator would need 4 GiB and a register state
    # 256 kB; the ket's and the bra's sectors hold 1225 amplitudes each. A
    # run counts its state, its gathered copy and the gathered entries of
    # its six stacked bond blocks against gates.GRID_BATCH_BYTES (568 kB),
    # so each run goes alone. Measured peak 4.1-4.5 MiB: about 1.1 MiB the
    # emitted and fused grid, the rest the two sectors' index tables
    tokens = ("u", "d", "ud", "0", "u", "d", "ud")
    tracemalloc.start()
    try:
        series, = emulate.lesser_gf_circuit(mapping.chain(7), 1.0, 2.0, tokens, [(3, 3, "down")],
                                            emulate.LESSER_TIMES, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20
    assert series.values[0] == 1j  # n_(3, down) = 1 in psi0
    assert np.all(np.isfinite(series.values))


# --- the sector lane against the full register ------------------------------


def full_register_states(geometry, v, tokens, taus, steps):
    """`gates.simulate` on the whole 4^L register, circuit by circuit over
    the grid the sector lane runs."""
    mh = mapping.build_mapped_hamiltonian(geometry, 1.0, v)
    grid = transpile.trotter_grid(mh, tuple(map(float, taus)), steps)
    psi0 = mapping.product_state(tokens)
    return grid, np.stack([gates.simulate(circuit, psi0) for circuit in grid])


def assert_sector_lane_matches_full_register(geometry, v, tokens, taus, steps):
    grid, full = full_register_states(geometry, v, tokens, taus, steps)
    sector = mapping.token_state(tokens)[0]
    runs = gates.simulate_sector(grid, sector, mapping.product_state(tokens)[sector.basis])
    assert np.max(np.abs(runs - full[:, sector.basis])) <= 1e-12
    assert np.max(np.abs(np.delete(full, sector.basis, axis=1))) <= 1e-12
    return full


def assert_population_grid_matches_full_register(geometry, v, tokens, taus, steps):
    full = assert_sector_lane_matches_full_register(geometry, v, tokens, taus, steps)
    circuit, _ = emulate.population_grid(geometry, 1.0, v, tokens, taus, steps)
    for k, state in enumerate(full):
        pops = emulate.circuit_populations(state, geometry.site_count)
        for (site, spin), value in pops.items():
            assert abs(circuit[k, site - 1, mapping.SPINS.index(spin)] - value) <= 1e-12


@pytest.mark.parametrize("steps", [5, 10, 30])
@pytest.mark.parametrize("sites, tokens", [(2, ("u", "d")), (4, ("u", "ud", "u", "d"))],
                         ids=["chain2-half-filling", "chain4-mixed"])
def test_sector_lane_matches_full_register_on_criterion_6(sites, tokens, steps):
    assert_population_grid_matches_full_register(mapping.chain(sites), 2.0, tokens,
                                             acceptance.TAU_GRID, steps)


@pytest.mark.parametrize("sites, tokens", [(1, ("ud",)), (1, ("u",)), (2, ("ud", "0")),
                                           (2, ("0", "0"))])
def test_sector_lane_matches_full_register_on_small_chains(sites, tokens):
    assert_population_grid_matches_full_register(mapping.chain(sites), 2.0, tokens,
                                             [0.0, 0.7, 2.5], 4)


def test_sector_lane_matches_full_register_on_half_filled_chain8():
    # past the oracle's dense budget: the states only, not `population_grid`
    tokens = ("u", "d", "ud", "0", "0", "ud", "d", "u")
    assert len(mapping.token_state(tokens)[0].basis) == 4900
    assert_sector_lane_matches_full_register(mapping.chain(8), 2.0, tokens, [0.0, 0.6, 1.4], 2)


def full_register_lesser_gf(geometry, tokens, i, j, spin, times, steps):
    """G(t) from full-register runs of the bra and the ket, c_i and c_j
    the Kronecker strings of `kron_fermion`."""
    L = geometry.site_count
    psi0 = mapping.product_state(tokens)
    removed = kron_fermion(j, spin, "annihilate", L) @ psi0
    mh = mapping.build_mapped_hamiltonian(geometry, 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(map(float, times)), steps)
    start = np.column_stack([removed, psi0])
    states = np.stack([gates.simulate(circuit, start) for circuit in grid])
    c_i = kron_fermion(i, spin, "annihilate", L)
    return np.array([1j * np.vdot(bra, c_i @ ket)
                     for bra, ket in states.transpose(0, 2, 1)])


@pytest.mark.parametrize("sites, tokens, i, j, spin", [
    (3, ("u", "d", "0"), 1, 1, "up"), (3, ("u", "d", "0"), 2, 1, "up"),
    (3, ("u", "d", "0"), 3, 1, "up"), (4, ("u", "ud", "u", "d"), 2, 2, "down"),
    (4, ("u", "ud", "u", "d"), 4, 4, "down"),
])
def test_sector_lane_matches_full_register_on_criterion_7(sites, tokens, i, j, spin):
    args = (mapping.chain(sites), tokens, i, j, spin, emulate.LESSER_TIMES, 30)
    series, = emulate.lesser_gf_circuit(args[0], 1.0, 1.0, tokens, [(i, j, spin)],
                                        emulate.LESSER_TIMES, 30)
    assert np.max(np.abs(series.values - full_register_lesser_gf(*args))) <= 1e-12


@pytest.mark.parametrize("tokens, j, spin", [(("0", "d"), 1, "up"), (("u", "0"), 2, "down"),
                                             (("ud", "0"), 2, "up")])
def test_lesser_gf_with_no_particle_to_remove_is_exactly_zero(tokens, j, spin):
    # the first two have no particle of the spin at all, so c_j psi0 would
    # land in a sector of -1 particles, which has no basis states
    series, = emulate.lesser_gf_circuit(mapping.chain(2), 1.0, 1.0, tokens, [(1, j, spin)],
                                        [0.0, 0.5, 1.5], 3)
    assert np.array_equal(series.values, np.zeros(3))


def _no_propagation(*args):
    raise AssertionError("a sector propagation ran")


def test_lesser_gf_components_share_the_ket_and_each_bra(monkeypatch):
    # a duplicate, a zero component ((1, 1, down): site 1 holds no down
    # particle) and three distinct nonzero (j, spin): one ket, three bras
    args = (mapping.chain(3), 1.0, 2.0, ("u", "ud", "d"))
    components = [(1, 2, "up"), (3, 2, "up"), (2, 2, "down"), (1, 1, "down"), (3, 3, "down"),
                  (2, 2, "down")]
    runs = []
    simulate = gates.simulate_sector
    monkeypatch.setattr(gates, "simulate_sector", lambda *a: runs.append(a[1]) or simulate(*a))
    series = emulate.lesser_gf_circuit(*args, components, [0.0, 0.4, 1.3], 3)
    assert len(runs) == 4
    monkeypatch.undo()
    assert [(s.i, s.j, s.spin) for s in series] == components
    for s, component in zip(series, components):
        alone, = emulate.lesser_gf_circuit(*args, [component], [0.0, 0.4, 1.3], 3)
        assert np.array_equal(s.values, alone.values) and s.values.dtype == alone.values.dtype
    assert not np.any(series[3].values)


def test_lesser_gf_with_every_source_empty_runs_nothing(monkeypatch):
    # ("u", "d", "0"): site 3 is empty and site 1 holds no down particle
    monkeypatch.setattr(gates, "simulate_sector", _no_propagation)
    components = [(1, 3, "up"), (2, 3, "down"), (2, 1, "down")]
    series = emulate.lesser_gf_circuit(mapping.chain(3), 1.0, 2.0, ("u", "d", "0"), components,
                                       [0.0, 0.5, 1.5], 3)
    assert [(s.i, s.j, s.spin) for s in series] == components
    for s in series:
        assert np.array_equal(s.values, np.zeros(3, dtype=complex))


@pytest.mark.parametrize("last, error, match", [
    ((1, 4, "up"), SiteOutOfRange, "outside 1..3"), ((0, 1, "up"), SiteOutOfRange, "outside 1..3"),
    ((1, 1, "sideways"), ValueError, "spin must be up/down"),
])
def test_lesser_gf_refuses_a_bad_last_component_before_any_propagation(monkeypatch, last, error,
                                                                         match):
    monkeypatch.setattr(gates, "simulate_sector", _no_propagation)
    with pytest.raises(error, match=match):
        emulate.lesser_gf_circuit(mapping.chain(3), 1.0, 2.0, ("u", "d", "0"),
                                  [(1, 1, "up"), (2, 1, "up"), last], [0.0, 0.5], 3)


@pytest.mark.parametrize("run", [
    lambda tokens: emulate.population_grid(mapping.chain(2), 1.0, 2.0, tokens, [0.0], 3),
    lambda tokens: emulate.lesser_gf_circuit(mapping.chain(2), 1.0, 2.0, tokens, [(1, 1, "up")],
                                             [0.0], 3),
    mapping.token_state,
    mapping.product_index,
], ids=["population_grid", "lesser_gf_circuit", "token_state", "product_index"])
def test_an_unknown_occupation_token_is_refused_by_name(run):
    with pytest.raises(ValueError, match="unknown occupation token 'x'; use 0/u/d/ud"):
        run(("u", "x"))


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_sector_fermion_maps_equal_the_kronecker_strings(sites):
    # every sector, every (site, spin, kind), on every basis state at once,
    # bit for bit the Kronecker string applied to the sector's basis columns
    for site, spin, kind in itertools.product(range(1, sites + 1), mapping.SPINS,
                                              ("annihilate", "create")):
        reference = kron_fermion(site, spin, kind, sites)
        for n_up, n_dn in itertools.product(range(sites + 1), repeat=2):
            sector = mapping.sector(sites, n_up, n_dn)
            image = reference[:, sector.basis]
            fermion = sector.fermion(site, spin, kind)
            mapped = fermion(np.eye(len(sector.basis)))  # row k: image of basis state k
            full = np.zeros_like(image)
            full[fermion.target.basis] = mapped.T
            assert np.array_equal(full, image)
