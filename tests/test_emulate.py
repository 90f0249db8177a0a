import tracemalloc

import numpy as np
import pytest

from ququart_hubbard import emulate, linalg, mapping, oracle


def test_circuit_populations_initial_state():
    state = mapping.product_state(("u", "ud", "0"))
    pops = emulate.circuit_populations(state, 3)
    assert pops[(1, "up")] == pytest.approx(1.0)
    assert pops[(1, "down")] == pytest.approx(0.0)
    assert pops[(2, "up")] == pytest.approx(1.0)
    assert pops[(2, "down")] == pytest.approx(1.0)
    assert pops[(3, "up")] == pytest.approx(0.0)


def test_population_grid_zero_time_exact():
    rows = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [0.0], steps=5
    )
    for row in rows:
        assert row.circuit_value == pytest.approx(row.oracle_value, abs=1e-12)
        expected = 1.0 if (row.site, row.spin) in ((1, "up"), (2, "down")) else 0.0
        assert row.oracle_value == pytest.approx(expected, abs=1e-12)


def test_population_grid_matches_oracle_at_modest_time():
    rows = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [0.5, 1.0], steps=30
    )
    assert emulate.max_population_error(rows) < 0.01


def test_population_row_mirror_symmetry():
    # half-filled two-site exchange: site 2 mirrors site 1 with spins swapped
    rows = emulate.population_grid(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), [1.5], steps=30
    )
    by_key = {(r.site, r.spin): r.oracle_value for r in rows}
    assert by_key[(1, "up")] + by_key[(2, "up")] == pytest.approx(1.0, abs=1e-10)
    assert by_key[(1, "down")] + by_key[(2, "down")] == pytest.approx(1.0, abs=1e-10)


def test_lesser_gf_circuit_zero_time():
    series = emulate.lesser_gf_circuit(
        mapping.chain(2), 1.0, 2.0, ("u", "d"), 1, 1, "up", [0.0], steps=5
    )
    assert series.values[0] == pytest.approx(1j)


def test_lesser_gf_pair_tracks_oracle():
    times = np.linspace(0.0, 2.0, 5)
    circ, orac = emulate.lesser_gf_pair(
        mapping.chain(2), 1.0, 1.0, ("u", "d"), 1, 1, "up", times, steps=30
    )
    assert circ.source == "circuit" and orac.source == "oracle"
    assert np.max(np.abs(circ.values - orac.values)) < 0.02


def test_lesser_gf_structural_zero_component():
    times = np.linspace(0.0, 2.0, 5)
    circ, orac = emulate.lesser_gf_pair(
        mapping.chain(3), 1.0, 2.0, ("u", "d", "0"), 1, 3, "up", times, steps=10
    )
    assert np.max(np.abs(orac.values)) < 1e-12
    assert np.max(np.abs(circ.values)) < 1e-12


def test_lesser_gf_circuit_needs_no_dense_operator(monkeypatch):
    args = (mapping.chain(3), 1.0, 2.0, ("u", "ud", "d"), 2, 1, "up", [0.0, 0.4, 1.3], 3)
    expected = emulate.lesser_gf_circuit(*args).values
    # one dense chain(3) operator needs 64 x 64 x 16 B
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 64 * 64 * 16 - 1)
    assert np.array_equal(emulate.lesser_gf_circuit(*args).values, expected)


@pytest.mark.parametrize("steps", [1, 2])
def test_lesser_gf_circuit_runs_seven_sites(steps):
    # one dense chain(7) operator would need 4 GiB; the state takes 256 kB.
    # The 21 propagated (bra, ket) pairs take 10.5 MiB, so the stacked runs
    # must stay under linalg.GRID_BATCH_BYTES to fit the 16 MiB
    tokens = ("u", "d", "ud", "0", "u", "d", "ud")
    tracemalloc.start()
    try:
        series = emulate.lesser_gf_circuit(mapping.chain(7), 1.0, 2.0, tokens, 3, 3, "down",
                                           emulate.LESSER_TIMES, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert series.values[0] == 1j  # n_(3, down) = 1 in psi0
    assert np.all(np.isfinite(series.values))
