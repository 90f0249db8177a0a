import json
from dataclasses import asdict

import pytest

from ququart_hubbard import gates, mapping, resources, transpile
from ququart_hubbard.errors import UnsupportedLattice


def test_chain_two_per_bond_constants():
    report = resources.qfm_resources(mapping.chain(2))
    assert report.two_body_gates_per_step == 8
    assert report.single_qudit_physical_per_step == 24
    assert report.carriers == 2


def test_one_by_eight_totals():
    report = resources.qfm_resources(mapping.chain(8))
    assert report.two_body_gates_per_step == 56
    assert report.carriers == 8


def test_two_by_four_totals():
    report = resources.qfm_resources(mapping.ladder(2, 4))
    assert report.two_body_gates_per_step == 80
    assert report.carriers == 8


@pytest.mark.parametrize("cols", [2, 3, 4, 5])
def test_ladder_scaling_formula(cols):
    report = resources.qfm_resources(mapping.ladder(2, cols))
    assert report.two_body_gates_per_step == 8 * (3 * cols - 2)


@pytest.mark.parametrize("length", [2, 3, 5, 8])
def test_chain_scaling_formula(length):
    report = resources.qfm_resources(mapping.chain(length))
    assert report.two_body_gates_per_step == 8 * (length - 1)


@pytest.mark.parametrize(
    "geom",
    [mapping.chain(2), mapping.chain(4), mapping.chain(8), mapping.ladder(2, 2), mapping.ladder(2, 4)],
)
def test_counts_match_emitted_circuits(geom):
    mh = mapping.build_mapped_hamiltonian(geom, 1.0, 2.0)
    tally = gates.count_gates(transpile.trotter_step_circuit(mh, 1.0, 1))
    report = resources.qfm_resources(geom)
    assert tally.two_qudit == report.two_body_gates_per_step
    assert tally.single_qudit_physical == report.single_qudit_physical_per_step


def test_qubit_baseline_totals():
    one_by_eight = resources.qubit_baseline_resources("1x8")
    two_by_four = resources.qubit_baseline_resources("2x4")
    assert one_by_eight.two_body_gates_per_step == 64
    assert two_by_four.two_body_gates_per_step == 112
    assert one_by_eight.carriers == 16
    assert two_by_four.carriers == 16


def test_qudit_beats_qubit_on_ladder():
    qfm = resources.qfm_resources(mapping.ladder(2, 4))
    qubit = resources.qubit_baseline_resources("2x4")
    assert qfm.two_body_gates_per_step < qubit.two_body_gates_per_step


def test_baseline_rejects_other_lattices():
    with pytest.raises(UnsupportedLattice):
        resources.qubit_baseline_resources("1x4")


def test_duration_models():
    report = resources.qfm_resources(mapping.chain(8))
    assert report.est_step_duration_s == pytest.approx(24 * 2 * 50e-9)
    assert report.est_serial_step_duration_s == pytest.approx(24 * 7 * 50e-9)


@pytest.mark.parametrize(
    "geom",
    [mapping.chain(n) for n in range(1, 9)] + [mapping.ladder(2, c) for c in range(2, 6)],
    ids=lambda g: g.label,
)
def test_parallel_step_time_counts_emitted_bond_layers(geom):
    report = resources.qfm_resources(geom)
    parallel = report.est_step_duration_s
    assert parallel <= report.est_serial_step_duration_s
    assert parallel == pytest.approx(len(transpile._bond_layers(geom)) * 24 * 50e-9)


def test_report_serialization():
    doc = asdict(resources.qfm_resources(mapping.ladder(2, 4)))
    assert doc["two_body_gates_per_step"] == 80


def _qfm(lattice, two_body, physical, seconds, serial_seconds):
    return {"encoding": "qfm", "lattice": lattice, "two_body_gates_per_step": two_body,
            "single_qudit_physical_per_step": physical, "carriers": 8,
            "est_step_duration_s": seconds, "est_serial_step_duration_s": serial_seconds,
            "layers": []}


def _qubit(lattice, two_body, layers):
    return {"encoding": "qubit_zigzag", "lattice": lattice, "two_body_gates_per_step": two_body,
            "single_qudit_physical_per_step": 0, "carriers": 16,
            "est_step_duration_s": None, "est_serial_step_duration_s": None, "layers": layers}


# pinned per-step costs; a change to the emitted step shows up here
@pytest.mark.parametrize("geom,expected", [
    (mapping.chain(8), [
        _qfm("chain(8)", 56, 168, 2.4e-06, 8.4e-06),
        _qubit("1x8", 64, ["fswap", "on-site", "fswap", "odd hopping", "even hopping"]),
    ]),
    (mapping.ladder(2, 4), [
        _qfm("ladder(2,4)", 80, 240, 3.6e-06, 1.2e-05),
        _qubit("2x4", 112, ["fswap", "on-site", "fswap", "vertical hopping", "fswap",
                            "horizontal hopping 1", "fswap", "horizontal hopping 2"]),
    ]),
], ids=["1x8", "2x4"])
def test_resources_json_pinned(geom, expected):
    reports = [resources.qfm_resources(geom), resources.qubit_baseline_resources(geom.label)]
    assert json.loads(json.dumps([asdict(r) for r in reports])) == expected
