import csv
import json

import numpy as np
import pytest

from ququart_hubbard import acceptance, gates, mapping, oracle
from ququart_hubbard.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_map_writes_hamiltonian_and_residual(tmp_path, capsys):
    code = run_cli("map", "--geometry", "chain:2", "--J", "1", "--v", "2",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "mapped_hamiltonian.json").exists()
    assert "int_prefactor: 0.25" in out
    residual = float(out.split("spectrum residual vs exact reference:")[1].split()[0])
    assert residual < 1e-10


def test_map_ladder_bond_list(tmp_path, capsys):
    code = run_cli("map", "--geometry", "ladder:2x4", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "mapped_hamiltonian.json").read_text())
    assert len(doc["hop_terms"]) == 10


def test_invalid_tau_step_exits_one(tmp_path):
    code = run_cli("evolve", "--geometry", "chain:2", "--init", "u,d",
                   "--tau-step", "0", "--out", str(tmp_path))
    assert code == 1


def test_invalid_init_length_exits_one(tmp_path):
    code = run_cli("evolve", "--geometry", "chain:3", "--init", "u,d",
                   "--out", str(tmp_path))
    assert code == 1


def test_evolve_writes_population_csv(tmp_path):
    code = run_cli(
        "evolve", "--geometry", "chain:2", "--J", "1", "--v", "2", "--init", "u,d",
        "--tau-start", "0", "--tau-stop", "1", "--tau-step", "0.5",
        "--steps", "10", "--out", str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "populations.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["tau"] for r in rows} == {"0", "0.5", "1"}
    zero_rows = [r for r in rows if r["tau"] == "0"]
    for row in zero_rows:
        assert row["circuit_value"] == row["oracle_value"]
        assert float(row["abs_error"]) == 0.0
    up1 = [r for r in zero_rows if r["site"] == "1" and r["spin"] == "up"][0]
    assert float(up1["circuit_value"]) == 1.0


def test_transpile_writes_circuit_and_report(tmp_path):
    code = run_cli(
        "transpile", "--geometry", "chain:2", "--J", "1", "--v", "2",
        "--tau-start", "1.0", "--steps", "4", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "synthesis_report.json").read_text())
    assert report["circuit_tally"]["two_qudit"] == 4 * 8
    assert max(t["residual_norm"] for t in report["terms"]) <= 1e-8
    circuit = gates.load_circuit(tmp_path / "circuit.json")
    assert circuit.site_count == 2


def test_circuit_json_resimulation_bit_identical(tmp_path):
    run_cli(
        "transpile", "--geometry", "chain:2", "--J", "1", "--v", "2",
        "--tau-start", "0.7", "--steps", "3", "--out", str(tmp_path),
    )
    circuit = gates.load_circuit(tmp_path / "circuit.json")
    reloaded = gates.load_circuit(tmp_path / "circuit.json")
    state = mapping.product_state(("u", "d"))
    first = gates.simulate(circuit, state)
    second = gates.simulate(reloaded, state)
    assert np.array_equal(first, second)


def test_greens_writes_series(tmp_path, capsys):
    code = run_cli(
        "greens", "--geometry", "chain:2", "--J", "1", "--v", "1", "--init", "u,d",
        "--pairs", "1,1,up", "--steps", "10", "--tmax", "2.0", "--dt", "0.1",
        "--observables", "lesser_gf,retarded_gf,spectral", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "gf_lesser_circuit_i1_j1_up.csv").exists()
    assert (tmp_path / "gf_lesser_oracle_i1_j1_up.csv").exists()
    assert (tmp_path / "gf_retarded_oracle_i1_j1_up.csv").exists()
    assert (tmp_path / "spectral_i1_up.csv").exists()
    header = (tmp_path / "gf_lesser_oracle_i1_j1_up.csv").read_text().splitlines()[0]
    assert header.startswith("#") and "kind=lesser" in header and "L=2" in header


def test_resources_prints_comparison(capsys):
    code = run_cli("resources", "--geometry", "2x4", "--baseline")
    out = capsys.readouterr().out
    assert code == 0
    assert "80" in out and "112" in out
    assert "two-body gates per step: 80 (ququart) vs 112 (qubit zig-zag)" in out


def test_resources_bad_lattice_exits_one(capsys):
    code = run_cli("resources", "--geometry", "3x5")
    assert code == 1


def fake_check(number, passed):
    result = acceptance.CheckResult(number, "fake criterion", passed, "detail")
    return acceptance.Check(f"criterion_{number}_fake", lambda: result)


# the real registry runs once, in test_acceptance.py
def test_validate_passes(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CHECKS", (fake_check(1, True),))
    assert run_cli("validate") == 0
    assert capsys.readouterr().out == "[PASS] criterion 1: fake criterion  [detail]\n"


def test_validate_failure_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CHECKS", (fake_check(1, False), fake_check(2, True)))
    assert run_cli("validate") == 2
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] criterion 1: fake criterion  [detail]",
        "[PASS] criterion 2: fake criterion  [detail]",
    ]


@pytest.mark.parametrize("command", ["evolve", "greens"])
def test_ladder_dynamics_refused(tmp_path, capsys, command):
    code = run_cli(command, "--geometry", "ladder:2x2", "--init", "u,d,0,0",
                   "--tau-stop", "0.5", "--tmax", "0.5", "--steps", "2", "--out", str(tmp_path))
    assert code == 1
    assert "ladder(2,2) are not supported" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pairs", ["5,5,up", "0,1,up", "1,x,up"])
def test_bad_pairs_exit_one(tmp_path, capsys, pairs):
    code = run_cli("greens", "--geometry", "chain:3", "--init", "u,d,0", "--pairs", pairs,
                   "--observables", "retarded_gf", "--out", str(tmp_path))
    assert code == 1
    assert "config error: pairs:" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    config = {
        "geometry": "chain:2",
        "J": 1.0,
        "v": 2.0,
        "init": "u,d",
        "tau_start": 0.0,
        "tau_stop": 0.5,
        "tau_step": 0.5,
        "steps": 5,
        "out": str(tmp_path / "from_config"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = run_cli("evolve", "--config", str(path), "--out", str(tmp_path / "flag_wins"))
    assert code == 0
    assert (tmp_path / "flag_wins" / "populations.csv").exists()
    assert not (tmp_path / "from_config").exists()


def test_unknown_config_field_exits_one(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"geomtry": "chain:2"}))
    assert run_cli("evolve", "--config", str(path)) == 1


@pytest.mark.parametrize("observables", ["bogus", "lesser_gf,spectrum", ""])
def test_unknown_observable_exits_one(tmp_path, capsys, observables):
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d",
                   "--observables", observables, "--out", str(tmp_path))
    assert code == 1
    assert "observables: unknown" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("beta", ["-1000", "-0.5", "inf", "nan"])
def test_bad_beta_exits_one(tmp_path, capsys, beta):
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d",
                   "--observables", "retarded_gf", "--beta", beta, "--out", str(tmp_path))
    assert code == 1
    assert "config error: beta:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_greens_retarded_on_five_sites(tmp_path):
    code = run_cli("greens", "--geometry", "chain:5", "--init", "u,d,0,ud,u",
                   "--observables", "retarded_gf", "--tmax", "1", "--dt", "0.5",
                   "--out", str(tmp_path))
    assert code == 0
    series = oracle.series_from_csv((tmp_path / "gf_retarded_oracle_i1_j1_up.csv").read_text())
    assert abs(series.values[0] - (-0.5j)) <= 1e-12


def test_deterministic_outputs(tmp_path):
    args = (
        "evolve", "--geometry", "chain:2", "--J", "1", "--v", "2", "--init", "u,d",
        "--tau-start", "0.5", "--tau-stop", "1.0", "--tau-step", "0.5", "--steps", "5",
    )
    run_cli(*args, "--out", str(tmp_path / "a"))
    run_cli(*args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "populations.csv").read_text() == (
        tmp_path / "b" / "populations.csv"
    ).read_text()
