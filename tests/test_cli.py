import csv
import dataclasses
import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ququart_hubbard import acceptance, cli, emulate, gates, linalg, mapping, oracle, transpile
from ququart_hubbard.cli import main
from ququart_hubbard.errors import ConfigInvalid
from test_acceptance import couple_sectors


def run_cli(*argv):
    return main(list(argv))


def test_map_writes_hamiltonian_and_residual(tmp_path, capsys):
    code = run_cli("map", "--geometry", "chain:2", "--J", "1", "--v", "2",
                   "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "mapped_hamiltonian.json").exists()
    assert "int_prefactor: 0.25" in out
    assert out.endswith("mapping residual vs exact reference: 0.000e+00\n")


def test_map_checks_the_spectrum_within_the_dense_budget(tmp_path, capsys, monkeypatch):
    # chain:3 needs 64 x 64 x 16 B for one dense complex operator
    for budget, checked in ((64 * 64 * 16, True), (64 * 64 * 16 - 1, False)):
        monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", budget)
        assert run_cli("map", "--geometry", "chain:3", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert ("mapping residual vs exact reference:" in out) == checked
        assert ("mapping residual: skipped" in out) == (not checked)


def test_mapped_and_oracle_sector_labels_agree_on_product_states():
    for tokens in itertools.product(mapping.TOKENS, repeat=3):
        label = oracle.sector_labels(3)[oracle.fock_index(tokens)]
        assert mapping.token_state(tokens)[0].counts == divmod(int(label), 3 + 1)


def test_map_fails_when_a_hamiltonian_couples_sectors(tmp_path, capsys, monkeypatch):
    # a NaN once printed a residual of 0.000e+00 and exited 0
    for module, builder in ((mapping, "dense_hamiltonian"), (oracle, "fermionic_hamiltonian")):
        for value in (1e-9, np.nan):
            with monkeypatch.context() as patch:
                patch.setattr(module, builder, couple_sectors(getattr(module, builder), value))
                code = run_cli("map", "--geometry", "chain:2", "--out", str(tmp_path))
            out = capsys.readouterr().out
            assert code == 2, (builder, value)
            assert out.endswith(f"mapping residual vs exact reference: {value:.3e}, "
                                "FAILED above 1e-10\n")


def test_every_workflow_command_parses():
    # nothing runs the CI workflow's or README's commands before CI or a
    # reader does, so a renamed flag would go unnoticed
    root = Path(__file__).parents[1]
    lines = (root / ".github/workflows/tier1.yml").read_text().splitlines()
    commands = []
    for k, line in enumerate(lines):
        if line.lstrip().startswith("run:"):
            command = line.split("run:", 1)[1].strip()
            if command == ">-":  # a folded block: the more-indented lines that follow
                indent = len(line) - len(line.lstrip())
                block = itertools.takewhile(lambda b: len(b) - len(b.lstrip()) > indent,
                                            lines[k + 1:])
                command = " ".join(b.strip() for b in block)
            commands.append(shlex.split(command))
    ci = [argv for argv in commands if argv[0] == "ququart-hubbard"]
    # README's sh blocks, with backslash continuations joined and the loop's $n set
    blocks = (root / "README.md").read_text().split("```")[1::2]
    script = "\n".join(b.removeprefix("sh\n") for b in blocks if b.startswith("sh\n"))
    readme = [shlex.split(line.strip().replace("$n", "5"))
              for line in script.replace("\\\n", " ").splitlines()
              if line.strip().startswith("ququart-hubbard ")]
    assert (len(ci), len(readme)) == (5, 14)
    for argv in ci + readme:
        cli._build_config(cli.build_parser().parse_args(argv[1:]))


def test_map_ladder_bond_list(tmp_path, capsys):
    code = run_cli("map", "--geometry", "ladder:2x4", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / "mapped_hamiltonian.json").read_text())
    assert len(doc["geometry"]["bonds"]) == 10
    assert len(doc["terms"]) == 10 * 4 + 8  # four pieces per bond, one on-site term per site


def test_invalid_tau_step_exits_one(tmp_path):
    code = run_cli("evolve", "--geometry", "chain:2", "--init", "u,d",
                   "--tau-step", "0", "--out", str(tmp_path))
    assert code == 1


def test_invalid_init_length_exits_one(tmp_path):
    out = tmp_path / "out"
    code = run_cli("evolve", "--geometry", "chain:3", "--init", "u,d", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_init_tokens_are_stripped_and_read_by_token_levels():
    config = cli.RunConfig(geometry="chain:4", init="u, ud ,0,d")
    assert config.require_init() == ("u", "ud", "0", "d")
    with pytest.raises(ConfigInvalid, match="init: unknown occupation token 'x'; use 0/u/d/ud"):
        cli.RunConfig(init="u,x").require_init()


def test_pair_spins_take_the_spin_names_and_their_initials():
    config = cli.RunConfig(pairs="1,1,u; 1,2,down;2,2,d;2,1,up")
    assert config.parsed_pairs() == [(1, 1, "up"), (1, 2, "down"), (2, 2, "down"), (2, 1, "up")]
    for spin in ("x", "Up", "dn", ""):
        with pytest.raises(ConfigInvalid, match=f"pairs: unknown spin {spin!r}"):
            cli.RunConfig(pairs=f"1,1,{spin}").parsed_pairs()


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


def test_transpile_report_angle_is_the_emitted_angle(tmp_path):
    # J*tau/(2 steps) and J*(tau/steps)/2 differ in the last bit here
    code = run_cli("transpile", "--geometry", "chain:2", "--J", "1.3",
                   "--tau-start", "0.13", "--steps", "30", "--out", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "synthesis_report.json").read_text())
    assert report["term_angle"] == transpile.hopping_angle(1.3, 0.13 / 30)
    assert [t["tau"] for t in report["terms"]] == [report["term_angle"]] * 4
    bond = [item for term_id in transpile.HOPPING_TERM_IDS
            for item in transpile.hopping_term_ops(term_id, report["term_angle"], 0, 1)]
    circuit = gates.load_circuit(tmp_path / "circuit.json")
    assert list(circuit.step[-len(bond):]) == bond


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


def test_series_csv_round_trip(tmp_path, capsys):
    times = np.array([0.0, 0.5, 1.0])
    values = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.0 - 1.0j])
    series = oracle.GreensSeries(times, values, 2, 1, "down", "lesser", 3, 1.0, 2.0, "u,d,0")
    path = tmp_path / "series.csv"
    cli._write_series(path, series)
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert path.read_text().splitlines()[:2] == [
        "# i=2 j=1 spin=down kind=lesser L=3 J=1 v=2 init=u,d,0 source=oracle",
        "t,re,im",
    ]
    t, re, im = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(t, times)
    assert np.array_equal(re + 1j * im, values)


def _csv_cells(path, comment):
    """The cells of a CLI CSV: `comment` must be its LF-terminated first
    line (None: no comment line), and every later row must end in CRLF."""
    data = path.read_bytes()
    if comment is not None:
        first, data = data.split(b"\n", 1)
        assert first == comment
    *rows, last = data.split(b"\r\n")
    assert last == b"" and not any(b"\n" in row or b"\r" in row for row in rows)
    return [row.decode().split(",") for row in rows]


def _series_cells(path, comment, series):
    cells = _csv_cells(path, comment)
    assert cells[0] == ["t", "re", "im"]
    parsed = [[float(c) for c in row] for row in cells[1:]]
    assert parsed == [[t, v.real, v.imag] for t, v in zip(series.times, series.values)]


def test_csv_byte_layout(tmp_path):
    # floats are compared with ==, so every value must round-trip bit for bit
    geom, tokens = mapping.chain(2), ("u", "d")
    assert run_cli("evolve", "--geometry", "chain:2", "--init", "u,d", "--tau-start", "0.5",
                   "--tau-stop", "1", "--steps", "3", "--out", str(tmp_path)) == 0
    assert run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--pairs", "1,1,up",
                   "--steps", "3", "--tmax", "1", "--dt", "0.25", "--eta", "0.3",
                   "--observables", "lesser_gf,spectral", "--out", str(tmp_path)) == 0

    cells = _csv_cells(tmp_path / "populations.csv", None)
    assert cells[0] == ["tau", "n", "site", "spin", "circuit_value", "oracle_value", "abs_error"]
    taus = [0.5, 1.0]
    circuit, exact = emulate.population_grid(geom, 1.0, 2.0, tokens, np.array(taus), 3)
    assert [[float(c[0]), int(c[1]), int(c[2]), c[3], *map(float, c[4:])] for c in cells[1:]] == [
        [tau, 3, site, spin, circuit[k, site - 1, m], exact[k, site - 1, m],
         abs(circuit[k, site - 1, m] - exact[k, site - 1, m])]
        for k, tau in enumerate(taus) for site in (1, 2) for m, spin in enumerate(mapping.SPINS)
    ]

    coarse = emulate.LESSER_TIMES[emulate.LESSER_TIMES <= 1.0]
    circ, orac = emulate.lesser_gf_pair(geom, 1.0, 2.0, tokens, 1, 1, "up", coarse, 3)
    for series in (circ, orac):
        _series_cells(tmp_path / f"gf_lesser_{series.source}_i1_j1_up.csv",
                      b"# i=1 j=1 spin=up kind=lesser L=2 J=1 v=2 init=u,d source="
                      + series.source.encode(), series)

    h = oracle.fermionic_hamiltonian(geom, 1.0, 2.0)
    retarded = oracle.retarded_series(h, 1.0, 1, 1, "up", oracle.uniform_grid(0.0, 1.0, 0.25),
                                      2, 1.0, 2.0)
    _series_cells(tmp_path / "gf_retarded_oracle_i1_j1_up.csv",
                  b"# i=1 j=1 spin=up kind=retarded L=2 J=1 v=2 init=beta=1 source=oracle",
                  retarded)

    cells = _csv_cells(tmp_path / "spectral_i1_up.csv",
                       b"# i=1 spin=up eta=0.29999999999999999 beta=1")
    assert cells[0] == ["omega", "a"]
    a = oracle.spectral(retarded, 0.3, oracle.OMEGAS)
    assert [[float(c) for c in row] for row in cells[1:]] == [
        [w, x] for w, x in zip(oracle.OMEGAS, a)
    ]


def test_greens_builds_the_exact_hamiltonian_once(tmp_path, monkeypatch):
    calls = []
    build = oracle.fermionic_hamiltonian
    monkeypatch.setattr(oracle, "fermionic_hamiltonian", lambda *a: calls.append(a) or build(*a))
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--pairs", "1,1,up;2,1,up",
                   "--steps", "2", "--tmax", "0.5", "--dt", "0.25",
                   "--observables", "lesser_gf,retarded_gf", "--out", str(tmp_path))
    assert code == 0
    assert len(calls) == 1


def test_greens_propagates_each_start_state_once(tmp_path, monkeypatch):
    # the README's chain(3) command: its three j = 1 pairs share one ket
    # and one bra (six propagations as one circuit call per pair)
    runs = []
    simulate = gates.simulate_sector
    monkeypatch.setattr(gates, "simulate_sector", lambda *a: runs.append(a[1]) or simulate(*a))
    code = run_cli("greens", "--geometry", "chain:3", "--J", "1", "--v", "1", "--init", "u,d,0",
                   "--steps", "30", "--pairs", "1,1,up;2,1,up;3,1,up", "--out", str(tmp_path))
    assert code == 0
    assert len(runs) == 2
    assert len(list(tmp_path.glob("gf_lesser_*.csv"))) == 6


def test_greens_refuses_spectral_on_an_off_diagonal_pair(tmp_path, capsys):
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--pairs", "1,1,up;1,2,up",
                   "--observables", "spectral", "--out", str(tmp_path))
    assert code == 1
    assert "config error: pairs: spectral needs i == j, got 1,2,up" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_greens_refuses_spectral_from_one_time_point(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--tmax", "0.01",
                   "--observables", "spectral", "--out", str(out))
    assert code == 1
    assert "config error: tmax: spectral needs tmax >= dt" in capsys.readouterr().err
    assert not out.exists()


def test_greens_budget_checks_the_retarded_grid_only_when_it_builds_one(tmp_path, capsys):
    # the lesser lane runs on LESSER_TIMES and never reads --dt; its retarded
    # twin needs a 256 x 1000001 complex grid, over the dense budget
    argv = ("greens", "--geometry", "chain:4", "--init", "u,ud,u,d", "--pairs", "2,2,down",
            "--tmax", "1", "--dt", "1e-6")
    lesser, retarded = tmp_path / "lesser", tmp_path / "retarded"
    assert run_cli(*argv, "--observables", "lesser_gf", "--out", str(lesser)) == 0
    assert (lesser / "gf_lesser_circuit_i2_j2_down.csv").exists()
    assert run_cli(*argv, "--observables", "retarded_gf", "--out", str(retarded)) == 1
    assert "error: time grid: a dense 256 x 1000001 complex matrix needs" in capsys.readouterr().err
    assert not retarded.exists()


def test_resources_prints_comparison(capsys):
    code = run_cli("resources", "--geometry", "2x4")
    out = capsys.readouterr().out
    assert code == 0
    assert "80" in out and "112" in out
    assert "two-body gates per step: 80 (ququart) vs 112 (qubit zig-zag)" in out
    assert run_cli("resources", "--geometry", "chain:3") == 0
    out = capsys.readouterr().out
    assert "qubit_zigzag" not in out and "two-body gates per step" not in out


@pytest.mark.parametrize("command, out", [("map", Path(os.devnull) / "x"), ("greens", None)],
                         ids=["under-a-non-directory", "an-existing-file"])
def test_an_unwritable_out_exits_one_with_one_error_line(tmp_path, capsys, command, out):
    if out is None:
        out = tmp_path / "taken"
        out.write_text("")
    assert main([command, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_one_without_a_traceback(unbuffered):
    # the reader of stdout is gone before the first byte: with a buffered
    # stdout the error shows at the last flush, unbuffered at the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "PYTHONUNBUFFERED": unbuffered}
    try:
        result = subprocess.run([sys.executable, "-m", "ququart_hubbard", "resources",
                                 "--geometry", "2x4"], stdout=write_end, stderr=subprocess.PIPE,
                                env=env, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""


def test_resources_bad_lattice_exits_one(capsys):
    code = run_cli("resources", "--geometry", "3x5")
    assert code == 1
    assert run_cli("resources", "--geometry", "1x8x2") == 1
    assert capsys.readouterr().err.endswith(
        "geometry: cannot parse geometry '1x8x2'; use chain:L, ladder:2xN, 1xL or 2xN\n")


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


def flip_piece_one(monkeypatch):
    """Give hopping piece 1 the wrong middle-layer sign on its (0,1) pair."""
    piece = transpile._PIECES[1]
    monkeypatch.setitem(transpile._PIECES, 1, piece._replace(middle=(("y", -1.0), ("y", +1.0))))


def test_validate_reports_a_missed_synthesis_and_goes_on(monkeypatch, capsys):
    fidelity = next(c for c in acceptance.CHECKS if c.name == "criterion_5_transpiler_fidelity")
    monkeypatch.setattr(acceptance, "CHECKS", (fidelity, fake_check(6, True)))
    flip_piece_one(monkeypatch)
    assert run_cli("validate") == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[FAIL] criterion 5: transpiled circuits match targets")
    assert lines[1] == "[PASS] criterion 6: fake criterion  [detail]"


@pytest.mark.parametrize("command,flag", [("evolve", "--tau-stop"), ("greens", "--tmax")],
                         ids=["evolve", "greens"])
def test_ladder_dynamics_refused(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    code = run_cli(command, "--geometry", "ladder:2x2", "--init", "u,d,0,0",
                   flag, "0.5", "--steps", "2", "--out", str(out))
    assert code == 1
    assert "ladder(2,2) are not supported" in capsys.readouterr().err
    assert not out.exists()


def test_transpile_writes_nothing_when_the_residual_gate_fails(tmp_path, capsys, monkeypatch):
    flip_piece_one(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("transpile", "--geometry", "chain:2", "--tau-start", "1.0", "--steps", "3",
                   "--out", str(out)) == 3
    assert "synthesis residual: term 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("evolve", ["--tau-stop", "1.0"]),
    ("greens", ["--pairs", "2,2,down;1,2,down", "--observables", "lesser_gf,retarded_gf"]),
], ids=["evolve", "greens"])
def test_a_grid_whose_blocks_leak_charge_exits_three_before_output(tmp_path, capsys,
                                                                   monkeypatch, command, flags):
    # with piece 1's middle sign flipped the fused chain(4) blocks couple
    # different (N_up, N_dn); the sector lane refuses the grid
    flip_piece_one(monkeypatch)
    transpile.trotter_grid.cache_clear()  # no cached unmutated grid is reused
    out = tmp_path / "out"
    try:
        code = run_cli(command, "--geometry", "chain:4", "--init", "u,ud,u,d", "--steps", "3",
                       *flags, "--out", str(out))
    finally:
        transpile.trotter_grid.cache_clear()  # no mutated grid outlives the test
    assert code == 3
    assert "couples different (N_up, N_dn) by" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["5,5,up", "0,1,up", "1,x,up"])
def test_bad_pairs_exit_one(tmp_path, capsys, pairs):
    code = run_cli("greens", "--geometry", "chain:3", "--init", "u,d,0", "--pairs", pairs,
                   "--observables", "retarded_gf", "--out", str(tmp_path))
    assert code == 1
    assert "config error: pairs:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command,flag,value,field",
    [
        ("greens", "--eta", "nan", "eta"),
        ("evolve", "--J", "nan", "J"),
        ("evolve", "--v", "inf", "v"),
        ("evolve", "--tau-start", "nan", "tau_start"),
        ("evolve", "--tau-stop", "-inf", "tau_stop"),
        ("evolve", "--tau-step", "inf", "tau_step"),
        ("greens", "--dt", "nan", "dt"),
        ("greens", "--tmax", "inf", "tmax"),
    ],
    ids=["eta", "J", "v", "tau_start", "tau_stop", "tau_step", "dt", "tmax"],
)
def test_non_finite_value_exits_one(tmp_path, capsys, command, flag, value, field):
    out = tmp_path / "out"
    observables = ("--observables", "spectral") if command == "greens" else ()
    code = run_cli(command, "--geometry", "chain:2", "--init", "u,d", *observables,
                   f"{flag}={value}", "--out", str(out))
    assert code == 1
    assert f"config error: {field}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_greens_refuses_a_time_grid_over_the_dense_budget(tmp_path, capsys, monkeypatch):
    # chain:2's H needs 16 x 16 x 16 B; one phase matrix over the default
    # 801-point retarded grid needs 16 x 801 x 16 B
    out = tmp_path / "out"
    argv = ("greens", "--geometry", "chain:2", "--init", "u,d", "--observables", "retarded_gf",
            "--out", str(out))
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 16 * 801 * 16 - 1)
    assert run_cli(*argv) == 1
    assert "error: time grid: a dense 16 x 801 complex matrix needs" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 16 * 801 * 16)
    assert run_cli(*argv) == 0


def test_greens_refuses_a_hamiltonian_over_the_dense_budget_before_output(tmp_path, capsys,
                                                                        monkeypatch):
    # chain:2's H needs 16 x 16 x 16 B; the 2-point grid needs 16 x 2 x 16 B
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 16 * 16 * 16 - 1)
    out = tmp_path / "out"
    assert run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--tmax", "0.05",
                   "--out", str(out)) == 1
    assert "error: 2 sites: a dense 16 x 16 complex matrix needs" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_refuses_a_hamiltonian_over_the_dense_budget_before_output(tmp_path, capsys,
                                                                        monkeypatch):
    # chain:2's H needs 16 x 16 x 16 B; the default tau grid needs 1 x 10 x 16 B
    monkeypatch.setattr(linalg, "DENSE_BUDGET_BYTES", 16 * 16 * 16 - 1)
    out = tmp_path / "out"
    assert run_cli("evolve", "--geometry", "chain:2", "--init", "u,d", "--out", str(out)) == 1
    assert "error: 2 sites: a dense 16 x 16 complex matrix needs" in capsys.readouterr().err
    assert not out.exists()


def test_a_time_grid_whose_span_overflows_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("evolve", "--geometry", "chain:2", "--init", "u,d", "--tau-start=-1e308",
                   "--tau-stop=1e308", "--out", str(out))
    assert code == 1
    assert "error: time grid: a dense 1 x " in capsys.readouterr().err
    assert not out.exists()


def test_greens_retarded_on_five_sites(tmp_path):
    code = run_cli("greens", "--geometry", "chain:5", "--init", "u,d,0,ud,u",
                   "--observables", "retarded_gf", "--tmax", "1", "--dt", "0.5",
                   "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "gf_retarded_oracle_i1_j1_up.csv"
    assert path.read_text().startswith("# i=1 j=1 spin=up kind=retarded L=5 ")
    t, re, im = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    assert np.array_equal(t, [0.0, 0.5, 1.0])
    assert abs(complex(re[0], im[0]) - (-0.5j)) <= 1e-12


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


def _subparsers() -> dict:
    parser = cli.build_parser()
    return next(a for a in parser._actions if a.dest == "command").choices


def _non_default(f):
    """A valid value for field f that differs from its default where the
    type allows it generically (numbers)."""
    return f.default + 1 if f.type in (int, float) else f.default


def _reads(command):
    return cli._COMMANDS[command][2]


def test_each_subcommand_mounts_the_fields_it_reads():
    subparsers = _subparsers()
    assert list(subparsers) == list(cli._COMMANDS)
    assert sum(len(_reads(command)) for command in cli._COMMANDS) == 32
    for command, sub in subparsers.items():
        declared = [f for f in dataclasses.fields(cli.RunConfig) if f.name in _reads(command)]
        assert [a.dest for a in sub._actions] == ["help"] + [f.name for f in declared]
        for f in declared:
            [action] = [a for a in sub._actions if a.dest == f.name]
            [flag] = action.option_strings
            assert flag == "--" + f.name.replace("_", "-")
            value = _non_default(f)
            argv = [command, flag, ",".join(value) if f.type is tuple else str(value)]
            args = cli.build_parser().parse_args(argv)
            assert all(getattr(args, g.name) is None for g in declared if g is not f)
            config = cli._build_config(args)
            assert config == dataclasses.replace(cli.RunConfig(), **{f.name: value})
            assert type(getattr(config, f.name)) is type(f.default)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["resources", "--geometry", "1x8", "--J", "7"], "unrecognized arguments: --J 7"),
        (["validate", "--geometry", "chain:2"], "unrecognized arguments: --geometry"),
        (["map", "--steps", "5"], "unrecognized arguments: --steps 5"),
        (["evolve", "--steps", "abc"], "argument --steps: invalid int value: 'abc'"),
        *[([command, "--config", "x.json"], "unrecognized arguments: --config x.json")
          for command in cli._COMMANDS],
    ],
    ids=["resources-J", "validate-geometry", "map-steps", "evolve-steps-abc",
         *[f"{command}-config" for command in cli._COMMANDS]],
)
def test_usage_errors_exit_one_and_write_nothing(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--help")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: ququart-hubbard {command}")


def test_readme_commands_parse():
    text = (Path(__file__).parents[1] / "README.md").read_text().replace("\\\n", " ")
    commands = [shlex.split(line.replace("$n", "5").split("ququart-hubbard", 1)[1])
                for line in text.splitlines() if line.lstrip().startswith("ququart-hubbard ")]
    assert len(commands) == 14
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        cli._build_config(args)


def test_readme_resources_example_is_the_commands_output(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("For `--geometry 2x4`:\n\n```text\n", 1)[1].split("```", 1)[0]
    assert run_cli("resources", "--geometry", "2x4") == 0
    (*readme_doc, readme_summary), (*doc, summary) = (
        output.rstrip("\n").split("\n") for output in (block, capsys.readouterr().out))
    assert json.loads("\n".join(readme_doc)) == json.loads("\n".join(doc))
    assert readme_summary == summary


_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)}


class _Recording(cli.RunConfig):
    """A RunConfig that records in `reads` which of its fields are read."""

    def __getattribute__(self, name):
        if name in _FIELDS:
            object.__getattribute__(self, "reads").add(name)
        return super().__getattribute__(name)


def test_each_subcommand_reads_exactly_its_declared_fields(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CHECKS", (fake_check(1, True),))
    out = ("--out", str(tmp_path))
    runs = {
        "map": [("--geometry", "chain:2", *out)],
        "transpile": [("--geometry", "chain:2", "--steps", "2", *out)],
        "evolve": [("--geometry", "chain:2", "--tau-stop", "1", "--steps", "2", *out)],
        "greens": [("--geometry", "chain:2", "--steps", "2", "--tmax", "0.5", "--dt", "0.25",
                    "--observables", observables, *out)
                   for observables in ("lesser_gf", "retarded_gf", "spectral")],
        "resources": [("--geometry", "2x4"), ("--geometry", "chain:3")],
        "validate": [()],
    }
    assert list(runs) == list(cli._COMMANDS)
    for command, argvs in runs.items():
        recorded = set()
        for argv in argvs:
            config = cli._build_config(cli.build_parser().parse_args([command, *argv]))
            recording = _Recording(**dataclasses.asdict(config))
            recording.reads = recorded
            assert cli._COMMANDS[command][0](recording) == 0
        assert recorded == _reads(command), command


def test_evolve_default_taus_are_the_criterion_6_grid():
    assert np.array_equal(cli.RunConfig().tau_grid(), acceptance.TAU_GRID)


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("greens", "--steps", "0", "steps: must be >= 1"),
        ("greens", "--eta", "0", "eta: must be > 0"),
        ("greens", "--dt", "-0.05", "dt: must be > 0"),
        ("greens", "--tmax", "0", "tmax: must be > 0"),
        ("evolve", "--tau-step", "-0.5", "tau_step: must be > 0"),
    ],
    ids=["steps", "eta", "dt", "tmax", "tau_step"],
)
def test_value_below_its_bound_exits_one(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "out"
    code = run_cli(command, "--geometry", "chain:2", "--init", "u,d", f"{flag}={value}",
                   "--out", str(out))
    assert code == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_tau_grid_never_passes_its_stop(tmp_path):
    code = run_cli("evolve", "--geometry", "chain:2", "--init", "u,d", "--tau-start", "0",
                   "--tau-stop", "1", "--tau-step", "0.6", "--steps", "2", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "populations.csv") as fh:
        assert {float(r["tau"]) for r in csv.DictReader(fh)} == {0.0, 0.6}


def test_greens_time_grid_never_passes_tmax(tmp_path):
    code = run_cli("greens", "--geometry", "chain:2", "--init", "u,d", "--observables",
                   "retarded_gf", "--tmax", "1", "--dt", "0.6", "--out", str(tmp_path))
    assert code == 0
    t = np.loadtxt(tmp_path / "gf_retarded_oracle_i1_j1_up.csv", delimiter=",", skiprows=2)[:, 0]
    assert np.array_equal(t, [0.0, 0.6])


@pytest.mark.parametrize("stop", ["0.8", "0.7"])
def test_tau_stop_before_start_exits_one_before_output(tmp_path, capsys, stop):
    out = tmp_path / "out"
    code = run_cli("evolve", "--geometry", "chain:2", "--init", "u,d", "--tau-start", "1",
                   "--tau-stop", stop, "--out", str(out))
    assert code == 1
    assert "config error: tau grid: stop precedes start" in capsys.readouterr().err
    assert not out.exists()


def test_transpile_reads_no_tau_stop(tmp_path):
    # transpile's one tau is --tau-start; the default --tau-stop 5 is evolve's
    code = run_cli("transpile", "--geometry", "chain:2", "--tau-start", "6", "--out", str(tmp_path))
    assert code == 0
    assert gates.load_circuit(tmp_path / "circuit.json").metadata["tau"] == 6.0
