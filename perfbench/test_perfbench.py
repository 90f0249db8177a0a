"""Tests of the benchmark's own arithmetic, tracer and correctness checks.

Each check must pass on a genuine result and reject a corrupted one.
Executions here use small lattices so the tests stay fast.
"""

import dataclasses
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run
import tracing
import workloads
from ququart_hubbard import gates


def span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, "r")


# --- self time --------------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing.covered_length([], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("emulate.a", 0.0, 10.0),
        span("gates.b", 1.0, 4.0, parent=0),
        span("gamma.c", 2.0, 3.0, parent=1),
        span("oracle.d", 6.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 3.0]


def test_layer_metrics_self_time_and_untraced_share():
    tracer = tracing.Tracer("r")
    tracer.spans = [
        span("emulate.lesser_gf_pair", 0.0, 10.0),
        span("gates.simulate", 1.0, 4.0, parent=0),
        span("gamma.rotation", 2.0, 3.0, parent=1),
        span("oracle.lesser_gf", 12.0, 15.0),
    ]
    tracer.counters["gates.ops_applied"] = 1000
    tracer.counters["gates.virtual_z"] = 600
    out = tracing.layer_metrics(tracer, wall_s=20.0)
    assert out["emulate.self_s"] == 7.0
    assert out["gates.self_s"] == 2.0
    assert out["gamma.self_s"] == 1.0
    assert out["oracle.self_s"] == 3.0
    assert out["bench.self_s"] == 20.0 - 13.0
    assert out["gates.simulate_s"] == 3.0
    assert out["gates.simulate_calls"] == 1
    assert out["gates.us_per_op"] == pytest.approx(3000.0)
    assert out["gates.virtual_z_share"] == 0.6
    assert set(out) == set(tracing.LAYER_METRICS)


def test_tracer_records_nested_spans_and_restores():
    ns = SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: 2 * ns.inner(x)
    originals = (ns.inner, ns.outer)
    tracer = tracing.Tracer("run-7")
    tracer.wrap(ns, "inner", "gates.inner", lambda c, a, k, r: c.__setitem__("seen", a[0]))
    tracer.wrap(ns, "outer", "emulate.outer")
    assert ns.outer(3) == 8
    tracer.restore()
    assert (ns.inner, ns.outer) == originals
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("emulate.outer", -1, "run-7"), ("gates.inner", 0, "run-7")]
    assert tracer.counters["seen"] == 3
    assert tracer.overhead >= 0.0


# --- checks -----------------------------------------------------------------


def test_greens_check_rejects_large_deviation():
    inp = workloads.GreensInputs()
    values = np.zeros(len(inp.times), dtype=complex)
    good = [(SimpleNamespace(values=values + 0.01), SimpleNamespace(values=values))] * 2
    items, accuracy = workloads.greens_check(inp, good)
    assert all(item.ok for item in items)
    assert accuracy["gf_max_abs_dev"] == pytest.approx(0.01)
    bad = [good[0], (SimpleNamespace(values=values + 0.06), SimpleNamespace(values=values))]
    items, _ = workloads.greens_check(inp, bad)
    assert [item.ok for item in items] == [True, False]


@pytest.fixture(scope="module")
def evolve_case():
    tokens = workloads.mirror_half_filled(np.random.default_rng(3), 4)
    inp = workloads.EvolveInputs(tokens, (0.4, 0.9), steps=1)
    return inp, workloads.evolve_execute(inp, None)


def test_mirror_half_filled_tokens():
    tokens = workloads.mirror_half_filled(np.random.default_rng(0), 8)
    assert tokens == tokens[::-1]
    assert workloads._spin_totals(tokens) == {"up": 4, "down": 4}


def test_evolve_check_passes_and_rejects_corruption(evolve_case):
    inp, (report, runs) = evolve_case
    items, _ = workloads.evolve_check(inp, (report, runs))
    assert [item.ok for item in items] == [True, True]

    circuit, state, pops = runs[0]
    broken_mirror = dict(pops)
    broken_mirror[(1, "up")] += 1e-6
    broken_mirror[(2, "up")] -= 1e-6  # particle number kept, mirror broken
    broken_norm = state * (1 + 1e-6)
    broken_count = {key: value * (1 + 1e-6) for key, value in pops.items()}
    for corrupted in (
        (report, [(circuit, state, broken_mirror), runs[1]]),
        (report, [(circuit, broken_norm, pops), runs[1]]),
        (report, [(circuit, state, broken_count), runs[1]]),
        (dataclasses.replace(report, two_body_gates_per_step=7), runs),
    ):
        items, _ = workloads.evolve_check(inp, corrupted)
        assert not items[0].ok


def test_exact_check_passes_and_rejects_corruption():
    inp = workloads.ExactInputs(
        ("u", "d"), 1, "up", times=np.arange(0.0, 1.0, 0.1), retarded_sites=2, v=2.0
    )
    lesser, (mapped, exact), a_vals = workloads.exact_execute(inp, None)
    items, accuracy = workloads.exact_check(inp, (lesser, (mapped, exact), a_vals))
    assert all(item.ok for item in items)
    assert 0.0 < accuracy["sum_rule_err"] <= 0.02

    shifted = lesser.copy()
    shifted[0] = 0.5j
    for corrupted, bad_index in (
        ((lesser, (mapped + 1e-8, exact), a_vals), 0),
        ((shifted, (mapped, exact), a_vals), 1),
        ((lesser, (mapped, exact), a_vals * 1.05), 2),
    ):
        items, _ = workloads.exact_check(inp, corrupted)
        assert [item.ok for item in items].index(False) == bad_index


def test_transpile_check_passes_and_rejects_corruption(tmp_path):
    inp = workloads.TranspileInputs((0.5,), sites=2, steps=2)
    report, emitted = workloads.transpile_execute(inp, tmp_path)
    items, _ = workloads.transpile_check(inp, (report, emitted))
    assert [item.ok for item in items] == [True]

    circuit, loaded, tally, reports = emitted[0]
    ops = list(loaded.ops)
    k = next(i for i, op in enumerate(ops) if isinstance(op, gates.Rotation))
    ops[k] = dataclasses.replace(ops[k], phi=ops[k].phi + 1e-12)
    altered = gates.Circuit(loaded.site_count, tuple(ops), loaded.metadata)
    worse = [dict(reports[0], residual_norm=1e-6), *reports[1:]]
    for corrupted in (
        (report, [(circuit, altered, tally, reports)]),
        (report, [(circuit, loaded, tally, worse)]),
    ):
        items, _ = workloads.transpile_check(inp, corrupted)
        assert [item.ok for item in items] == [False]


# --- harness ----------------------------------------------------------------


def test_workloads_and_metrics_match_benchmark_json():
    assert set(run.declared("workloads")) == set(workloads.WORKLOADS)
    layers = tracing.layer_metrics(tracing.Tracer("r"), wall_s=1.0)
    record = {
        "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0, "attempted": 2, "failed": 0,
        "accuracy": {"gf_max_abs_dev": 0.03}, "layers": layers,
    }
    outcome = {"records": [record], "setups": [0.1, 0.2]}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        summary = run.summarize("greens_chain4", outcome, trace, 2)
        assert list(summary["metrics"]) == list(run.declared(kind))
        assert summary["correct"] and summary["attempted"] == 2


def test_source_line_counts(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "b.py").write_text('"""doc"""\n')
    assert run.source_line_counts(tmp_path) == {"loc.a": 3, "loc.b": 1, "loc.total": 4}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transpile_chain8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
