"""Benchmark of the ququart-hubbard toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload greens_chain4 --seed 1 --seconds 30 --trace 0

Each workload execution runs in a fresh interpreter (``execute.py``), so
the package's lru_caches start empty as they do for each CLI user, and one
execution runs at a time: a closed loop with one client. Executions are
started while the next one is predicted to finish within ``--seconds``;
at least one always runs. Before the loop, a few set-up-only interpreters
measure set-up time (interpreter start, ``import ququart_hubbard`` and input
generation, up to the first timed call).

With ``--trace 0`` the last output line reports the end-to-end metrics:
the median execution wall time over executions whose checks all passed,
the median set-up time over every interpreter started, and the median peak
RSS. With ``--trace 1`` the package's public call boundaries are wrapped
and the line reports the per-layer metrics (medians over executions),
accuracy figures, source line counts and tracing overhead; spans go to
``.perfbench/spans_<workload>_<n>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "ququart_hubbard"
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150
ACCURACY_METRICS = ("gf_max_abs_dev", "sum_rule_err")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def source_line_counts(package: Path = PACKAGE) -> dict:
    """Physical lines (as ``wc -l`` counts them, blank lines, comments and
    docstrings included) of each ``.py`` file directly in the package."""
    counts = {}
    for path in sorted(package.glob("*.py")):
        counts[f"loc.{path.stem}"] = path.read_bytes().count(b"\n")
    counts["loc.total"] = sum(counts.values())
    return counts


def spawn(args: list, env: dict) -> dict:
    """Run ``execute.py`` to completion and return its JSON record."""
    command = [sys.executable, str(HERE / "execute.py"), *args, "--spawned-at"]
    started = time.monotonic()
    proc = subprocess.run(
        [*command, repr(started)], env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"execute.py {' '.join(args)} exited {proc.returncode}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.monotonic() - started
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: str(blas_threads) for name in BLAS_ENV})
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [spawn([*base, "--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES)]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    records = []
    start = time.monotonic()
    while True:
        extra = []
        if trace:
            spans = ROOT / ".perfbench" / f"spans_{workload}_{len(records)}.json"
            extra = ["--trace-to", str(spans)]
        run_id = f"{workload}-{seed}-{len(records)}"
        records.append(spawn([*base, "--run-id", run_id, *extra], env))
        predicted = statistics.median(r["elapsed_s"] for r in records)
        if time.monotonic() - start + predicted > seconds:
            break
    setups += [r["setup_s"] for r in records]
    return {"records": records, "setups": setups}


def declared(kind: str) -> dict:
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json, or {name: why} of its ``workloads``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {e["name"]: e.get("unit", e.get("why")) for e in spec[kind]}


def summarize(workload: str, outcome: dict, trace: bool, blas_threads: int) -> dict:
    records = outcome["records"]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    passed = [r for r in records if r["failed"] == 0] or records
    walls = [r["wall_s"] for r in passed]
    print(
        f"{workload}: {blas_threads} BLAS threads; {len(records)} executions, {len(walls)} "
        f"timed: wall_s {' '.join(f'{w:.3f}' for w in walls)}, median "
        f"{statistics.median(walls):.3f}, max {max(walls):.3f}; {len(outcome['setups'])} "
        f"set-up samples; {attempted - failed}/{attempted} items passed"
    )
    if trace:
        values = {
            name: statistics.median(r["layers"][name] for r in records)
            for name in records[0]["layers"]
        }
        for name in ACCURACY_METRICS:
            found = [r["accuracy"][name] for r in records if name in r["accuracy"]]
            # 0 marks a figure this workload does not compute
            values[f"accuracy.{name}"] = statistics.median(found) if found else 0.0
        values.update(source_line_counts())
        values.update(
            traced_wall_s=statistics.median(walls),
            executions=len(records),
            fail_frac=failed / attempted,
        )
        units = declared("per_layer")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(outcome["setups"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        }
        units = declared("end_to_end")
    if set(values) != set(units):
        raise KeyError(f"measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=declared("workloads"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=min(2, os.cpu_count() or 1),
                        help="BLAS threads per execution (default: min(2, nproc))")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.blas_threads)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args.workload, outcome, bool(args.trace), args.blas_threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
