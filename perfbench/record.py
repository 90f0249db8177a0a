"""Record a baseline: repeated untraced runs and one traced run per workload.

Usage, from the root of a checkout:

    python3 perfbench/record.py --runs 10 --out perfbench/baseline.json

For every workload in BENCHMARK.json this makes ``--runs`` untraced runs of
``run.py`` with seeds 1..runs and reports, per end-to-end metric, the ten
values, their median and quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median. It then makes one traced run per workload at the
default BLAS thread count, and one traced run of exact_chain5 with a single
BLAS thread as a plain single-threaded baseline.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import run


def bench(workload: str, seed: int, trace: int, seconds: int, blas_threads=None) -> dict:
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if blas_threads is not None:
        command += ["--blas-threads", str(blas_threads)]
    proc = subprocess.run(command, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    print(f"seed {seed} trace {trace}: {lines[0]}", flush=True)
    return json.loads(lines[-1])


def spread_summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in run.declared("workloads"):
        results = [bench(workload, seed, 0, seconds) for seed in range(1, args.runs + 1)]
        traced = bench(workload, 1, 1, seconds)
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: spread_summary([r["metrics"][name]["value"] for r in results])
                for name in run.declared("end_to_end")
            },
            "per_layer_seed1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        if workload == "exact_chain5":
            single = bench(workload, 1, 1, seconds, blas_threads=1)
            doc["exact_chain5_blas1_per_layer_seed1"] = {
                name: m["value"] for name, m in single["metrics"].items()
            }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
