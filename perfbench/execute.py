"""One workload execution in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH`` and the
BLAS thread count fixed in the environment. Prints one JSON record as its
last line of output: set-up time (from the parent's spawn time to the
first timed call), the execution's wall time, peak RSS, the checked
items, accuracy figures, and with ``--trace-to`` the per-layer numbers.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before starting this process")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-to", default="",
                        help="trace the execution and write its spans to this file")
    args = parser.parse_args(argv)

    import numpy as np

    import ququart_hubbard
    import workloads

    root = Path(__file__).resolve().parent.parent
    if Path(ququart_hubbard.__file__).resolve().parent != root / "src" / "ququart_hubbard":
        print(f"imported {ququart_hubbard.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(np.random.default_rng(args.seed))
    setup_s = time.monotonic() - args.spawned_at
    record = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace_to:
        import tracing

        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=root / ".perfbench"))
    result = None
    try:
        start = time.perf_counter()
        try:
            result = workload.execute(inputs, workdir)
        finally:
            wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
    except Exception:
        traceback.print_exc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if result is None:
        items, accuracy = [workloads.Item("execute", False, "raised")], {}
    else:
        try:
            items, accuracy = workload.check(inputs, result)
        except Exception:
            traceback.print_exc()
            items, accuracy = [workloads.Item("check", False, "raised")], {}
    for item in items:
        if not item.ok:
            print(f"FAILED {args.workload} {item.name}: {item.detail}", file=sys.stderr)
    record.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=len(items),
        failed=sum(not item.ok for item in items),
        items=[[item.name, bool(item.ok), item.detail] for item in items],
        accuracy=accuracy,
    )
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s)
        with open(args.trace_to, "w") as fh:
            json.dump(tracer.span_rows(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
