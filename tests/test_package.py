import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(code, *path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in path)}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_package_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would add to every
    # command's start-up time. The package root imports no submodule, so
    # the check imports the CLI, which imports all of them.
    code = "import sys, ququart_hubbard.cli; sys.exit('scipy' in sys.modules)"
    result = run_python(code, SRC)
    assert result.returncode == 0, result.stderr or "scipy was imported"


def test_traced_benchmark_finds_every_call_boundary():
    # the traced benchmark wraps package functions by attribute name; a
    # removed or renamed one fails here rather than in every traced run
    code = "import tracing; tracer = tracing.Tracer('t'); tracing.install(tracer); tracer.restore()"
    result = run_python(code, SRC, ROOT / "perfbench")
    assert result.returncode == 0, result.stderr
