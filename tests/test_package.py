import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_import_loads_no_scipy():
    # scipy is a test dependency only; importing it would add to every
    # command's start-up time
    code = "import sys, ququart_hubbard; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr or "scipy was imported"
