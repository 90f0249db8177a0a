import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from ququart_hubbard import cli

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


def test_console_script_runs_the_cli_main():
    # the installed `ququart-hubbard` command calls the [project.scripts] target
    import tomllib  # Python 3.11+

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["ququart-hubbard"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_traced_benchmark_finds_every_call_boundary():
    # the traced benchmark wraps package functions by attribute name; a
    # removed or renamed one fails here rather than in every traced run
    code = "import tracing; tracer = tracing.Tracer('t'); tracing.install(tracer); tracer.restore()"
    result = run_python(code, SRC, ROOT / "perfbench")
    assert result.returncode == 0, result.stderr


def module_level_names(stmt) -> list:
    """(name, is_import) of each name a top-level statement binds."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [((a.asname or a.name).split(".")[0], True) for a in stmt.names]
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [(stmt.name, False)]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [(n.id, False) for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def test_no_module_keeps_a_name_it_never_reads():
    # a top-level import, or a module-level _private name, that its module
    # never reads again is what a deletion leaves behind
    dead = []
    for path in sorted((SRC / "ququart_hubbard").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for stmt in tree.body:
            for name, imported in module_level_names(stmt):
                checked = imported or name.startswith("_") and name != "__version__"
                if checked and name not in read:
                    dead.append(f"{path.relative_to(SRC)}:{stmt.lineno} {name}")
    assert dead == []


def statement_reads(stmt) -> set:
    """The names a statement reads: a loaded name, an attribute, an
    imported name or a string constant (perfbench wraps functions by name)."""
    reads = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            reads.add(n.id)
        elif isinstance(n, ast.Attribute):
            reads.add(n.attr)
        elif isinstance(n, ast.alias):
            reads.add(n.name)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            reads.add(n.value)
    return reads


def test_every_top_level_definition_has_a_caller():
    # a def or class that only tests read is package code kept alive by its
    # tests; a read inside its own definition does not count
    readers = {}  # name -> the (file, statement) pairs that read it
    definitions = []
    for path in sorted([*(SRC / "ququart_hubbard").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")]):
        for k, stmt in enumerate(ast.parse(path.read_text()).body):
            for name in statement_reads(stmt):
                readers.setdefault(name, set()).add((path, k))
            if path.is_relative_to(SRC) and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path, k, stmt))
    unread = [f"{path.relative_to(SRC)}:{stmt.lineno} {stmt.name}"
              for path, k, stmt in definitions if not readers.get(stmt.name, set()) - {(path, k)}]
    assert len(definitions) > 100
    assert unread == []
