"""Checks on the package source itself."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eulerdist.atoms import Delta, MonLog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "eulerdist"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # Invariants raise typed EulerDistErrors: `python -O` strips asserts.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


@pytest.mark.parametrize("name", ["__hash__", "__eq__", "__ne__", "__lt__", "__le__"])
def test_atoms_hash_and_compare_as_plain_tuples(name):
    # Factor tuples are hashed, compared and sorted in every dict and sort of
    # the symbolic core; a Python-level method here costs solve-fanout about
    # a third of its throughput.
    for cls in (MonLog, Delta):
        assert issubclass(cls, tuple)
        assert getattr(cls, name) is getattr(tuple, name), f"{cls.__name__}.{name}"


def test_traced_benchmark_names_resolve():
    # perfbench/tracer.py wraps every (module, attribute) of its LAYERS by
    # name; one that no longer exists would break only traced benchmark runs.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    places = [place for layer in tracer.LAYERS.values() for place in layer]
    assert places
    missing = [
        f"{module.__name__}.{name}"
        for module, name in places
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"perfbench/tracer.py looks up missing names: {missing}"


def test_third_party_imports_are_the_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    wanted = sorted(re.match(r"[\w.-]+", d).group() for d in project["dependencies"])
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    third_party = sorted(found - set(sys.stdlib_module_names) - {"eulerdist"})
    assert third_party == wanted


def test_cli_and_oracle_run_without_scipy():
    code = (
        "import sys\n"
        "from eulerdist import cli\n"
        "code = cli.main(['--output', sys.argv[1], 'oracle-suite', '--nmax', '1'])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code, os.devnull],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert out.stdout == "0 []\n"


def test_every_package_definition_is_reached_from_the_package():
    # What only tests reach lives in tests/paperchecks.py, not the package.
    # compare_symbolic_numeric stays: it is the acceptance gate's check of
    # solver output that does not go through the theta-table.
    allowed = {"compare_symbolic_numeric"}
    defs = []
    # (statement, names it reads): a definition counts as reached when a
    # top-level statement other than its own reads its name.
    reads = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.append((path.name, stmt))
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((stmt, names))
    unreached = [
        f"{module}:{d.name}"
        for module, d in defs
        if d.name not in allowed
        and not any(d.name in names for stmt, names in reads if stmt is not d)
    ]
    assert not unreached, f"not reached from src/eulerdist: {unreached}"
