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
    # install() also counts the calls of Polynomial.partial.
    places.append((tracer.poly.Polynomial, "partial"))
    missing = [
        f"{owner.__name__}.{name}"
        for owner, name in places
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, f"perfbench/tracer.py looks up missing names: {missing}"


# The exact inner loops run on Python ints over one common denominator; a
# Fraction there would cost a gcd on every multiply and add again.  A
# Polynomial stores its numerators over its denominator, so its kernels read
# and write ints only; theta converts a DistExpr's Fractions outside its loops.
INTEGER_KERNELS = [
    ("poly.py", "_shift_coord"),
    ("poly.py", "poly_sum"),
    ("poly.py", "Polynomial.__mul__"),
    ("poly.py", "Polynomial.partial"),
    ("poly.py", "poly_eval"),
    ("poly.py", "substitute_coord"),
    ("theta.py", "_theta_step"),
    ("theta.py", "apply_polynomial"),
]


def _function(tree, qualname):
    body = tree.body
    for part in qualname.split("."):
        node = next(
            n for n in body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
        body = node.body
    return node


@pytest.mark.parametrize("module, qualname", INTEGER_KERNELS, ids=lambda x: x)
def test_integer_kernels_do_not_name_fraction(module, qualname):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    loops = [n for n in ast.walk(_function(tree, qualname)) if isinstance(n, ast.For)]
    assert loops, f"{module}:{qualname} has no loop"
    named = sorted(
        node.lineno
        for loop in loops
        for node in ast.walk(loop)
        if (isinstance(node, ast.Name) and node.id == "Fraction")
        or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
    )
    assert not named, f"{module}:{qualname} names Fraction in a loop at lines {named}"


def test_poly_validates_only_in_its_public_constructors():
    # Results built inside poly.py are already in the stored form: they go
    # through _make, and only zero, constant and variable take the validating
    # Polynomial(dim, terms) path.
    tree = ast.parse((SRC / "poly.py").read_text(), filename="poly.py")

    def calls(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id in ("Polynomial", "cls")
        ]

    public = [
        fn for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and fn.name in ("zero", "constant", "variable")
    ]
    assert len(public) == 3
    assert all(calls(fn) for fn in public)
    assert len(calls(tree)) == sum(len(calls(fn)) for fn in public)


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
