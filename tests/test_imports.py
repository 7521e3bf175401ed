"""Every name a library module imports is used in that module, every
private module-level name is referenced by some module of the package,
no module but `solvers` reaches the internals of its one certified
solve, no module but `critical` reaches the solve of a descent cell,
every third-party package the library or its tests import is declared
in `pyproject.toml` (the library imports none), and the library runs
without mpmath.

`__init__.py` is left out of the unused-import check: it imports names
to re-export them.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import doublebase

PACKAGE = sorted(Path(doublebase.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os, sys\nfrom math import pi as p, e\nprint(sys.argv, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: p"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assigned names starting with
    one underscore (dunders are left out), with their lines."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node.lineno
    return {k: v for k, v in found.items() if k.startswith("_") and not k.startswith("__")}


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of the given modules that no module
    reads: as a name, as an attribute or in a from-import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{name}:{line} {defined}" for name, tree in trees.items()
            for defined, line in private_definitions(tree).items() if defined not in read]


def test_the_check_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_CAP = 3\n_gone, _kept = 1, 2\ndef _helper():\n    return _CAP\nclass _Old:\n    pass\n",
        "b.py": "from .a import _helper\nimport a\nprint(_helper(), a._kept)\n__all__ = []\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:2 _gone", "a.py:5 _Old"]


def test_no_unreferenced_private_names():
    assert unreferenced_private_names({p.name: p.read_text() for p in PACKAGE}) == []


SOLVE_INTERNALS = {"_zeroin", "_step_out", "_secant", "_outward"}


def imported_names(source: str) -> set[str]:
    """The names a module takes from other modules: by from-import or as
    an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_the_check_sees_imported_names():
    source = "from .solvers import Bracket, _zeroin as z\nimport math\nmath.pi\n"
    assert imported_names(source) == {"Bracket", "_zeroin", "pi"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solvers.py"], ids=lambda p: p.name)
def test_only_solvers_reaches_the_solve_internals(path):
    # every monotone root goes through solvers.solve_decreasing
    assert imported_names(path.read_text()) & SOLVE_INTERNALS == set()


CELL_INTERNALS = {"_Cell", "_solve", "_node_f", "_formula_root", "_hermite"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "critical.py"], ids=lambda p: p.name)
def test_only_critical_reaches_the_cell_solve(path):
    # a descent cell becomes a bracket or a placed q1 inside critical only
    assert imported_names(path.read_text()) & CELL_INTERNALS == set()


def third_party_imports(source: str) -> set[str]:
    """Top-level package names of a module's absolute imports that are
    not in the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def declared(specs: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in specs}


def project_table() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_the_check_sees_third_party_imports():
    source = "import os, numpy.linalg\nfrom mpmath import mp\nfrom . import words\n"
    assert third_party_imports(source) == {"numpy", "mpmath"}
    assert declared(["mpmath", "numpy>=1.22", "pytest"]) == {"mpmath", "numpy", "pytest"}


def test_library_imports_are_its_dependencies():
    used = set().union(*(third_party_imports(p.read_text()) for p in PACKAGE))
    assert used == declared(project_table()["dependencies"])


def test_test_imports_are_declared():
    project = project_table()
    allowed = declared(project["dependencies"] + project["optional-dependencies"]["test"])
    used = set().union(*(third_party_imports(p.read_text()) for p in (ROOT / "tests").glob("*.py")))
    assert used - allowed <= {"doublebase", "conftest"}


def test_import_leaves_numpy_unloaded():
    # entropy is pure Python and the high-precision sign runs on the
    # standard library's decimal: a fresh process pays for no third-party
    # package
    env = dict(os.environ, PYTHONPATH=str(Path(doublebase.__file__).parents[1]))
    code = "import sys, doublebase; print(sorted(m for m in ('numpy', 'scipy', 'mpmath') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # every import of mpmath now raises ImportError
import doublebase as d
from doublebase.cli import main
from doublebase.config import Config
words = d.parse_word("(01)"), d.parse_word("(10)")
assert d.generalized_golden_ratio(1.75).value.width > 0  # cold
assert d.komornik_loreti(10.0, max_depth=100).value.width > 0
assert abs(d.mu(*words).mid - (1 + 5 ** 0.5) / 2) < 1e-9
d.classify_univoque(1.9, 1.8)
assert d.entropy_estimate(1.9, 1.8) > 0
assert d.univoque_dimension_lower_bound(1.9, 1.8) > 0
assert d.generalized_golden_ratio(1.5, config=Config(tol=1e-20)).value.width <= 1e-20
assert main(["gr", "1.75"]) == 0
assert main(["verify", "--q0", "2", "--q1", "1.6", "--word", "1(0)"]) == 0
"""


def test_the_library_runs_without_mpmath():
    # mpmath is a test extra: the public surface, the Decimal tier and
    # the command line run with every import of it failing
    env = dict(os.environ, PYTHONPATH=str(Path(doublebase.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", WITHOUT_MPMATH], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "Boundary"
