"""Tests for the package namespace and the library's imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import usptest
from usptest import asymptotics, datasets, errors, numerics, permutation, simulate, stats, table
from usptest.stats import METHODS

MODULES = (asymptotics, datasets, errors, numerics, permutation, simulate, stats, table)
SRC = Path(usptest.__file__).resolve().parent


class TestNamespace:
    def test_all_is_the_union_of_the_module_lists(self):
        names = [name for module in MODULES for name in module.__all__]
        assert len(set(names)) == len(names)
        assert sorted(usptest.__all__) == sorted(names + ["main", "__version__"])

    def test_every_exported_name_resolves(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(usptest, name) is getattr(module, name), name
        assert callable(usptest.main) and isinstance(usptest.__version__, str)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def _bound_name(top: ast.stmt) -> str | None:
    # the name a module-level def, or an assignment to one name, binds
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return top.name
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return targets[0].id if len(targets) == 1 and isinstance(targets[0], ast.Name) else None


def _unreferenced_private_names(paths) -> list[str]:
    # module-level functions and constants named _x that no file of paths
    # refers to, by name, attribute or import, except from inside their own
    # def or assignment
    defined, referenced = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            own = _bound_name(top)
            if own and own.startswith("_") and not own.startswith("__"):
                defined.append((path.name, top.lineno, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [
        f"{file}:{line}: {name}" for file, line, name in defined if name not in referenced
    ]


class TestImports:
    def test_no_unused_import_in_the_library(self):
        unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
        assert unused == []

    def test_checker_sees_an_unused_import(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n")
        assert _unused_imports(path) == ["mod.py:1: os", "mod.py:3: pi"]

    def test_every_private_function_is_referenced(self):
        # a path that a faster one replaced is deleted, not left behind
        assert _unreferenced_private_names(sorted(SRC.glob("*.py"))) == []

    def test_checker_sees_an_unreferenced_private_function(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text(
            "def _old(n):\n    return _old(n - 1) if n else 0\n"
            "def _used():\n    pass\n"
            "def _imported():\n    pass\n"
            "def _attr():\n    pass\n"
            "def __dunder__():\n    pass\n"
            "def public():\n    return _used()\n"
        )
        b.write_text("from a import _imported\nimport a\na._attr()\n")
        assert _unreferenced_private_names([a, b]) == ["a.py:1: _old"]

    def test_checker_sees_an_unreferenced_private_constant(self, tmp_path):
        a, b = tmp_path / "a.py", tmp_path / "b.py"
        a.write_text(
            "_KNOB = 2.0**-40\n"
            "_TYPED: int = 100\n"
            "_USED = 1\n"
            "_IMPORTED = 2\n"
            "_ATTR = 3\n"
            "__all__ = []\n"
            "_PAIR, _OTHER = 1, 2\n"
            "def public():\n    return _USED\n"
        )
        b.write_text("from a import _IMPORTED\nimport a\nprint(a._ATTR)\n")
        assert _unreferenced_private_names([a, b]) == ["a.py:1: _KNOB", "a.py:2: _TYPED"]

    def test_cli_import_leaves_the_pool_module_out(self):
        # only a study that starts a pool imports concurrent.futures
        env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
        code = "import sys, usptest.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "False\n"


def _method_comparisons(path: Path) -> list[str]:
    # comparisons with a method name as a string constant, such as
    # test == "pearson" or method in ("usp", "g")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, const.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for const in ast.walk(operand)
        if isinstance(const, ast.Constant) and isinstance(const.value, str) and const.value in METHODS
    )
    return [f"{path.name}:{line}: {name!r}" for line, name in found]


class TestMethodDispatch:
    def test_only_stats_compares_method_names(self):
        found = [
            c for path in sorted(SRC.glob("*.py")) if path.name != "stats.py"
            for c in _method_comparisons(path)
        ]
        assert found == []

    def test_checker_sees_a_method_comparison(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'f = g if test == "pearson" else h\n'
            'ok = method in ("usp", "other")\n'
            'fine = mode == "classic" or {"g": 1}[method]\n'
        )
        assert _method_comparisons(path) == ["mod.py:1: 'pearson'", "mod.py:2: 'usp'"]


TABLE_BUILDERS = ("ContingencyTable", "validate_table", "sample_table", "subsample")
MONTE_CARLO_MODULES = ("asymptotics.py", "permutation.py", "simulate.py", "stats.py")


def _table_builds(path: Path) -> list[str]:
    # calls that build a ContingencyTable, by bare name or as an attribute
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
        if name in TABLE_BUILDERS
    )
    return [f"{path.name}:{line}: {name}" for line, name in found]


class TestMonteCarloBuildsNoTables:
    def test_monte_carlo_code_scores_counts(self):
        # replicates and permuted tables stay int64 count arrays: a table
        # object per draw would copy, validate and freeze counts that the
        # code itself made
        found = [c for name in MONTE_CARLO_MODULES for c in _table_builds(SRC / name)]
        assert found == []

    def test_checker_sees_a_table_build(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "t = sample_table(law, n, rng)\n"
            "u = table.subsample(t, 5, rng)\n"
            "def f(x: ContingencyTable) -> ContingencyTable:\n"
            "    return ContingencyTable(x.counts) if ok else validate_table(x)\n"
            '"""a docstring that calls sample_table() is prose"""\n'
        )
        assert _table_builds(path) == [
            "mod.py:1: sample_table", "mod.py:2: subsample",
            "mod.py:4: ContingencyTable", "mod.py:4: validate_table",
        ]


FAMILY_KINDS = tuple(simulate._FAMILIES)


def _family_literals(path: Path) -> list[str]:
    # string constants that spell a family kind, such as choices=("sparse", ...)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in FAMILY_KINDS
    )
    return [f"{path.name}:{line}: {name!r}" for line, name in found]


class TestFamilyTable:
    def test_only_simulate_names_family_kinds(self):
        assert FAMILY_KINDS == ("sparse", "dense", "multiplicative")
        found = [
            c for path in sorted(SRC.glob("*.py")) if path.name != "simulate.py"
            for c in _family_literals(path)
        ]
        assert found == []

    def test_checker_sees_a_family_literal(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            'DIMS = {"sparse": (5, 8)}\n'
            'kind = choose(("dense", "multiplicative"))\n'
            '"""a sparse table in a docstring is prose"""\n'
            'other = "sparse5x8"\n'
        )
        assert _family_literals(path) == [
            "mod.py:1: 'sparse'", "mod.py:2: 'dense'", "mod.py:2: 'multiplicative'",
        ]


ENV_READERS = ("environ", "getenv")


def _environment_reads(path: Path) -> list[str]:
    # os.environ and os.getenv, as attributes or as names imported from os
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = sorted(
        (node.lineno, name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
        for name in [getattr(node, "attr", None) or getattr(node, "id", None)]
        if name in ENV_READERS
    )
    return [f"{path.name}:{line}: {name}" for line, name in found]


class TestNoEnvironment:
    def test_library_reads_no_environment_variable(self):
        # every knob is an argument or a flag: a variable would change a run
        # without showing on its command line
        found = [r for path in sorted(SRC.glob("*.py")) for r in _environment_reads(path)]
        assert found == []

    def test_checker_sees_an_environment_read(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "import os\n"
            'a = os.environ.get("X", "")\n'
            'b = os.getenv("Y")\n'
            "from os import environ\n"
            'c = environ["Z"]\n'
            '"""os.environ in a docstring is prose"""\n'
        )
        assert _environment_reads(path) == [
            "mod.py:2: environ", "mod.py:3: getenv", "mod.py:5: environ",
        ]
