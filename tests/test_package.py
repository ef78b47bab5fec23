"""Tests for the package namespace and the library's imports."""

import ast
from pathlib import Path

import usptest
from usptest import asymptotics, datasets, errors, numerics, permutation, simulate, stats, table

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


class TestImports:
    def test_no_unused_import_in_the_library(self):
        unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
        assert unused == []

    def test_checker_sees_an_unused_import(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n")
        assert _unused_imports(path) == ["mod.py:1: os", "mod.py:3: pi"]
