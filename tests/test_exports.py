"""The package's public names and its imports."""

import ast
from pathlib import Path

import dynct


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dynct import *", namespace)  # AttributeError on a stale name
    assert [n for n in dynct.__all__ if n not in namespace] == []
    assert len(set(dynct.__all__)) == len(dynct.__all__)


def _unused_imports(path):
    """Names a module imports and never reads. A name a package lists in
    __all__ counts as read (a re-export); __future__ imports are skipped."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # the package, the test suite and the scripts
    tests = Path(__file__).parent
    dirs = (Path(dynct.__file__).parent, tests, tests.parent / "scripts")
    paths = sorted(p for d in dirs for p in d.glob("*.py"))
    assert all(d.is_dir() for d in dirs)
    assert [u for p in paths for u in _unused_imports(p)] == []
