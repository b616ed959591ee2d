"""Every name the package exports is reached by the library, a demo or the
bench, and every name a module of the package imports is read by it.

A name that only tests call belongs in ``tests/``; this guard keeps such
names from drifting back into ``holoreg/__init__.py``, and keeps a module
from importing what a rewrite stopped using.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holoreg"


def _names_used(path: Path) -> set:
    """The names a module reads or imports; strings (docstrings) do not count."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_is_used_outside_the_tests():
    readers = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py")))
    used = set().union(*map(_names_used, readers))
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(exported - used) == []


def _top_level_imports(tree) -> set:
    """The names a module binds by its top-level import statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_top_level_import_is_read():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        missing = sorted(_top_level_imports(tree) - read)
        if missing:
            unused[path.name] = missing
    assert unused == {}
