"""Every function, class and method the package defines, and every name it
exports, is reached by the library, a demo or the bench, and every name a
module of the package imports is read by it.

A name that only tests call belongs in ``tests/``; this guard keeps such
names from drifting back into ``src/``, and keeps a module from importing
what a rewrite stopped using.
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


def _used_outside_the_tests() -> set:
    readers = ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
               + sorted((ROOT / "demos").glob("*.py"))
               + sorted((ROOT / "bench").glob("*.py")))
    return set().union(*map(_names_used, readers))


def test_every_export_is_used_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(exported - _used_outside_the_tests()) == []


# overrides that only the base class calls: argparse calls ``error`` on a
# malformed command line
OVERRIDES = {"_Parser.error"}


def test_every_definition_is_used_outside_the_tests():
    used = _used_outside_the_tests()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {child: f"{node.name}." for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = owners.get(node, "") + node.name
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if node.name not in used and not dunder and name not in OVERRIDES:
                unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, "defined in src/ but read only by tests: " + ", ".join(unread)


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
