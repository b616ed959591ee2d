"""Every function, class and method the package defines, and every name it
exports, is reached by the library, a demo or the bench, and every name a
module of the package imports is read by it.  Only the builders listed in
``TRUSTED_BUILDERS`` make a group without the full table check.

A name that only tests call belongs in ``tests/``; this guard keeps such
names from drifting back into ``src/``, and keeps a module from importing
what a rewrite stopped using.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "holoreg"


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree) -> tuple:
    """(names, attributes): the names a module reads or imports, and the
    attributes it reads as ``obj.name``; strings (docstrings) do not count."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def _readers() -> list:
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py")))


def _read_outside_the_tests(trees) -> tuple:
    """The (names, attributes) that any of ``trees`` reads."""
    names, attributes = set(), set()
    for tree in trees:
        n, a = _reads(tree)
        names |= n
        attributes |= a
    return names, attributes


def test_every_export_is_used_outside_the_tests():
    init = _parse(PACKAGE / "__init__.py")
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    names, attributes = _read_outside_the_tests(map(_parse, _readers()))
    assert sorted(exported - names - attributes) == []


# overrides that only the base class calls: argparse calls ``error`` on a
# malformed command line
OVERRIDES = {"_Parser.error"}


def _unread_definitions(modules, names: set, attributes: set) -> list:
    """``file:line name`` of each definition in ``modules`` (file name ->
    tree) that nothing reads: a method counts as read only through an
    attribute read, any other definition through a name, an import or an
    attribute read."""
    unread = []
    for filename, tree in modules.items():
        owners = {child: node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            owner = owners.get(node)
            name = node.name if owner is None else f"{owner}.{node.name}"
            read = node.name in attributes or (owner is None and node.name in names)
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not read and not dunder and name not in OVERRIDES:
                unread.append(f"{filename}:{node.lineno} {name}")
    return unread


def test_every_definition_is_used_outside_the_tests():
    modules = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_definitions(modules, *_read_outside_the_tests(map(_parse, _readers())))
    assert not unread, "defined in src/ but read only by tests: " + ", ".join(unread)


def test_a_method_is_not_read_through_a_local_name():
    module = ast.parse(textwrap.dedent("""
        class Box:
            def key(self):
                return 1

        def helper():
            key = 2
            return key
    """))
    reader = ast.parse("helper()\nbox = Box()\n")
    reads = _read_outside_the_tests([module, reader])
    assert _unread_definitions({"box.py": module}, *reads) == ["box.py:3 Box.key"]
    calls = ast.parse("helper()\nBox().key()\n")
    assert _unread_definitions({"box.py": module},
                               *_read_outside_the_tests([module, calls])) == []


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
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        missing = sorted(_top_level_imports(tree) - read)
        if missing:
            unused[path.name] = missing
    assert unused == {}



# The builders that may make a group through ``FiniteGroup._from_builder``,
# which runs no table check, each with the argument that its table is a
# group's.  A new caller fails the guard until it is added here.
TRUSTED_BUILDERS = {
    ("src/holoreg/groups.py", "cyclic_group"): "(a + b) mod n, the closed form of Z/n",
    ("src/holoreg/groups.py", "dihedral_group"): "r^a s^b with s r s^-1 = r^-1, s^2 = 1",
    ("src/holoreg/groups.py", "quaternion_group"):
        "r^a s^b with s r s^-1 = r^-1, s^2 = r^(n/4)",
    ("src/holoreg/groups.py", "semidirect_product"):
        "M and P are groups, and _normalize_action checked a homomorphism P -> Aut(M)",
    ("src/holoreg/groups.py", "quotient_group"): "is_subgroup and is_normal passed",
    ("src/holoreg/cgroups.py", "cgroup_group"):
        "CGroupPresentation checked that k is a unit mod e of order dividing d",
}


def _trusted_callers(modules) -> set:
    """(file, innermost enclosing function) of every read of an attribute
    ``_from_builder`` in ``modules`` (file -> tree); "<module>" outside any
    function."""
    found = set()

    def visit(filename, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Lambda):
            scope = "<lambda>"
        if isinstance(node, ast.Attribute) and node.attr == "_from_builder":
            found.add((filename, scope))
        for child in ast.iter_child_nodes(node):
            visit(filename, child, scope)

    for filename, tree in modules.items():
        visit(filename, tree, "<module>")
    return found


def test_only_the_listed_builders_skip_the_table_check():
    paths = [PACKAGE / "__init__.py"] + _readers()
    modules = {str(path.relative_to(ROOT)): _parse(path) for path in paths}
    assert _trusted_callers(modules) == set(TRUSTED_BUILDERS)


def test_the_trusted_caller_is_the_innermost_function():
    module = ast.parse(textwrap.dedent("""
        def outer():
            def inner():
                return FiniteGroup._from_builder(t, 0)
            return inner

        make = FiniteGroup._from_builder
        later = lambda t: FiniteGroup._from_builder(t, 0)
    """))
    assert _trusted_callers({"m.py": module}) == {
        ("m.py", "inner"), ("m.py", "<module>"), ("m.py", "<lambda>")}
