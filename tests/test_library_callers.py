"""Every library function has a caller in the library, and every result
field is read.

The library keeps one route per computation; alternative routes and
helpers only tests use live in ``tests/``.  So every top-level function
and every method (dunders aside) under ``src/noise_lattice`` must be named
somewhere in ``src/`` outside its own body; exporting a name from
``__init__.py`` is not a call, nor is assigning a variable or attribute
of the same name.  Names are matched as written (``f(...)``, ``obj.f``),
not resolved, which is enough to catch a function nothing calls.

A result states each verdict once, so every annotated field of a class
under ``src/noise_lattice`` (an ``errors.Record`` or ``NamedTuple``
field) must be read as an attribute (``obj.field``) somewhere in ``src/``
or ``tests/``; a field nobody reads is either unused or repeats another.

``cli`` parses, calls and prints: each verdict and number a command
prints comes from the library route that ``check all`` runs.  So
``cli.py`` reads no backend tolerance (``ntba.presentation_problem``
decides whether complement pairs need checking), no block count
(``spectrum.certified_levels`` turns them into dims) and no membership of
the symbolic algebra (``cofinite.complement_problems`` gives the
completion verdict).  Nor does it do bit arithmetic: the membership
pattern ``spectrum report`` prints is ``spectrum.membership``'s row, the
one ``spectral-completeness`` measures.
"""

import ast
from collections import defaultdict
from pathlib import Path

import noise_lattice
from test_traced_targets import load_layers

SRC = Path(noise_lattice.__file__).parent

# names whose use is a decision that belongs to a library module
DECISIONS = {"tol", "n_blocks", "in_algebra"}

# operators whose use in cli.py would compute a membership bit by hand
BIT_OPERATORS = (ast.BitAnd, ast.BitOr, ast.LShift, ast.RShift)

# perfbench/layers.py wraps these by name in the traced benchmark run, so
# they stay until that list drops them, though only tests call them
PINNED = {
    "float_nullspace": "perfbench FLOAT_LINALG span linalg.float_nullspace",
    "canonical_key": "perfbench EXTRA span Subspace.canonical_key",
}


def test_each_pinned_name_is_still_wrapped_by_perfbench():
    """A ``PINNED`` exemption expires with its pin: once perfbench stops
    wrapping a name, the name needs a library caller like any other."""
    layers = load_layers()
    extra = [f"{module}.{t}" for module, names in layers.EXTRA.items() for t in names]
    wrapped = {t.rsplit(".", 1)[-1] for t in [*layers.FLOAT_LINALG, *layers.NAMED, *extra]}
    assert not set(PINNED) - wrapped, f"perfbench no longer wraps: {set(PINNED) - wrapped}"


def _definitions(tree: ast.Module):
    """(name, node) of each top-level function and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, item


def _references(tree: ast.Module):
    """(name, line) of every name or attribute read; an assignment is no reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_every_library_function_has_a_library_caller():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    refs = defaultdict(list)  # name -> (module, line) of each reference
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs[name].append((module, line))
    uncalled = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            if name in PINNED:
                continue
            own_body = range(node.lineno, node.end_lineno + 1)
            if all(m == module and line in own_body for m, line in refs[name]):
                uncalled.append(f"{module}:{node.lineno} {name}")
    assert not uncalled, f"nothing in the library calls: {uncalled}"


def _fields(tree: ast.Module):
    """(class, field, line) of each annotated field of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def _attributes_read(tree: ast.Module) -> set:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_result_field_is_read():
    sources = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    read = set().union(*map(_attributes_read, trees.values()))
    unread = [
        f"{path.name}:{line} {cls}.{name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for cls, name, line in _fields(tree)
        if name not in read
    ]
    assert not unread, f"nothing reads the fields: {unread}"


def test_cli_decides_nothing():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [f"cli.py:{line} {name}" for name, line in _references(tree) if name in DECISIONS]
    found += [
        f"cli.py:{node.lineno} {type(node.op).__name__}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, BIT_OPERATORS)
    ]
    assert not found, f"cli decides what a library route should: {found}"
