"""Every sigma-field is built by ``sigma``'s one first-seen numbering.

``sigma._number`` is the only place that builds a ``SigmaField`` (it
numbers the labels first-seen, so it skips the constructor's check of
them), and no other module builds one or calls ``_number``: outside
``sigma`` a field comes from ``partition``, ``trivial``, ``discrete``, a
join or a meet, so its labels are canonical by construction.
"""

import ast
from pathlib import Path

import noise_lattice

SRC = Path(noise_lattice.__file__).parent
ROUTE = ("SigmaField", "_number")


def _called(node) -> str:
    """The name called; ``object.__new__(C)`` and ``C.__new__(C)`` count as building C."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "__new__" and node.args:
        built = node.args[0]
        return built.id if isinstance(built, ast.Name) else ""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _route_calls(tree) -> list:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and _called(n) in ROUTE]


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_only_sigma_builds_sigma_fields():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "sigma.py"
        for node in _route_calls(_tree(path))
    ]
    assert not found, f"sigma-field built outside sigma: {found}"


def test_the_numbering_is_the_only_constructor_call():
    tree = _tree(SRC / "sigma.py")
    number = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_number"
    )
    inside = {id(n) for n in _route_calls(number)}
    stray = [
        n.lineno
        for n in _route_calls(tree)
        if _called(n) == "SigmaField" and id(n) not in inside
    ]
    assert not stray, f"SigmaField built outside _number at sigma.py lines {stray}"
    assert inside, "_number no longer builds the SigmaField"
