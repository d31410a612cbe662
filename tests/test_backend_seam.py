"""Every exact/float decision stays behind the ``linalg`` backend seam.

The modules that compute with random variables ask ``space.backend``;
they never read ``space.mode`` to pick a branch, and no float tolerance
is defined or spelled out anywhere but in ``linalg``.
"""

import ast
from pathlib import Path

import noise_lattice
from noise_lattice import linalg

SRC = Path(noise_lattice.__file__).parent
BACKEND_USERS = ("chaos", "finmeas", "sigma", "spectrum", "ntba")
TOLERANCES = {linalg.FLOAT_TOL, linalg.GROUP_TOL, linalg.PROB_SUM_TOL}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_backend_users_never_read_the_mode():
    found = [
        f"{name}.py:{node.lineno}"
        for name in BACKEND_USERS
        for node in ast.walk(_tree(SRC / f"{name}.py"))
        if isinstance(node, ast.Attribute) and node.attr == "mode"
    ]
    assert not found, f"mode read outside the backend: {found}"


def _name_of(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return ""


def test_float_tolerances_live_only_in_linalg():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(_tree(path)):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, float)
            if (literal and node.value in TOLERANCES) or _name_of(node).endswith("_TOL"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"float tolerance outside linalg: {found}"
