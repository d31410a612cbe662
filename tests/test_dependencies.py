"""The library imports only its declared dependencies.

``scipy`` is a test dependency: importing it costs about a second and
more than doubles the peak memory of ``check all``, so no module under
``src/noise_lattice`` may import it, not even inside a function.
"""

import ast
from pathlib import Path

import noise_lattice

SRC = Path(noise_lattice.__file__).parent


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, [node.module]


def test_library_never_imports_scipy():
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, names in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if any(name == "scipy" or name.startswith("scipy.") for name in names)
    ]
    assert not found, f"scipy imported by the library: {found}"
