"""Every sigma-field is built by ``SigmaField(space, keys)``, the one numbering.

The constructor numbers one key per outcome first-seen, so any keys give
a canonical label vector and no field needs a second route.  Only
``sigma`` calls it: outside that module a field comes from
``partition``, ``trivial``, ``discrete``, a join or a meet.  And nothing
in the package builds a field past ``__init__`` (``object.__new__`` or
``SigmaField.__new__``), which would skip the numbering.
"""

import ast
from pathlib import Path

import noise_lattice
from noise_lattice import sigma

SRC = Path(noise_lattice.__file__).parent


def _calls(path: Path) -> list:
    """(line, name called, class built past ``__init__`` or None) for each call in the file.

    ``object.__new__(C)``, ``tuple.__new__(C, ...)`` and ``C.__new__(C)``
    build C past its ``__init__``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        built = None
        if name == "__new__" and node.args and isinstance(node.args[0], ast.Name):
            built = node.args[0].id
        out.append((node.lineno, name, built))
    return out


def test_only_sigma_builds_sigma_fields():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "sigma.py"
        for line, name, _ in _calls(path)
        if name == "SigmaField"
    ]
    assert not found, f"sigma-field built outside sigma: {found}"
    assert any(name == "SigmaField" for _, name, _ in _calls(SRC / "sigma.py"))


def test_the_numbering_is_the_only_constructor_call():
    past_init = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, _, built in _calls(path)
        if built == "SigmaField"
    ]
    assert not past_init, f"sigma-field built past __init__ at {past_init}"
    assert not hasattr(sigma, "_number")
