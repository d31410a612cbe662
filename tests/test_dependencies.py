"""The library imports only its declared dependencies, and numpy only when used.

``scipy`` is a test dependency: importing it costs about a second and
more than doubles the peak memory of ``check all``, so no module under
``src/noise_lattice`` may import it, not even inside a function.

``multiprocessing`` and ``concurrent`` are not imported either, not even
inside a function: ``check all`` runs its suites on every usable CPU
with ``os.fork`` and pipes, and a fork-context ``Value``, ``Pipe`` and
``Process`` would add 1.25-1.4 MB to the parent's peak memory.

numpy is needed only by float-mode linear algebra (spans, ranks, inner
products) and by sampling (``randsup``, which ``check all`` runs), so no
module imports it at module level: the functions that use it import it on
first use.  ``checks.run_all`` imports it before it forks, so the forked
processes share one import and the parent of ``check all`` loads numpy
whichever process draws the sampling suites.  ``chaos report`` and
``spectrum report`` read the certified block counts and build no vector,
so they start without numpy in either mode.  The cold-start tests run the golden reports in fresh interpreters
and check that of them only ``check all`` and ``randsup run`` load numpy.

The check suites (``checks``, with ``instances``), the symbolic model
(``cofinite``) and the sampler (``randsup``) are a third of the package,
and ``cli`` imports each in the handlers that run it, never at module
level.  So the reports, ``ntba``, ``sigma`` and ``space`` load none of the
four; ``cofinite`` and ``demo`` load ``cofinite``; ``randsup run`` loads
``randsup``; ``check all`` loads all four.  On two shared cores, a fresh
``import noise_lattice.cli`` went from 0.065 to 0.041 s (medians of 20)
when these imports moved into the handlers.  The module-load tests below
hold each command to its share.

No module imports ``dataclasses``: it loads ``inspect`` and ten more
modules (``ast``, ``dis``, ``tokenize`` ...), and each dataclass is built by
generating and compiling code.  The library's records and values derive
from ``errors.Record`` and ``errors.Frozen`` instead, and the cold set-up of
``check all`` went from 0.070 to 0.049 s (medians of 12, two shared cores,
no bytecode cache).  So the rational and report runs load neither
``dataclasses`` nor ``inspect``; numpy imports ``inspect`` itself.

No module uses ``functools.cached_property`` either: in Python 3.11 its
first read takes a lock.  A first read cost 1.29 us, against 0.54 us for
the plain descriptor ``errors.derived`` (two shared cores), and ``check
all`` makes about 15,000 first reads a seed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden_reports import CASES, GOLDEN

import noise_lattice

SRC = Path(noise_lattice.__file__).parent
# the modules that only check all, cofinite, demo and randsup run
SUITE_MODULES = {f"noise_lattice.{m}" for m in ("checks", "cofinite", "randsup", "instances")}


def _imported_modules(nodes):
    """(line, the dotted names it may load) per import; relative ones resolve in the package."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["noise_lattice" if node.level else None, node.module]))
            yield node.lineno, [base] + [f"{base}.{alias.name}" for alias in node.names]


def _run_on_import(node: ast.AST):
    """The nodes run when the module is imported: all but those inside functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _run_on_import(child)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _is(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _imports_anywhere(*packages) -> list:
    """file:line of every import of one of ``packages`` in the library, functions included."""
    return [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, names in _imported_modules(ast.walk(_tree(path)))
        if any(_is(name, package) for name in names for package in packages)
    ]


def test_library_never_imports_scipy():
    found = _imports_anywhere("scipy")
    assert not found, f"scipy imported by the library: {found}"


def test_library_never_imports_dataclasses():
    found = _imports_anywhere("dataclasses")
    assert not found, f"dataclasses imported by the library: {found}"


def test_library_never_imports_multiprocessing_or_concurrent():
    found = _imports_anywhere("multiprocessing", "concurrent")
    assert not found, f"multiprocessing or concurrent imported by the library: {found}"


def test_library_never_uses_cached_property():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (
            isinstance(node, ast.ImportFrom)
            and any(alias.name == "cached_property" for alias in node.names)
        )
    ]
    assert not found, f"functools.cached_property used by the library: {found}"


def test_no_module_imports_numpy_at_module_level():
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, names in _imported_modules(_run_on_import(_tree(path)))
        if any(_is(name, "numpy") for name in names)
    ]
    assert not found, f"numpy imported at module level: {found}"


def test_cli_imports_no_check_suite_module_at_module_level():
    found = [
        f"cli.py:{lineno}"
        for lineno, names in _imported_modules(_run_on_import(_tree(SRC / "cli.py")))
        if any(_is(name, m) for name in names for m in SUITE_MODULES)
    ]
    assert not found, f"cli imports a check suite module at module level: {found}"


# Runs golden cases (name, argv, exit code; JSON on stdin) in this fresh
# interpreter and prints the names that differ, whether numpy got loaded,
# which of dataclasses and inspect got loaded and the package modules that
# got loaded.
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from noise_lattice.cli import main
golden = Path(sys.argv[1])
mismatched = []
for name, argv, code in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(argv)
    if got != code or out.getvalue() != (golden / name).read_text(encoding="utf-8"):
        mismatched.append(name)
modules = sorted(m for m in sys.modules if m.startswith("noise_lattice."))
introspection = sorted({"dataclasses", "inspect"} & set(sys.modules))
print(json.dumps({
    "mismatched": mismatched,
    "numpy": "numpy" in sys.modules,
    "introspection": introspection,
    "modules": modules,
}))
"""

FLOAT = [c for c in CASES if c[0].startswith("float")]
RATIONAL = [c for c in CASES if not c[0].startswith(("float", "check.", "randsup."))]
REPORTS = [c for c in CASES if c[1][0] in ("chaos", "spectrum", "ntba")]


def _fresh_run(cases) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), path]))}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(GOLDEN)],
        input=json.dumps(cases),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    assert run["mismatched"] == []
    return run


def test_rational_reports_start_without_numpy():
    names = {c[0] for c in RATIONAL}
    assert {"coords4.validate.json", "demo.json", "cofinite.demo.txt", "mixed3.chaos.txt"} <= names
    run = _fresh_run(RATIONAL)
    assert run["numpy"] is False
    assert run["introspection"] == []


def test_float_reports_start_without_numpy():
    names = {c[0] for c in FLOAT}
    assert {"float2.chaos.json", "float2.chaos.txt", "float2.spectrum.json"} <= names
    assert _fresh_run(FLOAT)["numpy"] is False


def test_check_all_loads_numpy_on_first_use():
    check = [c for c in CASES if c[0] == "check.seed1.cases2.json"]
    assert len(check) == 1
    run = _fresh_run(check)
    assert run["numpy"] is True
    assert SUITE_MODULES <= set(run["modules"])


def test_randsup_run_loads_numpy_and_the_sampler_alone():
    randsup = [c for c in CASES if c[1][0] == "randsup"]
    assert len(randsup) == 1
    run = _fresh_run(randsup)
    assert run["numpy"] is True
    assert SUITE_MODULES & set(run["modules"]) == {"noise_lattice.randsup"}


def test_reports_load_no_check_suite_module():
    """Reports, ``ntba validate`` and spectrum csv, each mode in its own
    interpreter, load no check suite module, nor dataclasses or inspect."""
    names = {c[0] for c in REPORTS}
    assert {"coords4.spectrum.csv", "coords4.validate.json", "float2.validate.json"} <= names
    for cases in ([c for c in REPORTS if c not in FLOAT], [c for c in REPORTS if c in FLOAT]):
        run = _fresh_run(cases)
        assert not SUITE_MODULES & set(run["modules"])
        assert run["introspection"] == []


def test_cofinite_loads_no_other_check_suite_module():
    cofinite = [c for c in CASES if c[1][0] == "cofinite"]
    assert len(cofinite) == 5
    assert SUITE_MODULES & set(_fresh_run(cofinite)["modules"]) == {"noise_lattice.cofinite"}
