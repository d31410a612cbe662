"""Reports print exactly the text captured before a refactor.

``tests/golden`` holds three algebras, each a product of independent
coordinates: ``mixed2`` (probabilities 1/12 ... 3/8) and ``mixed3`` (1/30
... 1/5) in rational mode with mixed denominators, and ``float2`` in float
mode.  Next to each sit the ``chaos report`` text and the ``spectrum report
--format json`` line, with the ``chaos report --format json`` line for
``float2``.  ``coords4.json`` is ``ntba coords 4`` with its ``spectrum
report --format json`` line, and ``coords4`` and ``mixed3`` also have
their ``spectrum report --format csv`` text.  ``demo.json`` holds ``demo
--format json``, ``check.seed1.cases2.json`` the report of ``check all
--seed 1 --cases 2`` and ``check.seed1.json`` the full default ``check
all --seed 1``.  ``randsup.run.seed3.json`` holds ``randsup run --ps
0.5,0.25 --trials 2000 --seed 3 --format json``.  ``cofinite.demo.json``
and ``cofinite.demo.txt`` hold ``cofinite demo`` in both formats and
``cofinite.eval.*.json`` the ``cofinite eval`` line of three elements, so
a symbolic value that reached a report unformatted would show.
``*.validate.json`` hold the ``ntba validate`` line of ``coords4``,
``float2``, ``float-perturbed``, a float algebra whose atoms pass the
product law within the tolerance but one of whose complement pairs does
not, so its verdict is invalid, and ``dependent``, two equal atoms that
the ``NTBA`` constructor refuses.  Each case carries its exit code.  Any
change to a printed value, a key, the formatting or an exit code fails
here.
"""

from pathlib import Path

import pytest

from noise_lattice.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("mixed2", "mixed3", "float2")
CASES = [
    *((f"{f}.chaos.txt", ["chaos", "report", str(GOLDEN / f"{f}.json")], 0) for f in FIXTURES),
    *(
        (f"{f}.spectrum.json", ["spectrum", "report", str(GOLDEN / f"{f}.json"), "--format=json"], 0)
        for f in FIXTURES
    ),
    ("demo.json", ["demo", "--format", "json"], 0),
    ("float2.chaos.json", ["chaos", "report", str(GOLDEN / "float2.json"), "--format", "json"], 0),
    ("coords4.spectrum.json", ["spectrum", "report", str(GOLDEN / "coords4.json"), "--format", "json"], 0),
    *(
        (f"{f}.spectrum.csv", ["spectrum", "report", str(GOLDEN / f"{f}.json"), "--format", "csv"], 0)
        for f in ("coords4", "mixed3")
    ),
    ("cofinite.demo.json", ["cofinite", "demo", "--format", "json"], 0),
    ("cofinite.demo.txt", ["cofinite", "demo"], 0),
    ("cofinite.eval.tail3-evens.json", ["cofinite", "eval", "x3|Y(2k)"], 0),
    ("cofinite.eval.periodic.json", ["cofinite", "eval", "Y{01;110}"], 0),
    ("cofinite.eval.finite-tail9.json", ["cofinite", "eval", "y1|y4|x9"], 0),
    ("check.seed1.cases2.json", ["check", "all", "--seed", "1", "--cases", "2"], 0),
    ("check.seed1.json", ["check", "all", "--seed", "1"], 0),
    (
        "randsup.run.seed3.json",
        ["randsup", "run", "--ps", "0.5,0.25", "--trials", "2000", "--seed", "3", "--format", "json"],
        0,
    ),
    *(
        (f"{f}.validate.json", ["ntba", "validate", str(GOLDEN / f"{f}.json")], code)
        for f, code in (("coords4", 0), ("float2", 0), ("float-perturbed", 1), ("dependent", 1))
    ),
]


@pytest.mark.parametrize("golden, argv, code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden_text(golden, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")
