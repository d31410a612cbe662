"""``checks.run_all`` on several processes behaves as a serial loop over ``SUITES``.

``run_all`` runs the suites in the caller and in one forked process per
extra usable CPU.  Most tests here report three usable CPUs, so two
children are forked on any host.  Results come back in ``SUITES`` order
and equal a plain loop's, each suite's generator state and witness
payload included; a failing suite appended to ``SUITES`` comes back last,
with its witness.  A suite that raises anywhere makes ``run_all`` raise
the first raising suite's exception, with its type and message.  A child
that dies, or whose results cannot be pickled, is one ``error:`` line and
exit 1.  No child outlives ``run_all`` on any path.  With one usable CPU
nothing is forked, and the report keeps its golden bytes.
"""

import functools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from test_golden_reports import GOLDEN

from noise_lattice import checks
from noise_lattice.cli import main
from noise_lattice.errors import ConsistencyError
from noise_lattice.finmeas import mk_space, space_to_json
from noise_lattice.sigma import independent, partition

SRC = Path(checks.__file__).parent


@pytest.fixture
def forks(monkeypatch):
    """Three usable CPUs; the list of forks ``run_all`` makes."""
    made = []
    fork = os.fork

    def counting():
        made.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", counting)
    return made


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial(seed, cases):
    return [
        fn(random.Random(f"{seed}:{fn.__name__}"), d if cases is None else min(d, cases))
        for fn, d in checks.SUITES
    ]


def _with_witness(fn):
    """``fn`` with one more failure: a draw from its generator and a Fraction and tuple."""

    @functools.wraps(fn)
    def suite(rng, n):
        res = fn(rng, n)
        res.failures.append({"draw": rng.random(), "mass": Fraction(1, 3), "pair": (n, 1)})
        return res

    return suite


def skewed_independence(rng, n):
    """A suite that fails: two halvings of a skewed four-point space, taken as independent."""
    skew = mk_space(
        ["a", "b", "c", "d"], [Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)]
    )
    x = partition(skew, [[0, 1], [2, 3]])
    y = partition(skew, [[0, 2], [1, 3]])
    res = checks.SuiteResult("skewed-independence", n)
    if not independent(x, y):
        res.failures.append({"case": 0, "space": space_to_json(skew), "x": x.blocks, "y": y.blocks})
    return res


@pytest.mark.parametrize("seed, cases", [(1, 1), (2, 3), (7, 2)])
def test_forked_run_equals_the_serial_loop(forks, monkeypatch, seed, cases):
    serial = _serial(seed, cases)
    assert checks.run_all(seed, cases) == serial
    monkeypatch.setattr(checks, "SUITES", [*checks.SUITES, (skewed_independence, 1)])
    faulted = checks.run_all(seed, cases)
    assert faulted[:-1] == serial
    assert faulted[-1].name == "skewed-independence" and faulted[-1].failures
    assert len(forks) == 4
    _no_child_left()


def test_forked_run_returns_witnesses_as_the_serial_loop(forks, monkeypatch):
    monkeypatch.setattr(checks, "SUITES", [(_with_witness(fn), d) for fn, d in checks.SUITES])
    got = checks.run_all(3, 1)
    assert got == _serial(3, 1)
    assert [type(f) for r in got for f in r.failures[-1].values()] == [float, Fraction, tuple] * 32
    _no_child_left()


def test_more_workers_than_cores_run_each_suite_once(monkeypatch):
    """Six processes share the one queue: no index is lost or read twice."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)

    def make(i):
        def suite(rng, n):
            return checks.SuiteResult(f"{i}", n, [os.getpid()])

        suite.__name__ = f"suite_{i}"
        return suite

    monkeypatch.setattr(checks, "SUITES", [(make(i), 1) for i in range(len(checks.SUITES))])
    t0 = time.monotonic()
    pids = set()
    for _ in range(20):
        got = checks.run_all(1)
        assert [r.name for r in got] == [f"{i}" for i in range(32)]
        pids.update(r.failures[0] for r in got)
    assert time.monotonic() - t0 < 60
    assert len(pids) > 1
    _no_child_left()


def _suites_that(monkeypatch, behave):
    """Replace every suite by a quick one that returns ``behave(index, in_child)``
    if that is a result, else a passed result."""
    parent = os.getpid()

    def make(i, fn):
        def suite(rng, n):
            return behave(i, os.getpid() != parent) or checks.SuiteResult(fn.__name__, n)

        suite.__name__ = fn.__name__
        return suite

    monkeypatch.setattr(checks, "SUITES", [(make(i, fn), d) for i, (fn, d) in enumerate(checks.SUITES)])


def _children_do(act):
    """Children ``act(index)``; the caller is slow, so the children draw suites."""

    def behave(i, in_child):
        if in_child:
            return act(i)
        time.sleep(0.02)

    return behave


def _raise(exc_type, i):
    raise exc_type(f"suite {i} disagrees")


@pytest.mark.parametrize("exc_type", [ConsistencyError, ZeroDivisionError])
def test_an_exception_in_a_child_is_raised_with_its_type_and_message(forks, monkeypatch, exc_type):
    _suites_that(monkeypatch, _children_do(functools.partial(_raise, exc_type)))
    with pytest.raises(exc_type, match=r"^suite \d+ disagrees$"):
        checks.run_all(1, 1)
    assert forks
    _no_child_left()


def test_the_first_raising_suite_in_suites_order_is_raised(forks, monkeypatch):
    def behave(i, in_child):
        time.sleep(0.005 * (i % 3))
        if i in (5, 9, 20):
            raise ConsistencyError(f"suite {i}")

    _suites_that(monkeypatch, behave)
    for _ in range(3):
        with pytest.raises(ConsistencyError, match="^suite 5$"):
            checks.run_all(1, 1)
    _no_child_left()


def test_with_one_cpu_the_first_raising_suite_ends_the_run(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ran = []

    def behave(i, in_child):
        ran.append(i)
        if i == 3:
            raise ConsistencyError("suite 3")

    _suites_that(monkeypatch, behave)
    with pytest.raises(ConsistencyError, match="^suite 3$"):
        checks.run_all(1, 1)
    assert ran == [0, 1, 2, 3]


def test_a_child_error_is_one_error_line_and_exit_1(forks, monkeypatch, capsys):
    _suites_that(monkeypatch, _children_do(functools.partial(_raise, ConsistencyError)))
    assert main(["check", "all", "--seed", "1", "--cases", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: suite ") and captured.err.count("\n") == 1
    _no_child_left()


@pytest.mark.parametrize(
    "act",
    [
        lambda i: os._exit(1),
        lambda i: checks.SuiteResult("unpicklable", 1, [lambda: None]),
    ],
    ids=["exit", "unpicklable"],
)
def test_a_child_that_sends_no_results_is_one_error_line_and_exit_1(forks, monkeypatch, capsys, act):
    _suites_that(monkeypatch, _children_do(act))
    assert main(["check", "all", "--seed", "1", "--cases", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a check worker process exited with status 1 before sending its results\n"
    )
    _no_child_left()


def test_an_interrupt_in_the_caller_kills_and_reaps_every_child(forks, monkeypatch):
    def behave(i, in_child):
        if in_child:
            time.sleep(60)
        raise KeyboardInterrupt

    _suites_that(monkeypatch, behave)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        checks.run_all(1, 1)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 2
    _no_child_left()


NO_FORK = """
import os, sys
def refuse():
    raise AssertionError("forked with one usable CPU")
os.fork = refuse
from noise_lattice.cli import main
sys.exit(main(["check", "all", "--seed", "1", "--cases", "2"]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_usable_cpu_prints_the_golden_report_without_a_fork():
    cpu = min(os.sched_getaffinity(0))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), path]))}
    child = subprocess.run(
        [sys.executable, "-c", NO_FORK],
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == (GOLDEN / "check.seed1.cases2.json").read_text(encoding="utf-8")
