"""Tests of the benchmark's own code: oracle, inputs, tracer.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

from noise_lattice import cli  # noqa: E402
from noise_lattice.chaos import first_chaos  # noqa: E402
from noise_lattice.ntba import ntba_from_json  # noqa: E402
from noise_lattice.spectrum import spectral_decompose  # noqa: E402


def _library_dims(obj: dict):
    algebra = ntba_from_json(obj)
    chaos = first_chaos(algebra)
    decomp = spectral_decompose(algebra)
    points = {tuple(sorted(p.generator)): p.eigenspace.dim for p in decomp.points}
    levels = {str(k): d for k, d in decomp.level_dims().items()}
    return chaos.h1.dim, levels, points


@pytest.mark.parametrize(
    "make, blocks",
    [
        (lambda rng: workloads.sign_algebra(rng, "coords", 3, True), (2, 2, 2)),
        (lambda rng: workloads.sign_algebra(rng, "pairs", 4, True), (2, 2, 2, 2)),
        (lambda rng: workloads.product_algebra(rng, [3, 2, 4], True), (3, 2, 4)),
        (lambda rng: workloads.product_algebra(rng, [4, 3], False), (4, 3)),
    ],
)
def test_oracle_agrees_with_library(make, blocks):
    obj = make(random.Random(7))
    dim_h1, levels, points = _library_dims(obj)
    assert dim_h1 == workloads.expected_chaos(blocks)["dim_h1"]
    want = workloads.expected_spectrum(blocks)
    assert levels == want["levels"]
    assert points == want["points"]


def test_elementary_symmetric():
    assert workloads.elementary_symmetric([1, 2, 3]) == [1, 6, 11, 6]
    assert workloads.elementary_symmetric([]) == [1]


def test_check_report_flags_a_wrong_answer(tmp_path):
    (req,) = [r for r in workloads.write_pass("report-exact", 3, 0, tmp_path) if r.size <= 8][:1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(req.argv()) == 0
    assert workloads.check_report(req, out.getvalue()) is None
    report = json.loads(out.getvalue())
    if req.kind == "chaos":
        report["results"]["dim_h1"] += 1
    else:
        report["results"]["levels"]["1"] += 1
    assert workloads.check_report(req, json.dumps(report)) is not None


def test_same_seed_same_files(tmp_path):
    a = workloads.write_pass("report-float", 5, 0, tmp_path / "a")
    b = workloads.write_pass("report-float", 5, 0, tmp_path / "b")
    c = workloads.write_pass("report-float", 6, 0, tmp_path / "c")
    read = lambda reqs: [Path(r.path).read_bytes() for r in reqs]  # noqa: E731
    assert read(a) == read(b)
    assert read(a) != read(c)
    assert [(r.kind, r.blocks) for r in a] == [(r.kind, r.blocks) for r in b]


def test_streams_have_enough_distinct_requests(tmp_path):
    for name in workloads.SPECS:
        reqs = workloads.write_pass(name, 1, 0, tmp_path / name)
        assert len(reqs) >= 100
        blobs = {Path(r.path).read_bytes() for r in reqs}
        assert len(blobs) == len(reqs)


def test_traced_run_restores_everything_and_keeps_bytes(tmp_path):
    reqs = [r for r in workloads.write_pass("report-exact", 2, 0, tmp_path) if r.size <= 16]
    modules = {m.__name__: m for m in package_modules("noise_lattice")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = {
        cls: dict(vars(cls))
        for mod in modules.values()
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
    }
    plain = run.run_pass(cli, reqs)
    targets = layers.targets(modules)
    counters = layers.Counters()
    with Tracer(modules.values(), targets, counters.hooks(targets), counters.patches(modules)) as tracer:
        assert modules["noise_lattice.sigma"].cond_exp is not targets["sigma.cond_exp"]
        traced = run.run_pass(cli, reqs, tracer)
    for name, mod in modules.items():
        assert dict(vars(mod)) == before[name], name
    for cls, attrs in classes.items():
        assert dict(vars(cls)) == attrs, cls
    assert [o.stdout for o in plain.outcomes] == [o.stdout for o in traced.outcomes]
    assert run.failures([plain, traced]) == []
    table = tracer.table()
    values = layers.derive(table, counters, set(), 0)
    assert values["chaos.first_chaos.calls"] == sum(r.kind == "chaos" for r in reqs) + sum(
        r.kind == "spectrum" for r in reqs
    )
    assert values["kernels.calls"] > 0 and values["kernels.bits_max"] > 0
    assert values["finmeas.rv_created"] > 0
    # every span but the request roots sits inside a cli.main span
    roots = table.parent < 0
    assert set(table.name[roots]) == set(table.ids(["cli.main"]))
    assert table.self_s.sum() == pytest.approx(table.duration[roots].sum())


def test_metric_names_are_those_of_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    reqs = [r for r in workloads.write_pass("report-exact", 4, 0, tmp_path) if r.size <= 8]
    _, values, _ = run.measure(cli, "report-exact", 4, 0.0, reqs)
    assert set(values) | {"setup_s"} == set(run.metric_units("end_to_end"))
    _, values, mismatched = run.measure_traced(cli, "report-exact", reqs)
    assert mismatched == []
    assert set(values) == set(run.metric_units("per_layer"))


@pytest.mark.parametrize(
    "module, attr, name",
    [
        ("noise_lattice.sigma", "cond_exp", "sigma.cond_exp"),
        ("noise_lattice.kernels", "row_echelon_int", "kernels.row_echelon_int"),
        ("noise_lattice.cli", "_emit", "cli._emit"),
        ("noise_lattice.randsup", "trial_rng", "randsup.trial_rng"),
    ],
)
def test_missing_target_stops_the_traced_run(module, attr, name, tmp_path, monkeypatch):
    monkeypatch.delattr(sys.modules[module], attr)
    modules = {m.__name__: m for m in package_modules("noise_lattice")}
    with pytest.raises(layers.MissingTarget, match=name):
        layers.targets(modules)
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "report-exact", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert code == 2
    assert out.getvalue() == ""


def test_suite_table_is_wrapped_and_restored():
    modules = {m.__name__: m for m in package_modules("noise_lattice")}
    checks = modules["noise_lattice.checks"]
    suites = checks.SUITES
    targets = layers.targets(modules)
    with Tracer(modules.values(), targets):
        assert checks.SUITES is not suites
        assert checks.SUITES[0][0].__wrapped__ is suites[0][0]
    assert checks.SUITES is suites


def _sleep_tree():
    time.sleep(0.02)
    _child()
    _child()


def _child():
    time.sleep(0.03)


def test_self_time_of_nested_calls():
    mod = sys.modules[__name__]
    targets = {"t.outer": _sleep_tree, "t.child": _child}
    with Tracer([mod], targets) as tracer:
        _sleep_tree()
    assert _sleep_tree.__name__ == "_sleep_tree" and not hasattr(_sleep_tree, "__wrapped__")
    table = tracer.table()
    assert table.calls(["t.child"]) == 2
    outer = table.duration[table.mask(["t.outer"])][0]
    assert table.inclusive_time(["t.child"]) >= 0.06
    assert table.self_time(["t.outer"]) == pytest.approx(outer - table.inclusive_time(["t.child"]))
    assert 0.02 <= table.self_time(["t.outer"]) < 0.05
    assert table.self_s.sum() == pytest.approx(outer)


def test_at_reference_takes_out_probe_time_and_scales():
    probes = speed.Probes()
    slow = 2 * speed.REF_S  # every probe at half the reference speed
    probes.starts, probes.durations = [0.0, 1.0, 2.0, 3.0], [slow, slow, slow, speed.REF_S]
    assert probes.at_reference(0.5, 1.5) == pytest.approx((1.0 - slow) * 0.5)
    assert probes.at_reference(1.2, 1.4) == pytest.approx(0.2 * 0.5)
    # the last interval sits between a slow and a reference-speed probe
    assert probes.at_reference(2.5, 2.9) == pytest.approx(0.4 * 0.75)


def test_probes_run_on_a_timer_and_stop():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Probes() as probes:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL + 0.05:
            pass
    assert len(probes.durations) >= 4  # on entry, on the timer, on exit
    assert probes.starts == sorted(probes.starts)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_percentile_and_check_all_verdict():
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile(list(range(1, 101)), 90) == pytest.approx(90.9)
    ok = {"passed": True, "results": [{"suite": str(i), "passed": True} for i in range(32)]}
    assert run.check_all_report(json.dumps(ok)) is None
    ok["results"][3]["passed"] = False
    assert "3" in run.check_all_report(json.dumps(ok))
    assert run.check_all_report(json.dumps({"passed": True, "results": []})) is not None
