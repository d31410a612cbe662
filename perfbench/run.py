#!/usr/bin/env python3
"""End-to-end benchmark of the noise-lattice command, with a traced mode.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload report-exact --seed 1 --seconds 20 --trace 0

Workloads (one process, one thread, a closed loop with one caller):

* ``check-all``     one ``check all --seed <seed>`` at the default case counts.
* ``report-exact``  a seeded stream of distinct ``chaos report`` and
                    ``spectrum report --format json`` requests, rational mode.
* ``report-float``  the same request kinds with float probabilities, one
                    size step up.

Requests go through the public entry point ``noise_lattice.cli.main`` on
generated input files, in process.  Every answer is checked against a
closed form (see ``workloads.py``) or the ``check all`` contract; a wrong
answer counts as a failed request and makes the exit code 1.

A run measures whole passes over its request stream.  It starts another
pass (new, distinct inputs) only while that pass is expected to end within
``--seconds``, so the first pass always runs in full, even when it takes
longer.  ``--trace 0`` times cold set-ups in fresh interpreters (see
``cold_setup.py``) and prints the end-to-end metrics, with every time
given at reference speed (see ``speed.py``).  ``--trace 1`` runs one
pass untraced and the same pass again with every layer wrapped (see
``layers.py``) and prints the per-layer metrics.  Metric names and units are read from
``BENCHMARK.json``.  The last line of stdout is one JSON object; the full
result, with the environment, goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import os
import sys

# one thread: pin the BLAS pools before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import numpy  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402

WORKLOADS = ("check-all", "report-exact", "report-float")
SETUP_REPEATS = 8  # cold set-ups before the measured passes, and as many after
PROBES_PER_SETUP = 3  # speed probes just before, and just after, each set-up
CHECK_SUITES = 32  # the check-all contract: every suite of checks.SUITES


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """What one request did: when, for how long, its exit code, stdout and verdict."""

    start: float  # perf_counter
    latency: float
    code: int
    stdout: str
    error: str | None = None


@dataclass
class Pass:
    requests: list
    outcomes: list = field(default_factory=list)
    start: float = 0.0  # perf_counter
    wall: float = 0.0


# ---------------------------------------------------------------------------
# set-up


def require_source() -> None:
    if not (SRC / "noise_lattice" / "__init__.py").is_file():
        raise BenchError(f"no noise_lattice package under {SRC}")


def import_library():
    """Import noise_lattice from this checkout's src/, never from elsewhere."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    cli = importlib.import_module("noise_lattice.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "noise_lattice").resolve():
        raise BenchError(f"noise_lattice was imported from {cli.__file__}")
    return cli


def inputs_dir(workload: str) -> Path:
    return OUT / "inputs" / workload


def make_pass(workload: str, seed: int, pass_no: int) -> list:
    if workload == "check-all":
        return [["check", "all", "--seed", str(seed)]]
    return workloads.write_pass(workload, seed, pass_no, inputs_dir(workload))


def setup(workload: str, seed: int):
    """Import the library and write the first pass; returns the cli module and the pass."""
    shutil.rmtree(inputs_dir(workload), ignore_errors=True)
    cli = import_library()
    return cli, make_pass(workload, seed, 0)


def cold_setups(workload: str, seed: int, repeats: int, probes: speed.Probes) -> list:
    """Seconds of ``repeats`` set-ups, each in a fresh interpreter.

    Each one imports ``noise_lattice`` with numpy and everything else it
    loads, and rewrites the same first-pass inputs.  ``probes`` gets
    speed probes just before and after each set-up.
    """
    require_source()
    times = []
    for _ in range(repeats):
        for _ in range(PROBES_PER_SETUP):
            probes.sample()
        argv = [sys.executable, str(HERE / "cold_setup.py"), workload, str(seed), str(inputs_dir(workload))]
        try:
            child = subprocess.run(argv, capture_output=True, text=True, timeout=60)
            if child.returncode != 0:
                raise BenchError(child.stderr.strip()[-500:])
            times.append(float(child.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError, BenchError) as exc:
            raise BenchError(f"cold set-up failed: {exc}") from exc
        for _ in range(PROBES_PER_SETUP):
            probes.sample()
    return times


def metric_units(kind: str) -> dict:
    """Metric name -> unit, from the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# requests and their checks


def argv_of(request) -> list:
    return request if isinstance(request, list) else request.argv()


def call(cli, argv: list) -> Outcome:
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the request
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # one request failing must not stop the stream
        return Outcome(t0, time.perf_counter() - t0, -1, buf.getvalue(), traceback.format_exc(limit=3))
    return Outcome(t0, time.perf_counter() - t0, code, buf.getvalue())


def check_all_report(stdout: str) -> str | None:
    try:
        report = json.loads(stdout)
        suites = report["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable check report: {exc}"
    if len(suites) != CHECK_SUITES:
        return f"{len(suites)} suites ran, expected {CHECK_SUITES}"
    failed = [s.get("suite") for s in suites if s.get("passed") is not True]
    if failed or report.get("passed") is not True:
        return f"suites failed: {failed}"
    return None


def verdict(request, outcome: Outcome) -> str | None:
    if outcome.error is not None:
        return outcome.error
    if outcome.code != 0:
        return f"exit code {outcome.code}"
    if isinstance(request, list):
        return check_all_report(outcome.stdout)
    return workloads.check_report(request, outcome.stdout)


def run_pass(cli, requests: list, tracer=None) -> Pass:
    done = Pass(requests, start=time.perf_counter())
    for i, request in enumerate(requests, start=1):
        if tracer is not None:
            tracer.request = i
        done.outcomes.append(call(cli, argv_of(request)))
    done.wall = time.perf_counter() - done.start
    return done


def failures(passes) -> list:
    out = []
    for p in passes:
        for request, outcome in zip(p.requests, p.outcomes):
            problem = verdict(request, outcome)
            if problem is not None:
                out.append({"request": argv_of(request), "problem": problem})
    return out


# ---------------------------------------------------------------------------
# the two modes


def percentile(values: list, q: int) -> float:
    """The q-th percentile (exclusive method); one value is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def measure(cli, workload: str, seed: int, seconds: float, first: list) -> tuple:
    """Whole passes while the next is expected to end within ``seconds``.

    Times are at reference speed (see ``speed.py``); the measured ones go
    to the result file.
    """
    t_start = time.perf_counter()
    with speed.Probes() as probes:
        passes = [run_pass(cli, first)]
        while True:
            typical = statistics.median(p.wall for p in passes)
            if time.perf_counter() - t_start + typical > seconds:
                break
            requests = make_pass(workload, seed, len(passes))
            passes.append(run_pass(cli, requests))
    walls = [probes.at_reference(p.start, p.start + p.wall) for p in passes]
    latencies = [probes.at_reference(o.start, o.start + o.latency) for p in passes for o in p.outcomes]
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = {
        "pass_walls_s": [p.wall for p in passes],
        "latencies_s": [[o.latency for o in p.outcomes] for p in passes],
        "probe_s": probes.durations,
    }
    return passes, metrics, measured


def layer_modules() -> dict:
    """Every module a layer names, imported, plus the rest of the loaded package."""
    for modname in layers.LAYERS.values():
        try:
            importlib.import_module(modname)
        except ImportError:
            pass  # layers.targets names it as missing
    return {m.__name__: m for m in package_modules("noise_lattice")}


def measure_traced(cli, workload: str, first: list) -> tuple:
    """One pass untraced, the same pass traced; per-layer metrics from its spans."""
    modules = layer_modules()
    targets = layers.targets(modules)
    counters = layers.Counters()
    patches = counters.patches(modules)
    plain = run_pass(cli, first)
    with Tracer(
        modules.values(),
        targets,
        counters.hooks(targets),
        patches,
    ) as tracer:
        traced = run_pass(cli, first, tracer)
    table = tracer.table()
    OUT.mkdir(parents=True, exist_ok=True)
    table.save(OUT / f"spans-{workload}.npz")

    mismatched = [
        {"request": argv_of(r), "problem": "traced report differs from the untraced one"}
        for r, a, b in zip(first, plain.outcomes, traced.outcomes)
        if a.stdout != b.stdout
    ]
    spectrum = {i for i, r in enumerate(first, start=1) if argv_of(r)[0] == "spectrum"}
    report_bytes = sum(len(o.stdout.encode()) for o in traced.outcomes)
    values = layers.derive(table, counters, spectrum, report_bytes)
    self_sum = float(table.self_s.sum())
    values.update(
        {
            "trace.wall_s": traced.wall,
            "trace.untraced_wall_s": plain.wall,
            "trace.overhead_ratio": traced.wall / plain.wall - 1.0,
            "trace.self_sum_ratio": self_sum / traced.wall,
        }
    )
    return [plain, traced], values, mismatched


# ---------------------------------------------------------------------------
# environment and output


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "kernels_backend": sys.modules["noise_lattice.kernels"].BACKEND,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu_model(),
        "seed": seed,
        "commit": commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    try:
        units = metric_units(kind)
        setup_probes = speed.Probes()
        setups = [] if args.trace else cold_setups(args.workload, args.seed, SETUP_REPEATS, setup_probes)
        cli, first = setup(args.workload, args.seed)
        if args.trace:
            passes, values, extra = measure_traced(cli, args.workload, first)
            measured = {"latencies_s": [[o.latency for o in p.outcomes] for p in passes]}
        else:
            passes, values, measured = measure(cli, args.workload, args.seed, args.seconds, first)
            setups += cold_setups(args.workload, args.seed, SETUP_REPEATS, setup_probes)
            # one speed for all set-ups: each lasts a fraction of a second,
            # too short for the probes around it to tell its own speed
            values["setup_s"] = statistics.median(setups) * speed.factor(setup_probes.durations)
            measured["setups_s"] = setups
            measured["setup_probe_s"] = setup_probes.durations
            extra = []
        if set(values) != set(units):
            raise BenchError(f"metrics measured {sorted(values)} differ from {kind} in BENCHMARK.json")
    except (BenchError, ImportError, OSError, KeyError, layers.MissingTarget) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    failed = failures(passes) + extra
    attempted = sum(len(p.outcomes) for p in passes)

    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "fail_ratio": len(failed) / attempted,
        "process_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failed[:20],
        "measured": measured,
        "reference_probe_s": speed.REF_S,
        "environment": environment(args.seed),
        **result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for k, u in units.items():
        print(f"{args.workload:>13} {k:<40} {values[k]:>14.6g} {u}")
    print(f"{args.workload:>13} {'fail_ratio':<40} {len(failed) / attempted:>14.6g} ratio")
    for f in failed[:5]:
        print(f"FAILED {f['request']}: {f['problem']}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
