"""Which library functions the traced run wraps, and the per-layer metrics.

A layer is one module of ``noise_lattice``.  Its spans are the public
module-level functions the module defines, plus a few named methods and
private helpers where the work of the layer sits.  Functions are found
when the run starts.  Every function a metric reads by name must be
found, so a change that renames or removes one stops the traced run
(``MissingTarget``) instead of letting its metrics read 0.
"""

from __future__ import annotations

import inspect
import weakref
from collections import Counter

# layer -> module
LAYERS = {
    "kernels": "noise_lattice.kernels",
    "linalg": "noise_lattice.linalg",
    "finmeas": "noise_lattice.finmeas",
    "sigma": "noise_lattice.sigma",
    "ntba": "noise_lattice.ntba",
    "chaos": "noise_lattice.chaos",
    "spectrum": "noise_lattice.spectrum",
    "randsup": "noise_lattice.randsup",
    "cofinite": "noise_lattice.cofinite",
    "checks": "noise_lattice.checks",
    "instances": "noise_lattice.instances",
    "cli": "noise_lattice.cli",
}

# the elimination kernels are re-exported by ``kernels`` from whichever
# implementation it selected; weighted_dot_int runs inside them
KERNEL_FUNCTIONS = ("row_echelon_int", "orthogonalize_int")

EXTRA = {
    "finmeas": (
        "Subspace.project",
        "Subspace.contains",
        "Subspace.canonical_key",
        "Subspace.equals",
        "Subspace.contains_subspace",
    ),
    "sigma": ("SigmaField.is_coarser_eq",),
    "ntba": ("NTBA.__init__", "NTBA._independence_problem", "NTBAElement.realize"),
    "cli": ("_emit", "_report"),
}

FLOAT_LINALG = ("linalg.float_orthonormalize", "linalg.float_rank", "linalg.float_nullspace")
LATTICE = ("sigma.meet", "sigma.join")
EMIT = ("cli._emit", "cli._report")
# the randsup entry points whose ``trials`` the counters add up
TRIAL_COUNTERS = ("randsup.run_join_process", "randsup.union_bound_report", "randsup.element_counts")
SPECTRAL_SUITES = (
    "spectral_complete",
    "walsh_oracle",
    "spectral_invariance",
    "k_monotone",
    "first_level_is_h1",
    "k_additivity",
    "sigma_tower",
)
SUITE_GROUPS = ("sampling", "cofinite", "spectral", "lattice")

# spans that derive() and the hooks read by name, beside KERNEL_FUNCTIONS
# and EXTRA; "cli.main" is the root span of every request
NAMED = (
    "linalg.exact_rref",
    "linalg.exact_orthogonalize",
    *FLOAT_LINALG,
    "finmeas.span_on",
    "finmeas.inner",
    "sigma.cond_exp",
    *LATTICE,
    "sigma.sigma_of_rvs",
    "chaos.first_chaos",
    "spectrum.spectral_decompose",
    "randsup.trial_rng",
    "randsup.sample_element",
    *TRIAL_COUNTERS,
    "cli.main",
    *(f"checks.suite_{s}" for s in SPECTRAL_SUITES),
)


class MissingTarget(LookupError):
    """A function or module a per-layer metric reads is not in the library."""

def _public_functions(mod):
    for attr, value in vars(mod).items():
        if (
            inspect.isfunction(value)
            and value.__module__ == mod.__name__
            and not attr.startswith("_")
            and not inspect.isgeneratorfunction(value)
        ):
            yield attr, value


def _lookup(mod, dotted: str):
    obj = mod
    for part in dotted.split("."):
        obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
        if obj is None:
            return None
    return obj if inspect.isfunction(obj) else None


def suite_group(suite: str) -> str:
    """The group of a ``checks`` suite name (without its ``suite_`` prefix)."""
    if suite.startswith("randsup_"):
        return "sampling"
    if suite.startswith("cofinite_"):
        return "cofinite"
    return "spectral" if suite in SPECTRAL_SUITES else "lattice"


def targets(modules: dict) -> dict:
    """Span name ("layer.function") -> function object, from loaded modules.

    Raises ``MissingTarget`` when a module, a named function or a whole
    group of ``checks`` suites is not found.
    """
    out = {}
    missing = [m for m in LAYERS.values() if m not in modules]
    if missing:
        raise MissingTarget("modules not found: " + ", ".join(missing))
    for layer, modname in LAYERS.items():
        mod = modules[modname]
        if layer == "kernels":
            # a compiled backend's kernels are callables, not Python functions
            found = [(n, getattr(mod, n, None)) for n in KERNEL_FUNCTIONS]
            missing += [f"kernels.{n}" for n, fn in found if not callable(fn)]
        else:
            found = list(_public_functions(mod))
            for n in EXTRA.get(layer, ()):
                fn = _lookup(mod, n)
                if fn is None:
                    missing.append(f"{layer}.{n}")
                found.append((n, fn))
        for name, fn in found:
            if callable(fn):
                out[f"{layer}.{name}"] = fn
    missing += [n for n in NAMED if n not in out]
    suites = {suite_group(n[len("checks.suite_"):]) for n in out if n.startswith("checks.suite_")}
    missing += [f"checks {g} suites" for g in SUITE_GROUPS if g not in suites]
    if missing:
        raise MissingTarget("not found: " + ", ".join(missing))
    return out


class Counters:
    """Counts taken at layer boundaries by the span hooks."""

    def __init__(self):
        self.count = Counter()
        self.bits_max = 0
        self._seen = weakref.WeakKeyDictionary()  # algebra -> realized atomsets

    def hooks(self, targets: dict) -> dict:
        def kernel_echelon(args, kwargs, result):
            rows = args[0]
            self.count["kernels.cells"] += len(rows) * (len(rows[0]) if rows else 0)
            self._bits(result[0])

        def kernel_orthogonalize(args, kwargs, result):
            vecs, weights = args[0], args[1]
            self.count["kernels.cells"] += len(vecs) * len(weights)
            self._bits(result[0])
            self._bits([result[1]])

        def realize(args, kwargs, result):
            element = args[0]
            seen = self._seen.setdefault(element.algebra, set())
            if element.atomset not in seen:
                seen.add(element.atomset)
                self.count["ntba.realize.distinct"] += 1

        def trials_of(name):
            sig = inspect.signature(targets[name])

            def hook(args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                trials = bound["trials"] if "trials" in bound else bound["cfg"].trials
                self.count["randsup.trials"] += trials

            return hook

        hooks = {
            "kernels.row_echelon_int": kernel_echelon,
            "kernels.orthogonalize_int": kernel_orthogonalize,
            "ntba.NTBAElement.realize": realize,
        }
        hooks.update({name: trials_of(name) for name in TRIAL_COUNTERS})
        return hooks

    def _bits(self, rows) -> None:
        widest = max((abs(x) for row in rows for x in row), default=0)
        self.bits_max = max(self.bits_max, int(widest).bit_length())

    def patches(self, modules: dict) -> list:
        """Counter patches without a span: RV constructions."""
        rv = getattr(modules["noise_lattice.finmeas"], "RV", None)
        original = vars(rv).get("__post_init__") if rv is not None else None
        if original is None:
            raise MissingTarget("not found: finmeas.RV.__post_init__")
        count = self.count

        def post_init(value):
            count["finmeas.rv_created"] += 1
            original(value)

        return [(rv, "__post_init__", post_init)]


def derive(table, counters: Counters, spectrum_requests: set, report_bytes: int) -> dict:
    """Per-layer metric values from a span table, by their BENCHMARK.json names."""
    names = table.names

    def layer(prefix):
        return [n for n in names if n.startswith(prefix + ".")]

    def ratio(a, b):
        return a / b if b else 0.0

    suites = [n for n in names if n.startswith("checks.suite_")]

    def suites_s(group):
        return table.inclusive_time([n for n in suites if suite_group(n[len("checks.suite_"):]) == group])

    first_chaos = table.mask(["chaos.first_chaos"])
    in_spectrum = first_chaos & table.in_requests(spectrum_requests)
    realize_calls = table.calls(["ntba.NTBAElement.realize"])
    trials = counters.count["randsup.trials"]
    return {
        "kernels.calls": table.calls(layer("kernels")),
        "kernels.self_s": table.self_time(layer("kernels")),
        "kernels.cells": counters.count["kernels.cells"],
        "kernels.bits_max": counters.bits_max,
        "linalg.calls": table.calls(layer("linalg")),
        "linalg.self_s": table.self_time(layer("linalg")),
        "linalg.exact_rref.self_s": table.self_time(["linalg.exact_rref"]),
        "linalg.exact_orthogonalize.self_s": table.self_time(["linalg.exact_orthogonalize"]),
        "linalg.float.self_s": table.self_time(FLOAT_LINALG),
        "finmeas.self_s": table.self_time(layer("finmeas")),
        "finmeas.span_on.calls": table.calls(["finmeas.span_on"]),
        "finmeas.inner.calls": table.calls(["finmeas.inner"]),
        "finmeas.rv_created": counters.count["finmeas.rv_created"],
        "sigma.self_s": table.self_time(layer("sigma")),
        "sigma.cond_exp.calls": table.calls(["sigma.cond_exp"]),
        "sigma.cond_exp.self_s": table.self_time(["sigma.cond_exp"]),
        "sigma.lattice.calls": table.calls(LATTICE),
        "sigma.lattice.self_s": table.self_time(LATTICE),
        "sigma.sigma_of_rvs.self_s": table.self_time(["sigma.sigma_of_rvs"]),
        "ntba.self_s": table.self_time(layer("ntba")),
        "ntba.realize.calls": realize_calls,
        "ntba.realize.distinct_ratio": ratio(counters.count["ntba.realize.distinct"], realize_calls),
        "ntba.independence.self_s": table.self_time(["ntba.NTBA._independence_problem"]),
        "chaos.self_s": table.self_time(layer("chaos")),
        "chaos.first_chaos.calls": int(first_chaos.sum()),
        "chaos.first_chaos.per_spectrum_report": ratio(int(in_spectrum.sum()), len(spectrum_requests)),
        "spectrum.self_s": table.self_time(layer("spectrum")),
        "spectrum.spectral_decompose.calls": table.calls(["spectrum.spectral_decompose"]),
        "randsup.self_s": table.self_time(layer("randsup")),
        "randsup.trials": trials,
        "randsup.streams_per_trial": ratio(table.calls(["randsup.trial_rng"]), trials),
        "randsup.trial_rng.self_s": table.self_time(["randsup.trial_rng"]),
        "randsup.sample_element.self_s": table.self_time(["randsup.sample_element"]),
        "cofinite.self_s": table.self_time(layer("cofinite")),
        "cofinite.calls": table.calls(layer("cofinite")),
        "checks.self_s": table.self_time(layer("checks")),
        **{f"checks.{g}_suites_s": suites_s(g) for g in SUITE_GROUPS},
        "instances.self_s": table.self_time(layer("instances")),
        "cli.self_s": table.self_time(layer("cli")),
        "cli.emit_s": table.inclusive_time(EMIT),
        "cli.report_bytes": report_bytes,
        "trace.spans": len(table.name),
    }
