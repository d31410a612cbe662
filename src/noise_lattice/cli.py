"""Command-line entry point wiring all modules together.

Reports are deterministic for identical inputs and seed: JSON is emitted
with sorted keys and no timestamps, so ``check all --seed S`` twice gives
byte-identical output.  Exit codes: 0 pass, 1 assertion failure, 2 usage
error, 3 capacity guard.

The check suites, the symbolic cofinite model and the sampler are
imported by the handlers that run them, so the report, ``ntba``,
``sigma`` and ``space`` commands start without loading them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import partial
from itertools import groupby

from . import __version__
from .errors import CapacityError, NoiseLatticeError, PreconditionError
from .finmeas import (
    coordinate_sign,
    float_twin,
    mk_dyadic,
    space_from_json,
    space_to_json,
)
from .kernels import BACKEND
from .ntba import (
    mk_coordinate_ntba,
    mk_parity_ntba,
    ntba_from_json,
    ntba_to_json,
    presentation_from_json,
    presentation_problem,
    restrict,
)
from .sigma import (
    commutes,
    independent,
    join,
    meet,
    partition_from_json,
    partition_to_json,
    sigma_of_rvs,
)
from .spectrum import certified_dims, certified_levels, membership

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

# spectrum report's JSON and text pattern holds 4^n membership bits: on ntba
# coords 12 the JSON report takes 2.0 s and 222 MB (34 MB printed) and the text
# report 7 s and 158 MB (202 MB printed, a line per bit; one shared Xeon vCPU,
# Python 3.11), and each atom more multiplies that by 4
MAX_PATTERN_ATOMS = 12


class UsageError(Exception):
    """Bad input from the command line or an input file (exit 2)."""


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _report(command: str, inputs, results, passed: bool, seed=None) -> dict:
    return {
        "command": command,
        "inputs_digest": _digest(inputs),
        "results": results,
        "passed": passed,
        "seed": seed,
        "versions": {"noise_lattice": __version__, "kernel": BACKEND},
    }


def _emit(args, report: dict) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":"), default=str))
    else:
        _emit_text(report)


def _emit_text(report: dict) -> None:
    print(f"command: {report['command']}")
    _print_tree(report["results"], "  ")
    print(f"passed: {report['passed']}")


def _print_tree(node, indent: str) -> None:
    if isinstance(node, dict):
        for k in sorted(node):
            v = node[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_tree(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    else:  # a list: each run of scalars is written at once
        for nested, run in groupby(node, lambda v: isinstance(v, (dict, list))):
            if nested:
                for v in run:
                    _print_tree(v, indent + "  ")
            else:
                sys.stdout.write("".join(f"{indent}- {v}\n" for v in run))


def _dyadic_space(args, n: int):
    """The dyadic space on n coordinates, in the backend that ``--mode`` selects."""
    space = mk_dyadic(n)
    return float_twin(space) if args.mode == "float" else space


def _load(path: str, parse):
    """Read and parse one JSON input file; unreadable or bad input is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None
    except KeyError as exc:
        raise UsageError(f"{path}: missing key {exc}") from None
    except (ValueError, TypeError, ArithmeticError) as exc:  # JSONDecodeError is a ValueError
        if str(exc).startswith("Exceeds the limit"):  # a JSON int past Python's int-string limit
            exc = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        raise UsageError(f"{path}: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path}: the input is nested too deeply") from None


def _int_at_least(low: int):
    """An argparse type for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse errors
    return parse


def _list_of(convert):
    """An argparse type for comma-separated values, each read by ``convert``."""

    def parse(text: str) -> tuple:
        return tuple(convert(t) for t in text.split(","))

    parse.__name__ = f"comma-separated {convert.__name__}"  # named in argparse errors
    return parse


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_space(args) -> int:
    if args.space_cmd == "dyadic":
        space = _dyadic_space(args, args.n)
    else:
        space = _load(args.file, space_from_json)
    print(json.dumps(space_to_json(space), sort_keys=True))
    return EXIT_OK


def cmd_sigma(args) -> int:
    space = _load(args.space, space_from_json)
    x = _load(args.x, partial(partition_from_json, space))
    y = _load(args.y, partial(partition_from_json, space))
    if args.sigma_cmd == "meet":
        print(json.dumps(partition_to_json(meet(x, y)), sort_keys=True))
    elif args.sigma_cmd == "join":
        print(json.dumps(partition_to_json(join(x, y)), sort_keys=True))
    elif args.sigma_cmd == "indep":
        print(json.dumps({"independent": independent(x, y)}))
    else:
        print(json.dumps({"commutes": commutes(x, y)}))
    return EXIT_OK


def cmd_ntba(args) -> int:
    if args.ntba_cmd == "coords":
        algebra = mk_coordinate_ntba(_dyadic_space(args, args.n))
        print(json.dumps(ntba_to_json(algebra), sort_keys=True))
        return EXIT_OK
    if args.ntba_cmd == "parity":
        algebra = mk_parity_ntba(args.n, _dyadic_space(args, args.n + 1))
        print(json.dumps(ntba_to_json(algebra), sort_keys=True))
        return EXIT_OK
    if args.ntba_cmd == "validate":
        reason = presentation_problem(*_load(args.file, presentation_from_json))
        print(json.dumps({"valid": reason is None, "reason": reason}, sort_keys=True))
        return EXIT_OK if reason is None else EXIT_FAIL
    algebra = _load(args.file, ntba_from_json)
    try:
        e = algebra.element(int(t) for t in args.atomset.split(",") if t != "")
    except ValueError as exc:
        raise UsageError(f"atom set {args.atomset!r}: {exc}") from None
    if not e.atomset:
        raise UsageError(f"atom set {args.atomset!r}: restrict needs at least one atom")
    try:
        r = restrict(e)
    except ValueError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    print(json.dumps(ntba_to_json(r.algebra), sort_keys=True))
    return EXIT_OK


def cmd_chaos(args) -> int:
    algebra = _load(args.file, ntba_from_json)
    # the certified atoms join to the discrete field, which the first chaos generates
    dim_h1 = certified_levels(algebra)[1]
    size = algebra.space.size
    if args.format == "csv":
        print("dim_h1,classical,black,generated_block_count")
        print(f"{dim_h1},True,False,{size}")
        return EXIT_OK
    results = {
        "dim_h1": dim_h1,
        "classical": True,
        "black": False,
        "generated_blocks": [[i] for i in range(size)],
    }
    _emit(args, _report("chaos report", ntba_to_json(algebra), results, True))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    algebra = _load(args.file, ntba_from_json)
    n = algebra.n_atoms
    if args.format != "csv" and n > MAX_PATTERN_ATOMS:
        raise CapacityError(
            f"a spectrum pattern of {n} atoms has 4^{n} entries, past the guard of "
            f"n <= {MAX_PATTERN_ATOMS} atoms; --format csv prints the levels alone"
        )
    if args.format == "csv":
        print("level,dimension")
        for k, d in certified_levels(algebra).items():
            print(f"{k},{d}")
        return EXIT_OK
    points, levels = certified_dims(algebra)
    results = {
        "points": [
            {"generator_atoms": sorted(g), "k": len(g), "dim": d, "pattern": membership(g, n)}
            for g, d in points
        ],
        "levels": {str(k): d for k, d in levels.items()},
        # at finite scale every generator has finitely many atoms, so the
        # grading is always classical
        "classical": True,
    }
    _emit(args, _report("spectrum report", ntba_to_json(algebra), results, True))
    return EXIT_OK


def _cofinite_row(e) -> dict:
    """An element of the closure with its membership and its complement, if any."""
    from . import cofinite as cf

    comp = cf.has_complement(e)
    return {
        "element": cf.format_elem(e),
        "membership": cf.closure_membership(e),
        "complement": None if comp is None else cf.format_elem(comp),
    }


def _ultrafilter_row(u) -> dict:
    """An ultrafilter of the algebra with the infimum of its members."""
    from . import cofinite as cf

    return {"kind": u.kind, "index": u.index, "infimum": cf.format_elem(u.infimum())}


def cmd_cofinite(args) -> int:
    from . import cofinite as cf

    if args.cofinite_cmd == "eval":
        try:
            e = cf.parse_elem(args.expr)
        except ValueError as exc:
            raise UsageError(f"element {args.expr!r}: {exc}") from None
        print(json.dumps(_cofinite_row(e), sort_keys=True))
        return EXIT_OK
    return _cofinite_dossier(args)


def _cofinite_dossier(args) -> int:
    from . import cofinite as cf

    evens = cf.progression(2)
    rows = [_cofinite_row(cf.parse_elem(t)) for t in ["x4", "y1|y2|y5", "Y(2k)", "Y(3k)"]]
    crit_all = cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET))
    crit_even = cf.completion_criterion_check(cf.PrefixJoins(evens))
    dbl = cf.double_limit_check(cf.PrefixJoins(cf.FULL_SET))
    completion_is_algebra = not cf.complement_problems()
    atomless, witness = cf.is_atomless()
    results = {
        "closure_examples": rows,
        "increasing_limit_criterion": {
            "prefix_joins_all": {
                "holds": crit_all.holds,
                "sup": cf.format_elem(crit_all.sup),
                "inf_complements": cf.format_elem(crit_all.inf_complements),
                "join": cf.format_elem(crit_all.joined),
            },
            "prefix_joins_evens": {
                "holds": crit_even.holds,
                "join": cf.format_elem(crit_even.joined),
            },
        },
        "double_limit_identity": dbl.equal,
        "completion_equals_algebra": completion_is_algebra,
        "atomless": atomless,
        "atomless_witness": _ultrafilter_row(witness),
        "ultrafilters": [_ultrafilter_row(u) for u in cf.enumerate_ultrafilters(6)],
    }
    passed = (
        not crit_all.holds
        and not crit_even.holds
        and dbl.equal
        and completion_is_algebra
        and not atomless
    )
    _emit(args, _report("cofinite demo", {}, results, passed))
    return EXIT_OK if passed else EXIT_FAIL


def cmd_randsup(args) -> int:
    from . import randsup as rs

    ps = args.ps
    counts = args.atoms or tuple(4 for _ in ps)
    try:
        cfg = rs.SampleConfig(counts, ps, seed=args.seed, trials=args.trials)
        rep = rs.union_bound_report(cfg)
    except (ValueError, PreconditionError) as exc:
        raise UsageError(f"--ps/--atoms: {exc}") from None
    results = {
        "estimate": rep.estimate,
        "exact": rep.exact,
        "bound": rep.bound,
        "sigma": rep.sigma,
        "within_three_sigma": rep.within_three_sigma,
        "below_bound": rep.below_bound,
        "inclusion_decay": rs.inclusion_decay(cfg),
    }
    report = _report(
        "randsup run",
        {"ps": ps, "atoms": counts, "trials": args.trials},
        results,
        rep.ok,
        seed=args.seed,
    )
    _emit(args, report)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_check(args) -> int:
    from . import checks

    results = checks.run_all(args.seed, args.cases)
    payload = [
        {
            "suite": r.name,
            "cases": r.cases,
            "passed": r.passed,
            "failures": r.failures[:3],
        }
        for r in results
    ]
    passed = all(r.passed for r in results)
    report = _report(
        "check all",
        {"cases": args.cases, "inject_fault": False},  # the old key keeps inputs_digest unchanged
        payload,
        passed,
        seed=args.seed,
    )
    _emit(args, report)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_demo(args) -> int:
    """The sign-product dossier: what finite scale sees of nonclassicality."""
    from . import cofinite as cf
    from .chaos import first_chaos

    h1_dims = {}
    pair_generators_present = True
    for n in range(1, 7):
        algebra = mk_parity_ntba(n)
        h1_dims[str(n)] = certified_levels(algebra)[1]
        cr = first_chaos(algebra)
        for k in range(1, n + 1):
            pair = coordinate_sign(algebra.space, k) * coordinate_sign(
                algebra.space, k + 1
            )
            pair_generators_present = pair_generators_present and cr.h1.contains(pair)
    space3 = mk_parity_ntba(3).space
    pairs = [
        coordinate_sign(space3, k) * coordinate_sign(space3, k + 1) for k in (1, 2, 3)
    ]
    pairing = sigma_of_rvs(space3, pairs)
    block_sizes = sorted(len(b) for b in pairing.blocks)
    crit = cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET))
    completion_is_algebra = not cf.complement_problems()
    results = {
        "parity_h1_dims": h1_dims,
        "pair_signs_span_h1": pair_generators_present,
        "sign_pairing_blocks_n3": {
            "count": len(block_sizes),
            "sizes": sorted(set(block_sizes)),
        },
        "increasing_limit_criterion_fails": not crit.holds,
        "criterion_sup": cf.format_elem(crit.sup),
        "completion_verdict": "B itself" if completion_is_algebra else "larger than B",
    }
    passed = (
        all(h1_dims[str(n)] == n + 1 for n in range(1, 7))
        and pair_generators_present
        and len(block_sizes) == 8
        and set(block_sizes) == {2}
        and not crit.holds
        and completion_is_algebra
    )
    _emit(args, _report("demo", {}, results, passed))
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="noise-lattice",
        description="lattice-of-sigma-fields computations at desk scale",
    )
    p.add_argument("--mode", choices=["rational", "float"], default="rational",
                   help="numeric backend (default: rational)")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("space", help="construct or load probability spaces")
    spsub = sp.add_subparsers(dest="space_cmd", required=True)
    d = spsub.add_parser("dyadic")
    d.add_argument("n", type=_int_at_least(1))
    ld = spsub.add_parser("load")
    ld.add_argument("file")
    sp.set_defaults(fn=cmd_space)

    sg = sub.add_parser("sigma", help="lattice operations on partitions")
    sg.add_argument("sigma_cmd", choices=["meet", "join", "indep", "commutes"])
    sg.add_argument("space")
    sg.add_argument("x")
    sg.add_argument("y")
    sg.set_defaults(fn=cmd_sigma)

    nb = sub.add_parser("ntba", help="noise-type Boolean algebras")
    nbsub = nb.add_subparsers(dest="ntba_cmd", required=True)
    c = nbsub.add_parser("coords")
    c.add_argument("n", type=_int_at_least(1))
    pa = nbsub.add_parser("parity")
    pa.add_argument("n", type=_int_at_least(1))
    va = nbsub.add_parser("validate")
    va.add_argument("file")
    re_ = nbsub.add_parser("restrict")
    re_.add_argument("file")
    re_.add_argument("atomset")
    nb.set_defaults(fn=cmd_ntba)

    ch = sub.add_parser("chaos", help="first chaos report")
    ch.add_argument("chaos_cmd", choices=["report"])
    ch.add_argument("file")
    ch.add_argument("--format", choices=["text", "json", "csv"], default="text")
    ch.set_defaults(fn=cmd_chaos)

    st = sub.add_parser("spectrum", help="spectral decomposition report")
    st.add_argument("spectrum_cmd", choices=["report"])
    st.add_argument("file")
    st.add_argument("--format", choices=["text", "json", "csv"], default="text")
    st.set_defaults(fn=cmd_spectrum)

    co = sub.add_parser("cofinite", help="the symbolic sign-product algebra")
    cosub = co.add_subparsers(dest="cofinite_cmd", required=True)
    cd = cosub.add_parser("demo")
    cd.add_argument("--format", choices=["text", "json"], default="text")
    ev = cosub.add_parser("eval")
    ev.add_argument("expr")
    co.set_defaults(fn=cmd_cofinite)

    ru = sub.add_parser("randsup", help="random supremum experiments")
    rusub = ru.add_subparsers(dest="randsup_cmd", required=True)
    run = rusub.add_parser("run")
    run.add_argument("--ps", type=_list_of(float), required=True,
                     help="comma-separated inclusion probabilities")
    run.add_argument("--atoms", type=_list_of(_int_at_least(1)), default=None,
                     help="comma-separated atom counts")
    run.add_argument("--trials", type=_int_at_least(1), default=100_000)
    run.add_argument("--seed", type=_int_at_least(0), default=0)
    run.add_argument("--format", choices=["text", "json"], default="text")
    ru.set_defaults(fn=cmd_randsup)

    ck = sub.add_parser("check", help="run the randomized property suites")
    ck.add_argument("check_cmd", choices=["all"])
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--cases", type=_int_at_least(1), default=None)
    ck.add_argument("--format", choices=["text", "json"], default="json")
    ck.set_defaults(fn=cmd_check)

    de = sub.add_parser("demo", help="the full nonclassical-example dossier")
    de.add_argument("--format", choices=["text", "json"], default="text")
    de.set_defaults(fn=cmd_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the report was not delivered; send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NoiseLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
