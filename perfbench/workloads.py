"""Seeded inputs for the report workloads and the closed-form answers.

Every input is an atom-presented algebra written as the JSON that
``noise-lattice chaos report`` and ``spectrum report`` read.  It is built
here without the library: a product of small factor spaces whose
coordinates are the atoms, or a uniform sign space with its coordinate or
pair-sign atoms.  Because the atoms are independent and join to the
discrete field, the Hoeffding/Efron-Stein decomposition (Efron & Stein
1981) gives every reported dimension in closed form from the block counts
b_k alone, so the benchmark checks the answers without trusting the code
it times.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path

KINDS = ("chaos", "spectrum")


@dataclass(frozen=True)
class Request:
    """One CLI call on one generated algebra.

    ``blocks`` holds b_k for the atoms in file order and ``size`` the
    outcome count: all the oracle needs.
    """

    kind: str  # "chaos" or "spectrum"
    path: str
    size: int
    blocks: tuple

    def argv(self) -> list:
        return [self.kind, "report", self.path, "--format", "json"]


# ---------------------------------------------------------------------------
# algebras, as the JSON the CLI loads


def _prob_text(p: Fraction, exact: bool):
    return f"{p.numerator}/{p.denominator}" if exact else float(p)


def product_algebra(rng: random.Random, sizes, exact: bool) -> dict:
    """Coordinates of a product of factor spaces with random weights 1..9.

    Atom k is the k-th coordinate, so it has sizes[k] blocks.  Outcomes
    are listed in a random order and the atom order follows ``sizes``.
    """
    factors = []
    for s in sizes:
        w = [rng.randint(1, 9) for _ in range(s)]
        while len(set(w)) == 1:  # keep every factor non-uniform
            w = [rng.randint(1, 9) for _ in range(s)]
        factors.append([Fraction(x, sum(w)) for x in w])
    cells = list(itertools.product(*(range(s) for s in sizes)))
    rng.shuffle(cells)
    outcomes = [".".join(map(str, c)) for c in cells]
    probs = [
        _prob_text(prod((f[i] for f, i in zip(factors, c)), start=Fraction(1)), exact)
        for c in cells
    ]
    atoms = []
    for k, s in enumerate(sizes):
        groups = [[] for _ in range(s)]
        for idx, c in enumerate(cells):
            groups[c[k]].append(idx)
        atoms.append({"blocks": groups})
    return {"space": {"outcomes": outcomes, "probs": probs}, "atoms": atoms}


def sign_algebra(rng: random.Random, family: str, coords: int, exact: bool) -> dict:
    """Uniform space on 2^coords sign strings with permuted atom order.

    ``coords`` family: atoms sigma(xi_k).  ``pairs`` family: atoms
    sigma(xi_k xi_{k+1}) for k < coords plus sigma(xi_coords).  Both have
    ``coords`` atoms of two blocks each.
    """
    signs = ["".join(t) for t in itertools.product("+-", repeat=coords)]
    rng.shuffle(signs)
    p = _prob_text(Fraction(1, len(signs)), exact)

    def split(test):
        hit = [i for i, o in enumerate(signs) if test(o)]
        rest = [i for i, o in enumerate(signs) if not test(o)]
        return {"blocks": [hit, rest]}

    if family == "coords":
        atoms = [split(lambda o, k=k: o[k] == "+") for k in range(coords)]
    else:
        atoms = [split(lambda o, k=k: o[k] == o[k + 1]) for k in range(coords - 1)]
        atoms.append(split(lambda o: o[-1] == "+"))
    rng.shuffle(atoms)
    return {"space": {"outcomes": signs, "probs": [p] * len(signs)}, "atoms": atoms}


# ---------------------------------------------------------------------------
# request streams


def factor_shapes(max_outcomes: int) -> list:
    """Every multiset of factor sizes in {2, 3, 4}, at most 4 factors.

    Ordered by outcome count, then lexicographically.
    """
    shapes = {
        tuple(sorted(c))
        for m in range(1, 5)
        for c in itertools.product((2, 3, 4), repeat=m)
        if prod(c) <= max_outcomes
    }
    return sorted(shapes, key=lambda s: (prod(s), s))


@dataclass(frozen=True)
class StreamSpec:
    """The fixed shape mix of one pass; only weights and orders vary by seed."""

    exact: bool
    max_product: int  # largest product-algebra outcome count
    product_repeats: int  # requests per (factor shape, kind)
    signs: tuple  # (coords, kinds, repeats) for each sign family


SPECS = {
    "report-exact": StreamSpec(
        True, 64, 2, ((5, KINDS, 4), (6, KINDS, 2), (7, ("chaos",), 1))
    ),
    "report-float": StreamSpec(
        False, 128, 2, ((6, KINDS, 2), (7, KINDS, 2), (8, ("chaos",), 1))
    ),
}


def plan(spec: StreamSpec) -> list:
    """(kind, family, shape) triples of one pass, before shuffling."""
    items = []
    for shape in factor_shapes(spec.max_product):
        for kind in KINDS:
            items.extend([(kind, "product", shape)] * spec.product_repeats)
    for coords, kinds, repeats in spec.signs:
        for family in ("coords", "pairs"):
            for kind in kinds:
                items.extend([(kind, family, coords)] * repeats)
    return items


def write_pass(workload: str, seed: int, pass_no: int, out_dir: Path) -> list:
    """Generate and write one pass of distinct requests; returns them in order."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}:{seed}:{pass_no}")
    items = plan(spec)
    rng.shuffle(items)
    out_dir.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, (kind, family, shape) in enumerate(items):
        if family == "product":
            sizes = list(shape)
            rng.shuffle(sizes)
            obj = product_algebra(rng, sizes, spec.exact)
            blocks = tuple(sizes)
        else:
            obj = sign_algebra(rng, family, shape, spec.exact)
            blocks = (2,) * shape
        path = out_dir / f"p{pass_no:03d}-r{i:03d}.json"
        path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
        size = len(obj["space"]["outcomes"])
        requests.append(Request(kind, str(path), size, blocks))
    return requests


# ---------------------------------------------------------------------------
# the closed-form oracle


def elementary_symmetric(xs) -> list:
    """e_0, ..., e_n of the numbers xs."""
    e = [1]
    for x in xs:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


def expected_chaos(blocks) -> dict:
    return {
        "dim_h1": sum(b - 1 for b in blocks),
        "classical": True,
        "black": False,
    }


def expected_spectrum(blocks) -> dict:
    """Levels e_k(b_1-1, ..., b_n-1) and, per generator G, dim prod_{k in G}(b_k-1)."""
    n = len(blocks)
    levels = {str(k): d for k, d in enumerate(elementary_symmetric([b - 1 for b in blocks]))}
    points = {}
    for mask in range(1 << n):
        gen = tuple(k for k in range(n) if mask >> k & 1)
        points[gen] = prod((blocks[k] - 1 for k in gen), start=1)
    return {"levels": levels, "points": points}


def check_report(req: Request, stdout: str) -> str | None:
    """None when the report matches the closed form, else what differs."""
    try:
        report = json.loads(stdout)
        res = report["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if report.get("command") != f"{req.kind} report" or report.get("passed") is not True:
        return "wrong command or not passed"
    if req.kind == "chaos":
        want = expected_chaos(req.blocks)
        got = {k: res.get(k) for k in want}
        if got != want:
            return f"chaos {got} != {want}"
        singletons = [[i] for i in range(req.size)]
        if res.get("generated_blocks") != singletons:
            return "generated field is not discrete"
        return None
    want = expected_spectrum(req.blocks)
    if res.get("levels") != want["levels"] or res.get("classical") is not True:
        return f"levels {res.get('levels')} != {want['levels']}"
    n = len(req.blocks)
    seen = {}
    for p in res.get("points", []):
        gen = tuple(p["generator_atoms"])
        pattern = [int(set(gen) <= {i for i in range(n) if m >> i & 1}) for m in range(1 << n)]
        if p["k"] != len(gen) or p["pattern"] != pattern:
            return f"point {gen} has a wrong level or pattern"
        seen[gen] = p["dim"]
    if seen != want["points"]:
        return "joint eigenspace dimensions differ"
    return None
