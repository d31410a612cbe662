"""Seeded random instances for the property suites.

Everything takes a ``random.Random`` so the check runner and the tests can
reproduce any failure from (seed, case index) alone.  Independent pairs
and mutually independent atom families are built on product spaces, where
independence holds by construction.  There is one product rule,
``finmeas.product``, which builds the product of n factors at once with
its coordinate maps; an atom family takes coordinate k's field as atom k.

An integer in a..b is drawn as ``rng.choice(range(a, b + 1))``.  In
CPython that is the one call ``_randbelow(b - a + 1)`` that
``rng.randint(a, b)`` makes, so the streams are those of ``randint`` and
``randrange``, with two fewer Python calls per draw.
"""

from __future__ import annotations

from .finmeas import ProbSpace, RV, constant, float_twin, product
from .linalg import _intvec
from .ntba import NTBA
from .sigma import SigmaField, _group, lift_partition


_WEIGHTS = range(1, 10)
_NUMERATORS = range(-6, 7)
_DENOMINATORS = range(1, 5)


def _rand_weighted(rng, n: int, prefix: str, mode: str) -> ProbSpace:
    """n outcomes named prefix0, prefix1, ... with random weights 1..9."""
    weights = tuple([rng.choice(_WEIGHTS) for _ in range(n)])
    space = ProbSpace(tuple([f"{prefix}{i}" for i in range(n)]), weights, sum(weights))
    return space if mode == "rational" else float_twin(space)


def rand_space(rng, max_size: int = 5, mode: str = "rational") -> ProbSpace:
    return _rand_weighted(rng, rng.choice(range(2, max_size + 1)), "w", mode)


def _rand_onto(rng, n: int) -> list:
    """A random labeling of n slots onto 0, ..., k-1 (every label used), k in 1..n."""
    k = rng.choice(range(1, n + 1))
    labels = list(range(k)) + [rng.choice(range(k)) for _ in range(n - k)]
    rng.shuffle(labels)
    return labels


def rand_partition(rng, space: ProbSpace) -> SigmaField:
    return _group(space, [_rand_onto(rng, space.size)])


def rand_rv(rng, space: ProbSpace, zero_mean: bool = False) -> RV:
    if space.mode == "rational":
        # a/d with d in 1..4, over their common denominator 12
        draws = [(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)) for _ in range(space.size)]
        vec = _intvec([a * (12 // d) for a, d in draws], 12)
    else:
        vec = [rng.uniform(-3.0, 3.0) for _ in range(space.size)]
    f = RV(space, vec)
    if zero_mean:
        f = f - constant(space, f.mean())
    return f


def rand_independent_pair(rng):
    """(space, x, y) with x, y independent by the product construction."""
    prod = product(rand_space(rng, 4), rand_space(rng, 4))
    x = lift_partition(prod, rand_partition(rng, prod.factors[0]), 0)
    y = lift_partition(prod, rand_partition(rng, prod.factors[1]), 1)
    return prod, x, y


def rand_ntba(rng, max_outcomes: int = 64, mode: str = "rational") -> NTBA:
    """Mutually independent atoms on a product of small random spaces."""
    sizes = []
    total = 1
    n_factors = rng.choice(range(1, 5))
    for _ in range(n_factors):
        s = rng.choice(range(2, 5))
        if total * s > max_outcomes:
            break
        sizes.append(s)
        total *= s
    if not sizes:
        sizes = [2]
    prod = product(*(_rand_weighted(rng, s, "f", mode) for s in sizes))
    atoms = [_group(prod.space, [coord]) for coord in prod.coords]
    return NTBA(prod.space, atoms)


def rand_element(rng, algebra: NTBA):
    return algebra.element(
        i for i in range(algebra.n_atoms) if rng.random() < 0.5
    )


def rand_atom_groups(rng, algebra: NTBA) -> list:
    """A random partition of the atom indices into nonempty groups."""
    groups: dict = {}
    for i, lab in enumerate(_rand_onto(rng, algebra.n_atoms)):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())
