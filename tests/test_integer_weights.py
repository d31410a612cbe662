"""Exact mode on integer weights agrees with the per-outcome Fraction oracles.

Spaces are drawn with mixed denominators (such as 1/3, 1/6, 1/4, 1/4),
together with random partitions, random variables and atom lists, in both
backends.  Values must be equal and verdicts the same; in float mode the
floats must be identical, since the float route keeps its arithmetic.
"""

import itertools
from fractions import Fraction
from math import lcm

from conftest import (
    cond_exp_oracle,
    cond_independent_oracle,
    dot_oracle,
    independence_problem_oracle,
    masses_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noise_lattice.finmeas import RV, inner, mk_space
from noise_lattice.linalg import to_int
from noise_lattice.ntba import NTBA
from noise_lattice.sigma import _product_problem, cond_exp, meet, partition, trivial


def masses(min_size, max_size):
    """Unnormalized probabilities a/b, normalized by their sum in ``space_of``."""
    mass = st.builds(Fraction, st.integers(1, 9), st.integers(1, 12))
    return st.lists(mass, min_size=min_size, max_size=max_size)


values = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


def space_of(ms, as_float=False):
    total = sum(ms)
    probs = [m / total for m in ms]
    if as_float:
        probs = [float(p) for p in probs]
    return mk_space([f"o{i}" for i in range(len(ms))], probs)


def field_of(space, labels):
    blocks: dict = {}
    for i, k in enumerate(labels):
        blocks.setdefault(k, []).append(i)
    return partition(space, list(blocks.values()))


@st.composite
def cases(draw):
    """A space, two partitions and two RVs on it, in one backend."""
    ms = draw(masses(1, 8))
    space = space_of(ms, as_float=draw(st.booleans()))
    n = space.size
    labels = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    x, y = field_of(space, draw(labels)), field_of(space, draw(labels))
    vals = st.lists(values, min_size=n, max_size=n)
    coerce = space.backend.coerce
    f, g = (RV(space, tuple(map(coerce, draw(vals)))) for _ in range(2))
    return space, x, y, f, g


SKEW = mk_space("abcd", [Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)])
SKEW_CASE = (
    SKEW,
    partition(SKEW, [[0, 1], [2, 3]]),
    partition(SKEW, [[0, 2], [1, 3]]),
    RV(SKEW, (Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(0))),
    RV(SKEW, (Fraction(1, 2),) * 4),
)


def same(a, b) -> bool:
    """Equal values of the same type (Fraction, or float bit for bit)."""
    return a == b and type(a) is type(b)


def test_weights_are_integers_over_the_lcm_of_the_denominators():
    assert SKEW.weights == (4, 2, 3, 3) and SKEW.total == 12
    fspace = mk_space("ab", [0.25, 0.75])
    assert fspace.weights == fspace.probs and fspace.total == 1.0


@given(st.lists(values, max_size=8))
def test_to_int_clears_the_denominators_exactly(vals):
    ints, den = to_int(vals)
    assert all(type(n) is int for n in ints)
    assert den == lcm(*(v.denominator for v in vals))
    assert [Fraction(n, den) for n in ints] == vals


@settings(max_examples=200, deadline=None)
@given(cases())
@example(SKEW_CASE)
def test_block_sums_match_the_fraction_oracles(case):
    space, x, y, f, g = case
    assert all(map(same, x.masses, masses_oracle(x)))
    assert all(map(same, cond_exp(x, f).values, cond_exp_oracle(x, f)))
    if space.backend.tol is None:  # the float inner product is numpy's, as before
        assert same(inner(f, g), dot_oracle(f, g))
        assert same(inner(f, f), dot_oracle(f, f))


@settings(max_examples=200, deadline=None)
@given(cases())
@example(SKEW_CASE)
def test_product_rule_verdicts_match_the_fraction_oracle(case):
    space, x, y, _, _ = case
    for z in (trivial(space), meet(x, y)):
        assert (_product_problem([x, y], z) is None) == cond_independent_oracle(x, y, z)


@st.composite
def atom_lists(draw):
    """Coordinates of a product of 1-3 factors, the probabilities shuffled or not.

    A repeated atom breaks independence, and a dropped one the generation
    of the discrete field.
    """
    factors = draw(st.lists(masses(2, 3), min_size=1, max_size=3))
    cells = list(itertools.product(*(range(len(fm)) for fm in factors)))
    probs = []
    for cell in cells:
        p = Fraction(1)
        for fm, i in zip(factors, cell):
            p *= fm[i] / sum(fm)
        probs.append(p)
    probs = draw(st.one_of(st.just(probs), st.permutations(probs)))
    space = space_of(probs, as_float=draw(st.booleans()))
    atoms = [field_of(space, [cell[k] for cell in cells]) for k in range(len(factors))]
    change = draw(st.sampled_from(["none", "repeat", "drop"]))
    if change == "repeat":
        atoms.append(draw(st.sampled_from(atoms)))
    elif change == "drop":
        atoms.pop()
    return space, atoms


def problem_of(space, atoms):
    try:
        NTBA(space, atoms)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(atom_lists())
def test_atom_independence_messages_match_the_fraction_oracle(case):
    space, atoms = case
    assert problem_of(space, atoms) == independence_problem_oracle(space, atoms)
