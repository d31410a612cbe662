"""Exact mode on integer weights agrees with the per-outcome Fraction oracles.

Spaces are drawn with mixed denominators (such as 1/3, 1/6, 1/4, 1/4),
together with random partitions, random variables and atom lists, in both
backends.  Values must be equal and verdicts the same; in float mode the
floats must be identical, since the float route keeps its arithmetic.
"""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

import pytest

from conftest import (
    cond_exp_oracle,
    cond_independent_oracle,
    dot_oracle,
    independence_problem_oracle,
    masses_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noise_lattice.finmeas import RV, ProbSpace, float_twin, inner, mk_dyadic, mk_space, product
from noise_lattice.instances import _rand_weighted, rand_element, rand_ntba, rand_rv, rand_space
from noise_lattice.linalg import to_int
from noise_lattice.ntba import NTBA, restrict
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


# ---------------------------------------------------------------------------
# a space is its weights: every builder against its Fraction-built twin


def fraction_space(outcomes, probs) -> ProbSpace:
    """The space of Fraction probabilities scaled over the lcm of their
    denominators, or of float probabilities over 1.0: the form every
    space had when its probabilities were its identity."""
    if all(type(p) is float for p in probs):
        return ProbSpace(tuple(outcomes), tuple(probs), 1.0)
    probs = [Fraction(p) for p in probs]
    nums, den = to_int(probs)
    return ProbSpace(tuple(outcomes), tuple(nums), den)


def twin(space, probs):
    """The Fraction-built twin of space, from per-outcome probabilities."""
    if space.mode == "float":
        probs = [float(p) for p in probs]
    return fraction_space(space.outcomes, probs)


def assert_twins(got, want):
    assert got == want and hash(got) == hash(want)
    assert got.weights == want.weights and got.total == want.total
    assert all(map(same, got.probs, want.probs))


def test_equal_laws_are_equal_spaces():
    want = fraction_space("ab", [Fraction(1, 3), Fraction(2, 3)])
    assert_twins(ProbSpace(("a", "b"), (2, 4), 6), want)
    assert_twins(mk_space("ab", ["2/6", "4/6"]), want)
    assert ProbSpace(("a", "b"), (2, 4), 6).weights == (1, 2)
    assert_twins(ProbSpace(("a", "b"), (0.5, 1.5), 2.0), fraction_space("ab", [0.25, 0.75]))


@given(masses(1, 8), st.booleans())
def test_mk_space_matches_its_fraction_twin(ms, as_float):
    space = space_of(ms, as_float)
    total = sum(ms)
    assert_twins(space, twin(space, [m / total for m in ms]))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_product_matches_its_per_cell_fraction_twin(mode):
    rng = random.Random(53)
    for n in range(1, 5):
        for _ in range(20):
            factors = [rand_space(rng, 4, mode) for _ in range(n)]
            got = product(*factors).space
            if mode == "rational":
                probs = [prod(ps) for ps in itertools.product(*(f.probs for f in factors))]
            else:  # left to right, the floats of nested two-factor products
                probs = [prod(ps, start=1.0) for ps in itertools.product(*(f.probs for f in factors))]
            assert_twins(got, twin(got, probs))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_restriction_matches_its_block_mass_twin(mode):
    rng = random.Random(59)
    for _ in range(40):
        B = rand_ntba(rng, 32, mode)
        e = rand_element(rng, B)
        if not e.atomset:
            continue
        x = e.realize()
        got = restrict(e).algebra.space
        probs = [sum(B.space.probs[i] for i in b) for b in x.blocks]
        assert_twins(got, twin(got, probs))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_random_spaces_and_rvs_match_their_fraction_twins(mode):
    """The same draws in the same order as probabilities and values built as Fractions."""
    for seed in range(100):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        space = _rand_weighted(rng, seed % 5 + 1, "w", mode)
        weights = [oracle_rng.randint(1, 9) for _ in range(space.size)]
        want = twin(space, [Fraction(w, sum(weights)) for w in weights])
        assert_twins(space, want)
        f = rand_rv(rng, space)
        if mode == "rational":
            vals = [Fraction(oracle_rng.randint(-6, 6), oracle_rng.randint(1, 4)) for _ in weights]
        else:
            vals = [oracle_rng.uniform(-3.0, 3.0) for _ in weights]
        g = RV(want, tuple(vals))
        assert f == g and hash(f) == hash(g)
        assert rng.random() == oracle_rng.random()


def count_fractions(monkeypatch) -> list:
    """Patch ``Fraction.__new__`` to record every Fraction built."""
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return built


def test_building_a_product_or_a_random_algebra_makes_no_fraction(monkeypatch):
    factors = [mk_space("ab", ["1/3", "2/3"]), mk_dyadic(2), mk_space("xyz", ["1/2", "1/4", "1/4"])]
    rng = random.Random(61)
    built = count_fractions(monkeypatch)
    prod3 = product(*factors)
    algebras = [rand_ntba(rng, 64) for _ in range(20)]
    assert built == []
    assert prod3.space.size == 24 and max(B.space.size for B in algebras) > 8
    assert prod3.space.probs[0] == Fraction(1, 24)  # reading the view builds them
    assert built


def test_the_float_twin_is_each_weight_over_the_total_correctly_rounded():
    rng = random.Random(67)
    spaces = [rand_space(rng, 5) for _ in range(50)]
    spaces += [mk_dyadic(3), mk_space("abc", ["1/3", "1/6", "1/2"])]
    spaces.append(product(spaces[0], spaces[1], spaces[2]).space)
    for space in spaces:
        got = float_twin(space)
        want = [float(Fraction(w, space.total)) for w in space.weights]
        assert got.mode == "float" and got.outcomes == space.outcomes
        assert got.weights == tuple(want) and got.total == 1.0
        assert got == mk_space(space.outcomes, [float(p) for p in space.probs])
