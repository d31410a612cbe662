"""Random variables held as integers over one denominator agree with their per-outcome forms.

Spaces are drawn with mixed denominators in both backends, with random
partitions and random variables on them.  Every operation on the backend
vectors must give the values of the per-outcome oracles in
``tests/conftest.py``: equal Fractions in rational mode, and in float mode
the same floats bit for bit, since the float route keeps its arithmetic.
"""

import random
from fractions import Fraction

import pytest
from conftest import (
    add_oracle,
    centred_oracle,
    cond_exp_oracle,
    gram_schmidt_oracle,
    indicator_oracle,
    inner_oracle,
    level_sets_oracle,
    lift_oracle,
    mean_oracle,
    mul_oracle,
    neg_oracle,
    project_oracle,
    rref_oracle,
    sub_oracle,
    times_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_integer_weights import field_of, masses, space_of, values

from noise_lattice import linalg
from noise_lattice.chaos import atom_bases, first_chaos
from noise_lattice.finmeas import RV, constant, indicator, inner, mk_space, span_on
from noise_lattice.instances import rand_element, rand_ntba, rand_partition, rand_rv, rand_space
from noise_lattice.ntba import restrict
from noise_lattice.sigma import cond_exp, sigma_of_rvs, subspace_of


def same(a, b) -> bool:
    """Equal Fractions, or the same float bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def all_same(got, want) -> bool:
    return len(got) == len(want) and all(map(same, got, want))


@st.composite
def cases(draw):
    """A space, a partition, three RVs and a scalar, in one backend."""
    space = space_of(draw(masses(1, 8)), as_float=draw(st.booleans()))
    n = space.size
    x = field_of(space, draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    coerce = space.backend.coerce
    vals = st.lists(values, min_size=n, max_size=n)
    f, g, h = (RV(space, tuple(map(coerce, draw(vals)))) for _ in range(3))
    return space, x, f, g, h, coerce(draw(values))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_arithmetic_matches_the_per_outcome_forms(case):
    _, _, f, g, _, c = case
    assert all_same((f + g).values, add_oracle(f, g))
    assert all_same((f - g).values, sub_oracle(f, g))
    assert all_same((f * g).values, mul_oracle(f, g))
    assert all_same((f * c).values, times_oracle(f, c))
    assert all_same((c * f).values, times_oracle(f, c))
    assert all_same((-f).values, neg_oracle(f))
    assert same(f.mean(), mean_oracle(f))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_inner_cond_exp_and_projections_match_the_per_outcome_forms(case):
    space, x, f, g, h, _ = case
    assert same(inner(f, g), inner_oracle(f, g))
    assert all_same(cond_exp(x, f).values, cond_exp_oracle(x, f))
    for sub in (subspace_of(x), span_on(space, [g, h])):
        want = project_oracle(sub, f)
        assert all_same(sub.project(f).values, want)
        assert sub.contains(f) == space.backend.equal(tuple(f.values), want)
        assert sub.contains(sub.project(f))


def _centred(space, field):
    """The centred indicators of the field's blocks, as the backend builds them."""
    build = space.backend.centred_indicator
    return [build(b, w, space.total, space.size) for b, w in zip(field.blocks, field.weights)]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_indicators_and_centred_vectors_match_their_value_forms(mode):
    """Built from the block weights over the total, the vectors have the
    values of the oracles: equal Fractions, or the same floats as the
    float expressions -p and 1.0 - p."""
    rng = random.Random(38)
    for _ in range(50):
        space = rand_space(rng, 7, mode)
        x = rand_partition(rng, space)
        for block, vec in zip(x.blocks, _centred(space, x)):
            assert all_same(indicator(space, block).values, indicator_oracle(space, block))
            assert all_same(RV(space, vec).values, centred_oracle(space, block))
        assert all_same(indicator(space, []).values, indicator_oracle(space, []))


def test_atom_bases_and_projections_match_their_fraction_routes():
    """On 50 random rational algebras each atom's basis spans the oracle's
    centred indicators, and projecting onto it, onto the first chaos and onto
    L2 of an element gives the per-outcome projection's Fractions."""
    rng = random.Random(39)
    for _ in range(50):
        B = rand_ntba(rng, 32)
        space = B.space
        bases = atom_bases(B)
        for atom, sub in zip(B.atoms, bases):
            want = [RV(space, centred_oracle(space, b)) for b in atom.blocks[:-1]]
            assert sub.canonical_key() == span_on(space, want).canonical_key()
        f = rand_rv(rng, space)
        x = rand_element(rng, B).realize()
        h1 = first_chaos(B).h1
        for sub in (*bases, h1, subspace_of(x), span_on(space, [f * f, cond_exp(x, f)])):
            assert sub.project(f).values == project_oracle(sub, f)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_span_and_level_sets_match_the_per_outcome_forms(case):
    space, _, f, g, h, _ = case
    sub = span_on(space, [f, g, h, f + g])
    if space.mode == "float":
        old = linalg.float_orthonormalize([v.values for v in (f, g, h, f + g)], space.probs)
        assert [b.values for b in sub.basis] == [tuple(v.tolist()) for v in old]
        return
    want = gram_schmidt_oracle([f, g, h, f + g])
    assert sub.dim == len(want)
    for b, n2, w in zip(sub.basis, sub.norms2, want):
        assert b.vec.den == 1
        ratio = next(wi / bi for wi, bi in zip(w, b.values) if bi)
        assert [ratio * bi for bi in b.values] == w
        assert n2 == inner_oracle(b, b)
    rvs = [f, g * h]
    assert sigma_of_rvs(space, rvs) == level_sets_oracle(space, rvs)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_canonical_key_and_inclusion_match_fraction_elimination(case):
    space, x, f, g, h, _ = case
    whole = span_on(space, [f, g, h])
    for part in ([f + g], [cond_exp(x, f)], [g, f * h]):
        sub = span_on(space, part)
        rank = space.backend.rank([v.vec for v in [f, g, h, *part]])
        assert whole.contains_subspace(sub) == (rank == whole.dim)
    assert subspace_of(x).contains_subspace(span_on(space, [cond_exp(x, f)]))
    if space.mode == "rational":
        key = whole.canonical_key()
        want = rref_oracle([v.values for v in (f, g, h)])
        assert tuple(tuple(Fraction(n, r.den) for n in r.nums) for r in key) == want
        assert span_on(space, [h, g + f, f]).canonical_key() == key


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["rational", "float"]))
def test_lift_rv_matches_the_per_outcome_form(seed, mode):
    rng = random.Random(seed)
    algebra = rand_ntba(rng, 36, mode)
    e = rand_element(rng, algebra)
    if not e.atomset:
        return
    r = restrict(e)
    f = rand_rv(rng, r.algebra.space)
    assert all_same(r.lift_rv(f).values, lift_oracle(f, r.quotient.labels))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_equal_values_built_by_different_routes_are_equal_rvs(case):
    _, x, f, g, _, _ = case
    if f.space.mode == "float":
        return
    for a, b in ((f + g - g, f), (2 * (f * Fraction(1, 2)), f), (-(-f), f)):
        assert a == b and hash(a) == hash(b)
    q = cond_exp(x, f)
    assert cond_exp(x, q) == q and hash(cond_exp(x, q)) == hash(q)


def test_halves_and_twice_quarters_are_one_rv():
    s = mk_space("ab", [Fraction(1, 2), Fraction(1, 2)])
    half = RV(s, (Fraction(1, 2), Fraction(1, 2)))
    twice = 2 * RV(s, (Fraction(1, 4), Fraction(1, 4)))
    assert half == twice and hash(half) == hash(twice)
    assert half.vec == twice.vec == ((1, 1), 2)
    assert half == constant(s, Fraction(1, 2))


def one_line_value_error(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    text = str(info.value)
    assert text and "\n" not in text
    return text


def test_floats_are_refused_in_rational_mode():
    s = mk_space("ab", [Fraction(1, 4), Fraction(3, 4)])
    f = RV(s, (Fraction(1), Fraction(-1, 3)))
    assert "float" in one_line_value_error(lambda: RV(s, (0.5, 1.5)))
    assert "float" in one_line_value_error(lambda: RV(s, (Fraction(1), 1.5)))
    assert "float" in one_line_value_error(lambda: f * 0.5)
    assert "float" in one_line_value_error(lambda: 0.5 * f)


def test_fractions_are_refused_in_float_mode():
    s = mk_space("ab", [0.25, 0.75])
    f = RV(s, (1.0, -0.5))
    assert "Fraction" in one_line_value_error(lambda: RV(s, (Fraction(1, 2), 1.0)))
    assert "Fraction" in one_line_value_error(lambda: f * Fraction(1, 2))
    assert "Fraction" in one_line_value_error(lambda: Fraction(1, 2) * f)
    assert RV(s, (1, 2)).values == (1.0, 2.0)  # ints are read as floats


def test_operations_on_built_rvs_never_rescale_values(monkeypatch):
    rng = random.Random(3)
    algebra = rand_ntba(rng, 36)
    space = algebra.space
    f, g = rand_rv(rng, space), rand_rv(rng, space)
    x = algebra.atoms[0]
    subs = [subspace_of(x), span_on(space, [f, g])]
    calls = []
    to_int = linalg.to_int
    monkeypatch.setattr(linalg, "to_int", lambda v: calls.append(1) or to_int(v))
    for sub in subs:
        sub.project(f)
    inner(f, g)
    cond_exp(x, f)
    assert not calls
