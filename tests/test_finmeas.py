"""Spaces, random variables, inner products, spans, products."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import exact_rank, lift_oracle, product_oracle

from noise_lattice.errors import CapacityError, DomainMismatchError
from noise_lattice.finmeas import (
    MAX_OUTCOMES,
    RV,
    ProbSpace,
    coordinate_sign,
    constant,
    direct_sum,
    indicator,
    inner,
    mk_dyadic,
    mk_space,
    product,
    span,
    span_on,
    space_from_json,
    space_to_json,
    walsh_character,
)
from noise_lattice.instances import rand_rv, rand_space
from noise_lattice.sigma import discrete, lift_partition


def test_dyadic_small():
    s1 = mk_dyadic(1)
    assert s1.outcomes == ("+", "-")
    assert s1.probs == (Fraction(1, 2), Fraction(1, 2))
    s2 = mk_dyadic(2)
    assert len(s2.outcomes) == 4
    assert all(p == Fraction(1, 4) for p in s2.probs)
    assert s2.outcomes == ("++", "+-", "-+", "--")


def test_dyadic_guard():
    with pytest.raises(CapacityError):
        mk_dyadic(21)


def test_space_validation():
    with pytest.raises(ValueError):
        mk_space(["a", "a"], [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        mk_space(["a", "b"], [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        mk_space(["a", "b"], [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        mk_space(["a", "b"], [0.5, 0.4])


@pytest.mark.parametrize(
    "probs",
    [
        (Fraction(0), Fraction(1)),
        (Fraction(-1, 2), Fraction(3, 2)),
        (0.0, 1.0),
        (-0.5, 1.5),
        # NaN compares false both ways, so the negative after it must still be seen
        (float("nan"), -0.5, 1.5),
    ],
)
def test_nonpositive_probabilities_are_rejected(probs):
    outcomes = [f"w{i}" for i in range(len(probs))]
    with pytest.raises(ValueError, match="^probabilities must be strictly positive$"):
        mk_space(outcomes, probs)
    with pytest.raises(ValueError, match="^probabilities must be strictly positive$"):
        space_from_json({"outcomes": outcomes, "probs": list(probs)})


def test_inner_basic():
    s2 = mk_dyadic(2)
    one = constant(s2, 1)
    assert inner(one, one) == 1
    x1, x2 = coordinate_sign(s2, 1), coordinate_sign(s2, 2)
    assert inner(x1, x2) == 0
    # direct sum over the four outcomes
    prod = x1 * x2
    assert inner(prod, prod) == sum(
        Fraction(1, 4) * v * v for v in prod.values
    ) == 1


def test_inner_space_mismatch():
    f = constant(mk_dyadic(1), 1)
    g = constant(mk_dyadic(2), 1)
    with pytest.raises(DomainMismatchError):
        inner(f, g)


def test_one_outcome_spaces_of_two_modes_differ():
    # weight 1 over total 1 in both modes: only the backend tells them apart
    exact, floating = mk_space(["a"], [1]), mk_space(["a"], [1.0])
    assert exact != floating and hash(exact) == hash(floating)
    with pytest.raises(DomainMismatchError):
        RV(exact, (1,)) + RV(floating, (1.0,))


def test_a_space_given_beside_the_vectors_must_be_theirs():
    # equal sizes, so nothing but the check tells the spaces apart
    s1 = mk_dyadic(2)
    s2 = mk_space(["a", "b", "c", "d"], ["1/8", "1/8", "1/4", "1/2"])
    f = constant(s2, 1) + indicator(s2, [0])
    with pytest.raises(DomainMismatchError):
        span([f], space=s1)
    with pytest.raises(DomainMismatchError):
        span_on(s1, [f])
    with pytest.raises(DomainMismatchError):
        span_on(s1, [constant(s1, 1), f])
    assert span([f], space=s2).dim == span_on(s2, [f]).dim == 1


def test_span_examples():
    s2 = mk_dyadic(2)
    one = constant(s2, 1)
    assert span([one, one]).dim == 1
    x1, x2 = coordinate_sign(s2, 1), coordinate_sign(s2, 2)
    assert span([x1, x2, x1 + x2]).dim == 2
    assert span([], space=s2).dim == 0
    assert span([x1, x2]).canonical_key() == span([x1 + x2, x1 - x2]).canonical_key()


def test_span_dimension_matches_rank_oracle():
    rng = random.Random(11)
    for _ in range(100):
        space = rand_space(rng, 6)
        vs = [rand_rv(rng, space) for _ in range(rng.randint(1, 5))]
        assert span(vs).dim == exact_rank([v.values for v in vs])


def test_span_basis_is_orthogonal_with_exact_norms():
    rng = random.Random(12)
    space = rand_space(rng, 5)
    vs = [rand_rv(rng, space) for _ in range(4)]
    sub = span(vs)
    for i, b in enumerate(sub.basis):
        assert inner(b, b) == sub.norms2[i]
        for j in range(i + 1, sub.dim):
            assert inner(b, sub.basis[j]) == 0


def test_product_of_uniform_halves_is_dyadic2():
    prod = product(mk_dyadic(1), mk_dyadic(1))
    assert prod.space.probs == mk_dyadic(2).probs
    assert prod.space.size == 4


def test_product_embeddings_are_isometric():
    prod = product(mk_dyadic(1), mk_dyadic(1))
    x1 = coordinate_sign(prod.factors[0], 1)
    lifted = prod.lift(0, x1)
    assert inner(lifted, lifted) == 1
    g = coordinate_sign(prod.factors[1], 1)
    both = prod.lift(0, x1) * prod.lift(1, g)
    assert inner(both, both) == inner(x1, x1) * inner(g, g) == 1


def test_product_capacity_guard():
    big = mk_dyadic(20)
    with pytest.raises(CapacityError):
        product(big, mk_dyadic(2))
    with pytest.raises(CapacityError) as exc:
        product(mk_dyadic(10), mk_dyadic(1), mk_dyadic(10))
    assert str(exc.value) == f"a product of {2**21} outcomes exceeds the guard of {MAX_OUTCOMES}"


def test_outcome_guard_names_its_limit():
    n = MAX_OUTCOMES + 1
    with pytest.raises(CapacityError) as exc:
        ProbSpace(("w",) * n, (1,) * n, n)  # the guard fires before any other check
    assert str(exc.value) == f"{n} outcomes exceed the guard of {MAX_OUTCOMES}"


def test_outcome_guard_fires_before_any_probability_is_read():
    n = MAX_OUTCOMES + 1
    with pytest.raises(CapacityError, match=f"^{n} outcomes exceed the guard"):
        mk_space(("w",) * n, ["x"] * n)


def test_outcome_ids_must_be_a_list_of_strings():
    for outcomes in ([1, 2, 3, 4], "abcd", ["a", "b", "c", 4]):
        with pytest.raises(ValueError, match="^outcomes must be a list of strings$"):
            space_from_json({"outcomes": outcomes, "probs": ["1/4"] * 4})
    assert space_from_json({"outcomes": list("abcd"), "probs": ["1/4"] * 4}).size == 4


def test_product_space_rejects_mixed_modes():
    exact, floats = mk_dyadic(1), mk_space(["a", "b"], [0.25, 0.75])
    with pytest.raises(DomainMismatchError):
        product(exact, exact, floats)
    with pytest.raises(DomainMismatchError):
        product(floats, exact)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_product_matches_the_pairwise_product(mode):
    """Equal outcomes and probabilities, floats to the bit, on random factors."""
    rng = random.Random(29)
    for _ in range(100):
        a, b = rand_space(rng, 5, mode), rand_space(rng, 5, mode)
        got, want = product(a, b), product_oracle(a, b)
        assert got.space.outcomes == want.space.outcomes
        assert got.space.probs == want.space.probs
        assert got.factors == (a, b)
        assert got.coords == want.coords


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_n_fold_product_matches_nested_pairwise_products(mode):
    rng = random.Random(31)
    for n in range(1, 5):
        for _ in range(25):
            factors = [rand_space(rng, 4, mode) for _ in range(n)]
            nested = factors[0]
            for f in factors[1:]:
                nested = product_oracle(nested, f).space
            got = product(*factors).space
            assert got.outcomes == nested.outcomes
            assert got.probs == nested.probs


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_coords_are_the_digits_of_the_outcome_index(mode):
    """coords[k][i] is component k of the i-th tuple of ``itertools.product`` order."""
    rng = random.Random(37)
    for n in range(1, 5):
        for _ in range(25):
            factors = [rand_space(rng, 4, mode) for _ in range(n)]
            prod = product(*factors)
            digits = list(itertools.product(*(range(f.size) for f in factors)))
            assert len(prod.coords) == n
            for i, d in enumerate(digits):
                assert tuple(c[i] for c in prod.coords) == d
                want = ",".join(f.outcomes[j] for f, j in zip(factors, d))
                assert prod.space.outcomes[i] == want
            assert all(len(c) == prod.space.size for c in prod.coords)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_lift_reads_the_coordinate_map(mode):
    """On 3- and 4-factor products, lift(k, f) is the per-outcome pull-back."""
    rng = random.Random(41)
    for n in (3, 4):
        for _ in range(20):
            factors = [rand_space(rng, 3, mode) for _ in range(n)]
            prod = product(*factors)
            digits = list(itertools.product(*(range(f.size) for f in factors)))
            for k, f in enumerate(factors):
                g = rand_rv(rng, f)
                got = prod.lift(k, g)
                assert got.space == prod.space
                assert got.values == lift_oracle(g, [d[k] for d in digits])


def test_lift_rejects_an_rv_on_another_factor():
    a, b = mk_dyadic(1), mk_space(["x", "y", "z"], ["1/3", "1/3", "1/3"])
    prod = product(a, b, a)
    with pytest.raises(DomainMismatchError):
        prod.lift(1, coordinate_sign(a, 1))
    with pytest.raises(DomainMismatchError):
        prod.lift(0, constant(prod.space, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_pull_backs_reject_a_missing_factor(n):
    """lift and lift_partition take k in 0..n-1 only; -1 is not the last factor."""
    three = mk_space(["a", "b", "c"], ["1/3", "1/3", "1/3"])
    prod = product(*[mk_dyadic(1)] * (n - 1), three)
    for k in (-1, n, n + 1):
        msg = rf"factor k={k} is not in 0\.\.{n - 1}: the product has {n} factors"
        with pytest.raises(ValueError, match=msg):
            prod.lift(k, constant(three, 1))
        with pytest.raises(ValueError, match=msg):
            lift_partition(prod, discrete(three), k)


def test_product_needs_a_factor():
    with pytest.raises(ValueError, match="at least one factor"):
        product()


@pytest.mark.parametrize("k", [0, -1, 3])
def test_coordinate_sign_rejects_a_missing_coordinate(k):
    space = mk_dyadic(2)
    with pytest.raises(ValueError, match=rf"k={k} is not in 1\.\.2"):
        coordinate_sign(space, k)
    with pytest.raises(ValueError, match=rf"k={k} is not in 1\.\.2"):
        walsh_character(space, [k])


def test_walsh_characters_orthonormal():
    for n in (1, 2, 3):
        space = mk_dyadic(n)
        chars = [
            walsh_character(space, [k + 1 for k in range(n) if m >> k & 1])
            for m in range(1 << n)
        ]
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert inner(a, b) == (1 if i == j else 0)


def test_space_json_roundtrip():
    rng = random.Random(13)
    for mode in ("rational", "float"):
        space = rand_space(rng, 5, mode)
        again = space_from_json(space_to_json(space))
        assert again == space


def test_float_mode_space():
    space = mk_space(["a", "b"], [0.5, 0.5])
    assert space.mode == "float"
    f = RV(space, (1.0, -1.0))
    assert abs(inner(f, f) - 1.0) < 1e-12
    assert span([f]).dim == 1
    with pytest.raises(ValueError):
        span([f]).canonical_key()


def test_mixed_probabilities_rejected():
    for weights, total in (((1, 0.5), 2), ((0.5, 0.5), 1), ((1, 1), 2.0), ((Fraction(1, 2),) * 2, 1)):
        with pytest.raises(ValueError, match="^probabilities must be all Fractions or all floats$"):
            ProbSpace(("a", "b"), weights, total)
    for weights, total in (((True, 1), 2), ((1, 1), True), ((True,), True)):
        with pytest.raises(ValueError, match="^probabilities must be numbers, not booleans$"):
            ProbSpace(("a", "b")[: len(weights)], weights, total)
    for probs in (("1/2", 0.5), (0.5, Fraction(1, 2))):
        with pytest.raises(ValueError, match="all Fractions or all floats"):
            mk_space(["a", "b"], probs)


def test_direct_sum_refuses_a_part_on_another_space():
    dyadic = mk_dyadic(2)
    s2 = mk_space(["a", "b", "c", "d"], ["1/8", "1/8", "1/4", "1/2"])
    with pytest.raises(DomainMismatchError):
        direct_sum(dyadic, [span([indicator(s2, [0])])])
    ok = direct_sum(dyadic, [span([indicator(dyadic, [0])]), span([indicator(dyadic, [3])])])
    assert ok.space is dyadic and ok.dim == 2
