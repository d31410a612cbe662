"""Partition lattice, projections, independence, generated sigma-fields."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    cond_independent_oracle,
    join_oracle,
    mat_mul,
    meet_oracle,
    projection_matrix,
    projections_commute,
    set_partitions,
)

from noise_lattice import ntba, sigma
from noise_lattice.errors import DomainMismatchError, PreconditionError
from noise_lattice.finmeas import (
    constant,
    coordinate_sign,
    inner,
    mk_dyadic,
    mk_space,
    span,
)
from noise_lattice.instances import rand_partition, rand_rv, rand_space
from noise_lattice.ntba import NTBA, mk_coordinate_ntba
from noise_lattice.sigma import (
    SigmaField,
    cond_exp,
    commutes,
    discrete,
    independent,
    inf_family,
    join,
    meet,
    partition,
    partition_from_json,
    sigma_of,
    sigma_of_rvs,
    sup_family,
    subspace_of,
    trivial,
)


def sigma_xi(space, k):
    return sigma_of_rvs(space, [coordinate_sign(space, k)])


def test_meet_examples():
    s2 = mk_dyadic(2)
    x1, x2 = sigma_xi(s2, 1), sigma_xi(s2, 2)
    assert meet(x1, x2) == trivial(s2)
    assert meet(x1, x1) == x1
    assert meet(x1, discrete(s2)) == x1


def test_join_examples():
    s2 = mk_dyadic(2)
    x1, x2 = sigma_xi(s2, 1), sigma_xi(s2, 2)
    assert join(x1, x2) == discrete(s2)
    assert join(x1, trivial(s2)) == x1
    prod = sigma_of_rvs(s2, [coordinate_sign(s2, 1) * coordinate_sign(s2, 2)])
    assert join(x1, prod) == discrete(s2)


def test_meet_join_against_set_system_oracle():
    rng = random.Random(20)
    for _ in range(60):
        space = rand_space(rng, 6)
        x, y = rand_partition(rng, space), rand_partition(rng, space)
        assert meet(x, y) == meet_oracle(x, y)
        assert join(x, y) == join_oracle(x, y)


def test_cond_exp_examples():
    s2 = mk_dyadic(2)
    f = rand_rv(random.Random(21), s2)
    ef = cond_exp(trivial(s2), f)
    assert all(v == f.mean() for v in ef.values)
    assert cond_exp(discrete(s2), f).values == f.values
    x1 = sigma_xi(s2, 1)
    prod = coordinate_sign(s2, 1) * coordinate_sign(s2, 2)
    assert cond_exp(x1, prod).values == (0, 0, 0, 0)


def test_cond_exp_is_orthogonal_projection():
    rng = random.Random(22)
    for _ in range(50):
        space = rand_space(rng, 6)
        x = rand_partition(rng, space)
        f, g = rand_rv(rng, space), rand_rv(rng, space)
        qf = cond_exp(x, f)
        assert cond_exp(x, qf).values == qf.values
        assert inner(qf, g) == inner(f, cond_exp(x, g))
        assert subspace_of(x).contains(qf)


def test_commutes_examples(uniform3):
    s2 = mk_dyadic(2)
    x1 = sigma_xi(s2, 1)
    fine = discrete(s2)
    assert commutes(x1, fine)  # nested sigma-fields always commute
    x = partition(uniform3, [[0], [1, 2]])
    y = partition(uniform3, [[0, 1], [2]])
    assert not commutes(x, y)
    prod = sigma_of_rvs(s2, [coordinate_sign(s2, 1) * coordinate_sign(s2, 2)])
    assert commutes(x1, prod)


def test_commutes_against_dense_matrix_oracle(uniform3):
    rng = random.Random(23)
    for _ in range(40):
        space = rand_space(rng, 5)
        x, y = rand_partition(rng, space), rand_partition(rng, space)
        qx, qy = projection_matrix(x), projection_matrix(y)
        assert commutes(x, y) == (mat_mul(qx, qy) == mat_mul(qy, qx))
    for _ in range(40):
        space = rand_space(rng, 5, "float")
        x, y = rand_partition(rng, space), rand_partition(rng, space)
        assert commutes(x, y) == projections_commute(x, y)


FIVE_OUTCOME_MEASURES = {
    "uniform": [Fraction(1, 5)] * 5,
    "dyadic": [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 16)],
    "skewed": [Fraction(1, 3), Fraction(1, 6), Fraction(1, 9), Fraction(2, 9), Fraction(1, 6)],
    "dyadic-float": [0.5, 0.25, 0.125, 0.0625, 0.0625],
}


def test_every_pair_of_five_outcome_partitions_matches_the_oracles():
    """All 52 x 52 ordered pairs of partitions of five outcomes, on four measures.

    meet and join do not depend on the measure and are checked once per
    pair; independence and commuting are checked on every measure, and
    commuting against the dense matrices on the skewed measure, once per
    unordered pair.
    """
    groupings = list(set_partitions(list(range(5))))
    assert len(groupings) == 52
    meet_blocks, dense = {}, {}
    for name, probs in FIVE_OUTCOME_MEASURES.items():
        space = mk_space([f"o{i}" for i in range(5)], probs)
        fields = [partition(space, g) for g in groupings]
        bottom = trivial(space)
        for i, x in enumerate(fields):
            for j, y in enumerate(fields):
                case = (name, x.blocks, y.blocks)
                if (i, j) not in meet_blocks:
                    m = meet_oracle(x, y)
                    assert meet(x, y) == m, case
                    assert join(x, y) == join_oracle(x, y), case
                    meet_blocks[i, j] = m.blocks
                m = partition(space, meet_blocks[i, j])
                assert independent(x, y) == cond_independent_oracle(x, y, bottom), case
                assert commutes(x, y) == cond_independent_oracle(x, y, m), case
                if name == "skewed":  # Q_x Q_y = Q_y Q_x is symmetric in x and y
                    key = (min(i, j), max(i, j))
                    if key not in dense:
                        dense[key] = projections_commute(x, y)
                    assert commutes(x, y) == dense[key], case


def test_commutes_on_small_meet_blocks_in_both_backends():
    # x and y split the meet block {0..5} in two each; the four cells have
    # conditional masses 1/6, 1/3, 1/3, 1/6, not 1/4, so Q_x Q_y and Q_y Q_x
    # differ by 1/9 in some entries.  Yet P(a & b) P(c) and P(a) P(b) differ
    # by under the float tolerance, because P(c) is small.
    x_blocks = [[0, 1, 2], [3, 4, 5]]
    y_blocks = [[0, 3, 4], [1, 2, 5]]
    tiny = [1e-5] * 6 + [1 - 6e-5]
    spaces = [
        mk_space(range(7), tiny),
        mk_space(range(7), [Fraction(1, 10**5)] * 6 + [1 - Fraction(6, 10**5)]),
    ]
    for space in spaces:
        x = partition(space, x_blocks + [[6]])
        y = partition(space, y_blocks + [[6]])
        assert not projections_commute(x, y)
        assert not commutes(x, y)
    n = 2**16  # uniform, so P(c) = 6 / n
    for probs in ([1.0 / n] * n, [Fraction(1, n)] * n):
        space = mk_space(range(n), probs)
        rest = list(range(6, n))
        x = partition(space, x_blocks + [rest])
        y = partition(space, y_blocks + [rest])
        assert not commutes(x, y)
        assert commutes(x, partition(space, [[0, 3], [1, 4], [2, 5], rest]))


def test_commutes_and_independent_are_linear_time():
    # four block averages per indicator vector, the quadratic route, take
    # tens of seconds at this size
    B = mk_coordinate_ntba(mk_dyadic(10))
    x = B.element(range(5)).realize()
    y = B.element(range(3, 10)).realize()
    xc = B.element(range(5, 10)).realize()
    t0 = time.perf_counter()
    assert commutes(x, y) and not independent(x, y)
    assert commutes(x, xc) and independent(x, xc)
    assert time.perf_counter() - t0 < 1


def test_independent_examples(uniform3):
    s2 = mk_dyadic(2)
    x1, x2 = sigma_xi(s2, 1), sigma_xi(s2, 2)
    assert independent(x1, x2)
    prod = sigma_of_rvs(s2, [coordinate_sign(s2, 1) * coordinate_sign(s2, 2)])
    assert independent(x1, prod)
    x = partition(uniform3, [[0], [1, 2]])
    y = partition(uniform3, [[0, 1], [2]])
    assert meet(x, y) == trivial(uniform3)
    assert not independent(x, y)  # trivial meet alone is not enough


def test_subspace_of_dims():
    s2 = mk_dyadic(2)
    assert subspace_of(trivial(s2)).dim == 1
    assert subspace_of(discrete(s2)).dim == 4
    assert subspace_of(sigma_xi(s2, 1)).dim == 2


def test_sigma_of_examples():
    s2 = mk_dyadic(2)
    one = constant(s2, 1)
    assert sigma_of(span([one])) == trivial(s2)
    x1 = coordinate_sign(s2, 1)
    assert sigma_of(span([x1])) == sigma_xi(s2, 1)


def test_sigma_of_sign_pairing_on_three_coordinates():
    s3 = mk_dyadic(3)
    pair12 = coordinate_sign(s3, 1) * coordinate_sign(s3, 2)
    pair23 = coordinate_sign(s3, 2) * coordinate_sign(s3, 3)
    got = sigma_of(span([pair12, pair23]))
    # oracle: enumerate joint level sets; blocks pair each outcome with its
    # global sign flip
    flip = {o: "".join("+" if c == "-" else "-" for c in o) for o in s3.outcomes}
    index = {o: i for i, o in enumerate(s3.outcomes)}
    want = set()
    for o in s3.outcomes:
        want.add(tuple(sorted((index[o], index[flip[o]]))))
    assert {tuple(b) for b in got.blocks} == want
    assert got.n_blocks == 4
    assert all(len(b) == 2 for b in got.blocks)


def test_sigma_of_roundtrip():
    rng = random.Random(24)
    for _ in range(50):
        space = rand_space(rng, 6)
        x = rand_partition(rng, space)
        assert sigma_of(subspace_of(x)) == x


def test_inf_sup_family():
    s3 = mk_dyadic(3)
    xs = [sigma_xi(s3, k) for k in (1, 2, 3)]
    assert inf_family([xs[0]]) == xs[0]
    assert sup_family(xs) == discrete(s3)
    s2 = mk_dyadic(2)
    x1 = sigma_xi(s2, 1)
    prod = sigma_of_rvs(s2, [coordinate_sign(s2, 1) * coordinate_sign(s2, 2)])
    assert inf_family([x1, prod]) == trivial(s2)
    with pytest.raises(PreconditionError):
        inf_family([])


def test_space_mismatch_raises():
    x = trivial(mk_dyadic(1))
    y = trivial(mk_dyadic(2))
    with pytest.raises(DomainMismatchError):
        meet(x, y)


def test_sigma_of_rvs_refuses_an_rv_on_another_space():
    s1 = mk_dyadic(2)
    s2 = mk_space(["a", "b", "c", "d"], ["1/8", "1/8", "1/4", "1/2"])
    with pytest.raises(DomainMismatchError):
        sigma_of_rvs(s1, [coordinate_sign(s1, 1), constant(s2, 1)])
    assert sigma_of_rvs(s2, [constant(s2, 1)]) == trivial(s2)


def test_single_outcome_space_degenerates():
    space = mk_space(["only"], [Fraction(1)])
    x = trivial(space)
    assert x == discrete(space)
    assert meet(x, x) == join(x, x) == x
    assert independent(x, x)
    assert commutes(x, x)
    f = constant(space, 5)
    assert cond_exp(x, f).values == f.values


def test_float_mode_sigma_of_groups_with_tolerance():
    space = mk_space(["a", "b", "c"], [0.25, 0.25, 0.5])
    from noise_lattice.finmeas import RV

    f = RV(space, (1.0, 1.0 + 1e-9, 2.0))
    got = sigma_of_rvs(space, [f])
    assert got == partition(space, [[0, 1], [2]])


def test_labels_and_masses():
    probs = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 8), Fraction(1, 2)]
    space = mk_space(["a", "b", "c", "d"], probs)
    x = partition(space, [[3, 1], [0, 2]])
    assert x.labels == (0, 1, 0, 1)
    assert x.n_blocks == 2
    assert x.blocks == ((0, 2), (1, 3))
    assert x.masses == (Fraction(1, 4), Fraction(3, 4))
    assert x == SigmaField(space, (0, 1, 0, 1))
    assert hash(x) == hash(SigmaField(space, [0, 1, 0, 1]))


def test_blocks_must_cover_each_outcome_once(uniform3):
    for blocks in (
        ((0, 1), (1, 2)),
        ((0, 1), (1,)),
        ((0, 0, 1), (2,)),
        ((-1, 0, 1),),
        ((0, 1),),
        ((0, 1, 2, 3),),
        ((0, True), (2,)),
        ((0.0, 1, 2),),
    ):
        with pytest.raises(ValueError, match="partition the outcome indices"):
            partition(uniform3, blocks)
    with pytest.raises(ValueError, match="nonempty"):
        partition(uniform3, ((), (0, 1, 2)))


def test_labels_must_be_canonical(uniform3):
    for labels in ((1, 0, 0), (0, 2, 1), (0, 0, 2), (-1, 0, 0), (0, 1), (0, 1, 1, 0), ()):
        with pytest.raises(ValueError, match="labels must number the blocks"):
            SigmaField(uniform3, labels)
    assert SigmaField(uniform3, (0, 1, 0)) == partition(uniform3, [[1], [2, 0]])


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_numbering_builds_the_field_the_checked_constructor_builds(mode):
    rng = random.Random(23)
    for _ in range(200):
        space = rand_space(rng, 6, mode)
        keys = [rng.choice("abcd") for _ in range(space.size)]
        got = sigma._number(space, keys)
        checked = SigmaField(space, got.labels)
        assert type(got) is SigmaField
        assert got == checked and hash(got) == hash(checked)
        assert got.labels == checked.labels and got.blocks == checked.blocks
        # the labels are the keys' first-seen numbering
        assert got.blocks == tuple(
            tuple(i for i in range(space.size) if keys[i] == k) for k in dict.fromkeys(keys)
        )


@st.composite
def shuffled_partitions(draw, size):
    """A partition of range(size): its outcomes shuffled, then cut into runs."""
    order = draw(st.permutations(range(size)))
    cuts = draw(st.lists(st.booleans(), min_size=size - 1, max_size=size - 1))
    blocks = [[order[0]]]
    for i, cut in zip(order[1:], cuts):
        if cut:
            blocks.append([])
        blocks[-1].append(i)
    return blocks


JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
SMALL = st.integers(-2, 5)
BLOCKS = st.one_of(
    shuffled_partitions(4),
    st.lists(st.lists(SMALL, max_size=5), max_size=5),
    st.lists(st.one_of(st.lists(st.one_of(SMALL, JUNK), max_size=4), SMALL, JUNK), max_size=4),
    JUNK,
    SMALL,
)


@settings(max_examples=300, deadline=None)
@given(BLOCKS)
def test_partition_loader_parses_or_rejects(v):
    space = mk_space(["a", "b", "c", "d"], [Fraction(1, 4)] * 4)
    try:
        f = partition_from_json(space, {"blocks": v})
    except (ValueError, TypeError, KeyError):  # the CLI's exit-2 errors
        return
    assert f.blocks == tuple(sorted((tuple(sorted(b)) for b in v), key=lambda b: b[0]))
    assert partition(space, f.blocks) == f
    assert SigmaField(space, f.labels) == f


def test_independence_commuting_and_atoms_take_the_one_product_walk(monkeypatch):
    calls = []
    walk = sigma._product_problem

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(sigma, "_product_problem", counted)
    monkeypatch.setattr(ntba, "_product_problem", counted)
    s2 = mk_dyadic(2)
    x1, x2 = sigma_xi(s2, 1), sigma_xi(s2, 2)
    for call in (
        lambda: independent(x1, x2),
        lambda: commutes(x1, x2),
        lambda: NTBA(s2, [x1, x2]),
    ):
        calls.clear()
        call()
        assert len(calls) == 1
