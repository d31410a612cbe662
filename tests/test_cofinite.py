"""The symbolic finite/cofinite algebra: sets, elements, limits, filters."""

import contextlib
import io
import itertools
import random
import time
from operator import and_, or_

import pytest
from conftest import (
    canonical_bits,
    cof_elem_oracle,
    cof_join_oracle,
    cof_meet_oracle,
    complement_oracle,
    pointwise_binop,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from noise_lattice import cofinite as cf
from noise_lattice.cli import main
from noise_lattice.errors import CapacityError, NoiseLatticeError, UnsupportedSequenceError
from noise_lattice.finmeas import coordinate_sign
from noise_lattice.ntba import mk_parity_ntba
from noise_lattice.sigma import join, meet, sigma_of_rvs

def _tail_and_ys(e) -> tuple:
    """An element in the oracles' (tail, ``{pre;per}``) form."""
    return e.tail, str(e.ys)


bit_lists = st.lists(st.integers(0, 1), max_size=12)
period_lists = st.lists(st.integers(0, 1), min_size=1, max_size=12)
natsets = st.builds(cf.natset, bit_lists, period_lists)
# finite and cofinite sets, past one 64-bit word
period_one = st.builds(
    cf.natset, st.lists(st.integers(0, 1), max_size=80), st.sampled_from([[0], [1]])
)


# ---------------------------------------------------------------------------
# NatSet


@given(natsets)
def test_canonical_form_preserves_membership(s):
    h = s.npre + 2  # any preperiod at least npre long describes the same set
    rebuilt = cf.natset(
        [s.bit(p) for p in range(1, h + 1)], [s.bit(p) for p in range(h + 1, h + 1 + s.nper)]
    )
    assert all(rebuilt.bit(p) == s.bit(p) for p in range(1, 40))


@given(natsets, natsets)
@settings(max_examples=300)
def test_set_ops_match_pointwise_semantics(a, b):
    u, i = a.union(b), a.intersect(b)
    c = a.complement()
    for p in range(1, 40):
        assert u.bit(p) == (a.bit(p) | b.bit(p))
        assert i.bit(p) == (a.bit(p) & b.bit(p))
        assert c.bit(p) == 1 - a.bit(p)
    # the canonical forms agree with the per-bit route
    assert str(u) == pointwise_binop(a, b, lambda p, q: p | q)
    assert str(i) == pointwise_binop(a, b, lambda p, q: p & q)
    assert str(c) == pointwise_binop(a, a, lambda p, _: 1 - p)


@given(period_one, st.one_of(period_one, natsets))
@settings(max_examples=300)
def test_period_one_sets_match_pointwise_semantics(a, b):
    """The signed-integer route, against the per-bit route both ways round."""
    for s, t in ((a, b), (b, a)):
        assert str(s.union(t)) == pointwise_binop(s, t, or_)
        assert str(s.intersect(t)) == pointwise_binop(s, t, and_)
    c = a.complement()
    assert str(c) == canonical_bits([1 - a.bit(p) for p in range(1, a.npre + 1)], [1 - a.per])
    assert c.complement() == a


@given(natsets, natsets)
@settings(max_examples=200)
def test_equal_membership_implies_equal_canonical_form(a, b):
    horizon = a.npre + b.npre + 2 * a.nper * b.nper + 4
    same = all(a.bit(p) == b.bit(p) for p in range(1, horizon + 1))
    assert same == (a == b)


@given(bit_lists, period_lists)
def test_natset_matches_tuple_canonical_form(pre, per):
    assert str(cf.natset(pre, per)) == canonical_bits(pre, per)


def smallest_rotation_period(bits) -> int:
    """The least shift d >= 1 whose rotation of the cyclic block is the block."""
    n = len(bits)
    return next(d for d in range(1, n + 1) if bits[d:] + bits[:d] == bits)


def test_primitive_period_is_the_smallest_rotation_period():
    for nper in range(1, 13):
        for per in range(1 << nper):
            bits = [per >> j & 1 for j in range(nper)]
            assert cf._primitive(per, nper) == smallest_rotation_period(bits), (per, nper)


@given(st.one_of(st.none(), st.integers(1, 30)), natsets)
@settings(max_examples=300)
def test_cof_elem_matches_pointwise_oracle(tail, ys):
    assert _tail_and_ys(cf.cof_elem(tail, ys)) == cof_elem_oracle(tail, ys)


def _check_against_case_oracles(a, b):
    assert _tail_and_ys(cf.cof_meet(a, b)) == cof_meet_oracle(a, b)
    assert _tail_and_ys(cf.cof_join(a, b)) == cof_join_oracle(a, b)
    if cf.in_algebra(a):
        assert _tail_and_ys(cf.has_complement(a)) == complement_oracle(a)


def test_lattice_ops_match_case_oracles_exhaustively():
    """Every index set here is finite or cofinite; the case oracles combine
    sets through the library, so the sets are also read bit by bit."""
    probe = cf.bounded_elements(4, 5)
    for a, b in itertools.product(probe, repeat=2):
        _check_against_case_oracles(a, b)
        s, t = a.index_set, b.index_set
        assert str(s.union(t)) == pointwise_binop(s, t, or_)
        assert str(s.intersect(t)) == pointwise_binop(s, t, and_)


elems = st.one_of(
    st.builds(cf.ys_elem, natsets),
    st.builds(cf.cof_elem, st.integers(1, 30), natsets),
)


@given(elems, elems)
@settings(max_examples=300)
def test_lattice_ops_match_case_oracles(a, b):
    _check_against_case_oracles(a, b)


def test_tailed_element_needs_cofinite_index_set():
    for s in (cf.EMPTY_SET, cf.finite_set([1]), cf.finite_set([1, 4]), cf.progression(2)):
        with pytest.raises(ValueError, match="cofinite index set"):
            cf.CofElem(True, s)
    assert cf.CofElem(True, cf.tail_set(3)) == cf.x(3)
    # the gap: sup_k y(k) and t(1) share the index set and differ in the flag
    assert cf.ys_elem(cf.FULL_SET).index_set == cf.ONE.index_set
    assert cf.ys_elem(cf.FULL_SET) != cf.ONE


def _rebuilt(e):
    """The element built again through the public constructors, from its bits."""
    s, h = e.index_set, e.index_set.npre
    bits = cf.natset(
        [s.bit(p) for p in range(1, h + 1)], [s.bit(p) for p in range(h + 1, h + 1 + s.nper)]
    )
    return cf.CofElem(e.tailed, bits)


def test_meet_and_join_build_exact_canonical_values():
    probe = cf.bounded_elements(6, 7)
    for a, b in itertools.product(probe, repeat=2):
        for e in (cf.cof_meet(a, b), cf.cof_join(a, b)):
            assert type(e) is cf.CofElem and type(e.index_set) is cf.NatSet
            again = _rebuilt(e)
            assert e == again and hash(e) == hash(again)
            assert e.index_set == again.index_set and hash(e.index_set) == hash(again.index_set)


def test_sets_and_elements_are_immutable():
    s, e = cf.finite_set([2, 5]), cf.x(3)
    for value, name in ((s, "pre"), (s, "nper"), (e, "tailed"), (e, "index_set")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        e.extra = 1


@given(natsets, natsets)
def test_equal_canonical_values_hash_alike(a, b):
    # the same set from a longer, unreduced description
    h = a.npre
    rebuilt = cf.natset(
        [a.bit(p) for p in range(1, h + 1)], [a.bit(p) for p in range(h + 1, h + 1 + 2 * a.nper)]
    )
    assert rebuilt == a and hash(rebuilt) == hash(a)
    # the same element reached by two routes
    ea, eb = cf.ys_elem(a), cf.ys_elem(b)
    for left, right in (
        (cf.cof_join(cf.x(3), ea), cf.cof_join(ea, cf.x(3))),
        (cf.cof_meet(ea, eb), cf.cof_meet(eb, ea)),
    ):
        assert left == right and hash(left) == hash(right)


def test_long_period_union_is_word_operations():
    a, b = cf.progression(1021), cf.progression(1019, 1)
    start = time.perf_counter()
    u = a.union(b)
    elapsed = time.perf_counter() - start
    assert u.nper == 1021 * 1019 and u.npre == 0
    assert [p for p in range(1, 2045) if p in u] == [1, 1020, 1021, 2039, 2042]
    assert elapsed < 0.3, elapsed


def test_mask_length_guard():
    over = cf.MAX_BITS + 1
    for build in (
        lambda: cf.progression(over),
        lambda: cf.finite_set([cf.MAX_BITS]),
        lambda: cf.range_set(1, over),
        lambda: cf.tail_set(over),
        lambda: cf.x(over),
        lambda: cf.natset([0] * cf.MAX_BITS, [1]),
        lambda: cf.FULL_SET.indices_up_to(over),
        # a period of 4,003,997 bits; refused before any mask is built
        lambda: cf.progression(1999).union(cf.progression(2003, 1)),
    ):
        with pytest.raises(CapacityError, match=str(cf.MAX_BITS)):
            build()
    assert cf.x(cf.MAX_BITS).tail == cf.MAX_BITS
    assert cf.y(cf.MAX_BITS - 1).ys.max_or_zero() == cf.MAX_BITS - 1


def test_an_absorbing_period_decides_the_rest_of_the_result():
    # the largest tail the guard admits, against the longest admitted period:
    # max(npre) + lcm(nper) is 2^21 - 1 bits, yet the result needs max(npre) + 1
    far, sparse = cf.tail_set(cf.MAX_BITS), cf.progression(cf.MAX_BITS)
    assert far.union(sparse) == far
    assert sparse.union(far) == far
    assert far.complement().intersect(sparse) == cf.EMPTY_SET
    assert far.union(cf.progression(cf.MAX_BITS, 1)).npre == cf.MAX_BITS - 1
    with pytest.raises(CapacityError, match=str(cf.MAX_BITS)):
        cf.progression(cf.MAX_BITS).union(cf.progression(cf.MAX_BITS - 1))


@given(natsets)
def test_complement_involution_and_demorgan(a):
    assert a.complement().complement() == a
    b = cf.progression(3, 1)
    assert a.union(b).complement() == a.complement().intersect(b.complement())


def test_finite_cofinite_classification():
    assert cf.finite_set([1, 2, 5]).is_finite
    assert cf.tail_set(3).is_cofinite
    assert cf.progression(2).is_finite is False
    assert cf.progression(2).is_cofinite is False
    assert cf.EMPTY_SET.is_empty
    assert cf.range_set(2, 5).finite_indices() == (2, 3, 4)


# ---------------------------------------------------------------------------
# Elements and lattice operations


def test_canonical_element_absorption():
    # a pair index at the tail boundary upgrades the tail
    e = cf.cof_elem(3, cf.finite_set([2]))
    assert e == cf.x(2)
    # pair indices above the tail are swallowed
    e2 = cf.cof_elem(3, cf.finite_set([5, 7]))
    assert e2 == cf.x(3)
    # chained absorption reaches the top
    e3 = cf.cof_elem(4, cf.finite_set([1, 2, 3]))
    assert e3 == cf.ONE


def test_meet_examples():
    assert cf.cof_meet(cf.x(3), cf.x(5)) == cf.x(5)
    evens, odds = cf.progression(2), cf.progression(2, 1)
    assert cf.cof_meet(cf.ys_elem(evens), cf.ys_elem(odds)) == cf.ZERO
    assert cf.cof_meet(cf.x(2), cf.y(1)) == cf.ZERO


def test_join_examples():
    assert cf.cof_join(cf.y(2), cf.x(3)) == cf.x(2)
    evens, odds = cf.progression(2), cf.progression(2, 1)
    j = cf.cof_join(cf.ys_elem(evens), cf.ys_elem(odds))
    assert j == cf.ys_elem(cf.FULL_SET)
    assert j != cf.ONE
    assert cf.cof_join(cf.y(4), cf.ZERO) == cf.y(4)


def test_closure_membership_examples():
    assert cf.closure_membership(cf.x(4)) == "B"
    assert cf.closure_membership(cf.ys_elem(cf.progression(3))) == "Cl(B)\\B"
    assert cf.closure_membership(cf.parse_elem("y1|y2|y5")) == "B"


def test_meet_and_join_keep_the_tailed_cofinite_invariant():
    """``cof_meet`` and ``cof_join`` build their results past ``CofElem.__new__``;
    each result must rebuild through it, so a tailed one has a cofinite set."""
    rng = random.Random(41)

    def bits(lo):
        return [rng.randint(0, 1) for _ in range(rng.randint(lo, 8))]

    drawn = [cf.natset(bits(0), bits(1)) for _ in range(400)]
    elems = cf.bounded_elements(5, 6) + [
        cf.cof_elem(rng.choice([None, rng.randint(1, 12)]), s) for s in drawn
    ]
    for a, b in itertools.product(elems, repeat=2):
        for r in (cf.cof_meet(a, b), cf.cof_join(a, b)):
            assert cf.CofElem(*r) == r


def test_lattice_laws_on_bounded_probe():
    probe = cf.bounded_elements(4, 5)
    rng = random.Random(60)
    sample = [rng.choice(probe) for _ in range(40)]
    for a in sample:
        assert cf.cof_meet(a, a) == a
        assert cf.cof_join(a, a) == a
        assert cf.cof_meet(a, cf.ONE) == a
        assert cf.cof_join(a, cf.ZERO) == a
    for a, b in itertools.product(sample[:15], repeat=2):
        assert cf.cof_meet(a, b) == cf.cof_meet(b, a)
        assert cf.cof_join(a, b) == cf.cof_join(b, a)
        assert cf.cof_meet(a, cf.cof_join(a, b)) == a
        assert cf.cof_join(a, cf.cof_meet(a, b)) == a
    small = cf.bounded_elements(2, 3)
    for a, b, c in itertools.product(small, repeat=3):
        assert cf.cof_meet(a, cf.cof_meet(b, c)) == cf.cof_meet(cf.cof_meet(a, b), c)
        assert cf.cof_join(a, cf.cof_join(b, c)) == cf.cof_join(cf.cof_join(a, b), c)
        assert cf.cof_meet(a, cf.cof_join(b, c)) == cf.cof_join(
            cf.cof_meet(a, b), cf.cof_meet(a, c)
        )


def test_truncation_oracle():
    """Symbolic operations agree with partition operations on sign spaces."""
    n = 5
    P = mk_parity_ntba(n)
    space = P.space

    def realize(e):
        gens = [
            coordinate_sign(space, k) * coordinate_sign(space, k + 1)
            for k in e.ys.indices_up_to(n)
        ]
        if e.tail is not None:
            gens.extend(coordinate_sign(space, j) for j in range(e.tail, n + 2))
        return sigma_of_rvs(space, gens)

    rng = random.Random(61)
    for _ in range(80):
        def rand_elem():
            tail = rng.choice([None, None, rng.randint(1, n + 1)])
            idxs = [k for k in range(1, n + 1) if rng.random() < 0.4]
            return cf.cof_elem(tail, cf.finite_set(idxs))

        a, b = rand_elem(), rand_elem()
        assert realize(cf.cof_meet(a, b)) == meet(realize(a), realize(b))
        assert realize(cf.cof_join(a, b)) == join(realize(a), realize(b))


# ---------------------------------------------------------------------------
# Complements and completion


def test_complement_examples():
    assert cf.has_complement(cf.x(3)) == cf.parse_elem("y1|y2")
    assert cf.has_complement(cf.ys_elem(cf.progression(2))) is None
    assert cf.has_complement(cf.ZERO) == cf.ONE
    assert cf.has_complement(cf.ONE) == cf.ZERO
    assert cf.has_complement(cf.y(2)) == cf.parse_elem("y1|x3")


def test_complements_verify_and_are_unique():
    probe = cf.bounded_elements(5, 6)
    for e in probe:
        comp = cf.has_complement(e)
        assert comp is not None
        assert cf.cof_meet(e, comp) == cf.ZERO
        assert cf.cof_join(e, comp) == cf.ONE
        others = [
            c
            for c in probe
            if c != comp and cf.cof_meet(e, c) == cf.ZERO and cf.cof_join(e, c) == cf.ONE
        ]
        assert not others


def test_completion_is_the_algebra_itself():
    probe = cf.bounded_elements(5, 6) + [
        cf.ys_elem(cf.progression(2)),
        cf.ys_elem(cf.progression(3)),
        cf.ys_elem(cf.tail_set(2)),
    ]
    for e in probe:
        assert (cf.has_complement(e) is not None) == cf.in_algebra(e)


def test_no_bounded_complement_for_infinite_join():
    target = cf.ys_elem(cf.progression(2))
    for c in cf.bounded_elements(5, 6):
        good = cf.cof_meet(target, c) == cf.ZERO and cf.cof_join(target, c) == cf.ONE
        assert not good


# ---------------------------------------------------------------------------
# Monotone limits and the two limit checks


def test_monotone_limit_examples():
    assert cf.monotone_limit(cf.PrefixJoins(cf.FULL_SET)) == cf.ys_elem(cf.FULL_SET)
    assert cf.monotone_limit(cf.TailChain(1)) == cf.ZERO
    assert cf.monotone_limit(cf.TailChain(4)) == cf.ZERO
    seq = cf.EventuallyConstant((cf.y(1), cf.y(1)))
    assert cf.monotone_limit(seq) == cf.y(1)


def test_monotone_limit_prefix_terms_increase():
    seq = cf.PrefixJoins(cf.progression(2))
    terms = [seq.term(n) for n in range(1, 9)]
    for a, b in zip(terms, terms[1:]):
        assert cf.cof_leq(a, b)
    lim = cf.monotone_limit(seq)
    for t in terms:
        assert cf.cof_leq(t, lim)


def test_complement_chain_terms_decrease_to_limit():
    seq = cf.ComplementChain(cf.progression(2))
    terms = [seq.term(n) for n in range(1, 9)]
    for a, b in zip(terms, terms[1:]):
        assert cf.cof_leq(b, a)
    lim = cf.monotone_limit(seq)
    assert lim == cf.ys_elem(cf.progression(2, 1))
    for t in terms:
        assert cf.cof_leq(lim, t)


@pytest.mark.parametrize("start", [1, 2, 3])
def test_tail_chain_limit_is_the_one_probe_below_every_term(start):
    """Kolmogorov's zero-one law in the symbolic model: the tails t(start),
    ..., t(8) decrease, and no probe element but 0 lies below all of them."""
    seq = cf.TailChain(start)
    terms = [seq.term(n) for n in range(1, 9 - start + 1)]
    assert terms[0] == cf.x(start) and terms[-1] == cf.x(8)
    for a, b in zip(terms, terms[1:]):
        assert cf.cof_leq(b, a) and a != b
    probes = cf.bounded_elements(6, 7)
    assert len(probes) == 128
    below = [e for e in probes if all(cf.cof_leq(e, t) for t in terms)]
    assert below == [cf.ZERO] == [cf.monotone_limit(seq)]


def test_limits_stay_in_closure():
    for d in (
        cf.PrefixJoins(cf.progression(2)),
        cf.PrefixJoins(cf.finite_set([2, 3])),
        cf.ComplementChain(cf.FULL_SET),
        cf.TailChain(2),
    ):
        assert cf.closure_membership(cf.monotone_limit(d)) in ("B", "Cl(B)\\B")


def test_unsupported_descriptor():
    with pytest.raises(UnsupportedSequenceError):
        cf.monotone_limit("not a descriptor")
    with pytest.raises(UnsupportedSequenceError):
        cf.completion_criterion_check(cf.TailChain(1))
    with pytest.raises(UnsupportedSequenceError):
        cf.EventuallyConstant((cf.y(1), cf.y(2))).term(1) and cf.monotone_limit(
            cf.EventuallyConstant((cf.y(1), cf.y(2)))
        )


def test_explicit_sequences_report_their_direction():
    assert cf._require_monotone((cf.y(1), cf.parse_elem("y1|y2"), cf.x(1))) is True
    assert cf._require_monotone((cf.x(2), cf.x(3))) is False
    with pytest.raises(UnsupportedSequenceError):
        cf._require_monotone((cf.y(1), cf.y(2)))
    with pytest.raises(UnsupportedSequenceError):
        cf.completion_criterion_check(cf.EventuallyConstant((cf.x(2), cf.x(3))))
    with pytest.raises(UnsupportedSequenceError):
        cf.completion_criterion_check(cf.EventuallyConstant((cf.y(1), cf.ys_elem(cf.progression(2)))))


def test_completion_criterion_examples():
    r = cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET))
    assert not r.holds
    assert r.sup == cf.ys_elem(cf.FULL_SET)
    assert r.inf_complements == cf.ZERO
    assert r.joined == cf.ys_elem(cf.FULL_SET)

    r2 = cf.completion_criterion_check(cf.EventuallyConstant((cf.y(1),)))
    assert r2.holds

    r3 = cf.completion_criterion_check(cf.PrefixJoins(cf.progression(2)))
    assert not r3.holds
    assert r3.sup == cf.ys_elem(cf.progression(2))
    assert r3.joined == cf.ys_elem(cf.FULL_SET)

    r4 = cf.completion_criterion_check(cf.PrefixJoins(cf.finite_set([1, 4])))
    assert r4.holds


def test_double_limit_examples():
    d = cf.double_limit_check(cf.PrefixJoins(cf.FULL_SET))
    assert d.equal
    assert d.joined_limits == cf.ys_elem(cf.FULL_SET)
    d2 = cf.double_limit_check(cf.EventuallyConstant((cf.y(3),)))
    assert d2.equal and d2.joined_limits == cf.ONE
    d3 = cf.double_limit_check(cf.PrefixJoins(cf.progression(2)))
    assert d3.equal
    d4 = cf.double_limit_check(cf.PrefixJoins(cf.finite_set([2, 5])))
    assert d4.equal and d4.joined_limits == cf.ONE


def test_double_limit_inner_chain_really_decreases():
    i = cf.progression(2)
    m = 4
    xm = cf.PrefixJoins(i).term(m)
    inner_terms = [
        cf.cof_join(xm, cf.ComplementChain(i).term(n)) for n in range(m, m + 6)
    ]
    for a, b in zip(inner_terms, inner_terms[1:]):
        assert cf.cof_leq(b, a)
    # and its limit matches the closed form used by double_limit_check
    want = cf.ys_elem(i.complement().union(i.intersect(cf.range_set(1, m + 1))))
    for t in inner_terms:
        assert cf.cof_leq(want, t)


# ---------------------------------------------------------------------------
# Ultrafilters


def test_ultrafilter_membership_and_infima():
    fr = cf.CofUltrafilter("frechet")
    assert fr.contains(cf.x(9))
    assert not fr.contains(cf.ys_elem(cf.FULL_SET))
    assert fr.infimum() == cf.ZERO
    p2 = cf.CofUltrafilter("principal", 2)
    assert p2.contains(cf.y(2))
    assert p2.contains(cf.x(2))
    assert not p2.contains(cf.x(3))
    assert p2.infimum() == cf.y(2)


def test_ultrafilter_dichotomy_on_bounded_probe():
    probe = [e for e in cf.bounded_elements(4, 5) if cf.in_algebra(e)]
    for u in cf.enumerate_ultrafilters(5):
        for e in probe:
            comp = cf.has_complement(e)
            assert u.contains(e) != u.contains(comp)
            if u.contains(e) and cf.cof_leq(e, comp):
                raise AssertionError("filter contains both an element and below")


def test_is_atomless_false_with_witness():
    flag, witness = cf.is_atomless()
    assert flag is False
    assert witness.kind == "principal" and witness.index == 1
    assert witness.infimum() == cf.y(1)


# ---------------------------------------------------------------------------
# Parser / formatter


def test_parse_format_roundtrip():
    for text in ["0", "1", "x3", "y1|y4", "y1|x5", "Y{011;10}", "Y{;1}", "Y{;01}"]:
        e = cf.parse_elem(text)
        assert cf.parse_elem(cf.format_elem(e)) == e


def test_parse_progressions():
    assert cf.parse_elem("Y(2k)") == cf.ys_elem(cf.progression(2))
    assert cf.parse_elem("Y(3k+1)") == cf.ys_elem(cf.progression(3, 1))
    assert cf.parse_elem("x2|y1") == cf.ONE


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        cf.parse_elem("z9")


element_text = st.text(alphabet="xyYk01234579(){};|+ z-", max_size=16)


@given(element_text)
@settings(max_examples=400)
def test_parse_elem_parses_or_rejects(text):
    try:
        e = cf.parse_elem(text)
    except (ValueError, NoiseLatticeError):
        return
    assert cf.parse_elem(cf.format_elem(e)) == e


@given(element_text)
@settings(max_examples=100, deadline=None)
def test_cofinite_eval_exits_0_2_or_3(text):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(["cofinite", "eval", text])
        except SystemExit as exc:  # argparse refuses text that looks like an option
            assert exc.code == 2, text
            return
    assert code in (0, 2, 3), text
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()


def test_closure_lattice_laws_fuzz_with_infinite_sets():
    """Laws over the whole closure, eventually periodic (often infinite) sets."""
    rng = random.Random(99)

    def rand_natset():
        pre = [rng.randint(0, 1) for _ in range(rng.randint(0, 5))]
        per = [rng.randint(0, 1) for _ in range(rng.randint(1, 4))]
        return cf.natset(pre, per)

    def rand_elem():
        if rng.random() < 0.5:
            return cf.cof_elem(rng.randint(1, 7), rand_natset())
        return cf.cof_elem(None, rand_natset())

    for _ in range(1500):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert cf.cof_meet(a, b) == cf.cof_meet(b, a)
        assert cf.cof_join(a, b) == cf.cof_join(b, a)
        assert cf.cof_meet(a, cf.cof_join(a, b)) == a
        assert cf.cof_join(a, cf.cof_meet(a, b)) == a
        assert cf.cof_meet(a, cf.cof_meet(b, c)) == cf.cof_meet(cf.cof_meet(a, b), c)
        assert cf.cof_join(a, cf.cof_join(b, c)) == cf.cof_join(cf.cof_join(a, b), c)
        assert cf.cof_meet(a, cf.cof_join(b, c)) == cf.cof_join(
            cf.cof_meet(a, b), cf.cof_meet(a, c)
        )
        m, j = cf.cof_meet(a, b), cf.cof_join(a, b)
        assert cf.cof_leq(m, a) and cf.cof_leq(m, b)
        assert cf.cof_leq(a, j) and cf.cof_leq(b, j)
        comp = cf.has_complement(a)
        assert (comp is not None) == cf.in_algebra(a)
        if comp is not None:
            assert cf.cof_meet(a, comp) == cf.ZERO
            assert cf.cof_join(a, comp) == cf.ONE
            assert cf.has_complement(comp) == a
