"""The check suites' integer projection oracles against the Fraction ones.

``checks`` builds each dense conditional-expectation matrix as integers
M over one scale L, Q = M / L.  These tests hold M, the commuting
verdict and the rank of the stacked first-chaos operators against the
``Fraction`` matrices of ``conftest``.  The three suites that decide a
kernel by rank and by sending a basis to 0 are also run with one fault
injected at a time, and each fault must fail some case; the first-level
suite's elimination stops at the rank it certifies, and keeps the
verdict of eliminating the basis with the stack.  The truncation
suite must realize each distinct element once.  The cofinite
lattice-law suite reads its laws from one meet table and one join table,
so a result outside its element set is a reported failure and a one-sided
meet is seen.  The monotone-limit suite holds each fixed descriptor's
limit to a written-out element, so a wrong limit is a reported failure.
Each suite that no other test drives to a failure runs under one fault
in a library function it calls (``FAULTS``): it must report a failure,
and its failure records must pickle and print as JSON.
"""

import json
import pickle
import random
from fractions import Fraction

import pytest
from conftest import exact_rank, projection_matrix, projections_commute

from noise_lattice import checks
from noise_lattice.chaos import ChaosResult
from noise_lattice.finmeas import RV, Subspace, indicator, mk_space, norm2, span_on
from noise_lattice.instances import (
    rand_independent_pair,
    rand_ntba,
    rand_partition,
    rand_space,
)
from noise_lattice.kernels import row_echelon_int
from noise_lattice.ntba import mk_coordinate_ntba, mk_parity_ntba
from noise_lattice.sigma import partition, trivial


def _three_point_witness():
    three = mk_space(["a", "b", "c"], [Fraction(1, 3)] * 3)
    return partition(three, [[0], [1, 2]]), partition(three, [[0, 1], [2]])


def _pairs(rng, count):
    """(x, y) pairs on rational spaces with mixed denominators."""
    yield _three_point_witness()
    for case in range(count):
        if case % 3 == 0:
            _, x, y = rand_independent_pair(rng)
        else:
            space = rand_space(rng, 6)
            x, y = rand_partition(rng, space), rand_partition(rng, space)
        yield x, y


def test_projection_matrix_is_integer_and_scales_the_fraction_oracle():
    rng = random.Random(31)
    fields = [f for pair in _pairs(rng, 100) for f in pair]
    fields += [B.coatom(k).realize() for B in (mk_parity_ntba(3),) for k in range(3)]
    for x in fields:
        m, scale = checks._projection_matrix(x)
        q = projection_matrix(x)
        assert type(scale) is int and scale > 0
        assert all(type(e) is int for row in m for e in row)
        assert [[scale * e for e in row] for row in q] == m


def test_projection_matrix_refuses_float_spaces():
    space = rand_space(random.Random(0), 4, "float")
    with pytest.raises(ValueError, match="rational spaces only"):
        checks._projection_matrix(rand_partition(random.Random(1), space))


def test_projections_commute_matches_fraction_oracle():
    rng = random.Random(32)
    verdicts = []
    for x, y in _pairs(rng, 240):
        verdict = checks._projections_commute(x, y)
        assert verdict == projections_commute(x, y), (x.blocks, y.blocks)
        verdicts.append(verdict)
    assert len(verdicts) >= 200
    assert verdicts[0] is False  # the three-point witness
    assert True in verdicts and verdicts.count(False) > 1


def test_first_chaos_stack_rank_matches_fraction_elimination():
    rng = random.Random(33)
    algebras = [rand_ntba(rng, 64) for _ in range(30)] + [mk_parity_ntba(3)]
    for B in algebras:
        splits = [(B.coatom(k).realize(), B.atoms[k]) for k in range(B.n_atoms)]
        n = B.space.size
        stacked = checks._operator_stack(splits, n)
        assert all(type(e) is int for row in stacked for e in row)
        oracle = []
        for x, xc in splits:
            qx, qxc = projection_matrix(x), projection_matrix(xc)
            for i in range(n):
                row = [-a - b for a, b in zip(qx[i], qxc[i])]
                row[i] += 1
                oracle.append(row)
        for s, o in zip(stacked, oracle):  # each row a positive multiple of the oracle's
            assert [a == 0 for a in s] == [b == 0 for b in o]
            ratios = {Fraction(a) / b for a, b in zip(s, o) if b}
            assert len(ratios) == 1 and min(ratios) > 0
        assert len(row_echelon_int(stacked)[1]) == exact_rank(oracle)


def _run_suite(fn, cases):
    """The suite on the instances that ``check all --seed 1`` draws for it."""
    return fn(random.Random(f"1:{fn.__name__}"), cases)


def test_meet_suite_catches_a_projection_entry_off_by_one(monkeypatch):
    assert not _run_suite(checks.suite_inf_subspaces, 100).failures
    original = checks._projection_matrix

    def off_by_one(part):
        rows, scale = original(part)
        rows = list(rows)
        rows[0] = rows[0][:]
        rows[0][0] += 1
        return rows, scale

    monkeypatch.setattr(checks, "_projection_matrix", off_by_one)
    assert _run_suite(checks.suite_inf_subspaces, 100).failures


def test_meet_suite_catches_a_dropped_block_indicator(monkeypatch):
    original = checks.subspace_of

    def dropped(x):
        sub = original(x)
        return Subspace(sub.space, sub.basis[1:], sub.norms2[1:])

    monkeypatch.setattr(checks, "subspace_of", dropped)
    assert _run_suite(checks.suite_inf_subspaces, 100).failures


def test_meet_suite_catches_a_basis_vector_outside_the_kernel(monkeypatch):
    """Same dimension, wrong span: only the sends-to-0 clause sees it."""
    original = checks.subspace_of

    def moved(x):
        sub = original(x)
        first = indicator(sub.space, [0])
        return Subspace(sub.space, (first, *sub.basis[1:]), (norm2(first), *sub.norms2[1:]))

    monkeypatch.setattr(checks, "subspace_of", moved)
    assert _run_suite(checks.suite_inf_subspaces, 100).failures


def test_split_suite_catches_a_conditional_expectation_off_by_one(monkeypatch):
    assert not _run_suite(checks.suite_split_identity, 20).failures
    original = checks.cond_exp

    def off_on_two_blocks(x, f):
        got = original(x, f)
        if x.n_blocks != 2:
            return got
        values = list(got.values)
        values[0] += 1
        return RV(got.space, values)

    monkeypatch.setattr(checks, "cond_exp", off_on_two_blocks)
    assert _run_suite(checks.suite_split_identity, 20).failures


def test_split_suite_catches_a_wanted_vector_outside_the_kernel(monkeypatch):
    """Same dimension, wrong span: only the sends-to-0 clause sees it."""
    original = checks.span_on

    def moved(space, vecs):
        sub = original(space, vecs)
        first = indicator(space, [0])  # not mean-zero, so never in the kernel
        return Subspace(space, (first, *sub.basis[1:]), (norm2(first), *sub.norms2[1:]))

    monkeypatch.setattr(checks, "span_on", moved)
    assert _run_suite(checks.suite_split_identity, 20).failures


def _with_level_one(monkeypatch, change):
    """Run the first-level suite with level 1's basis replaced by ``change(sub)``."""
    original = checks.spectral_decompose

    def changed(B):
        D = original(B)
        sub = D.levels[1]
        D.levels[1] = Subspace(sub.space, *change(sub))
        return D

    monkeypatch.setattr(checks, "spectral_decompose", changed)
    return _run_suite(checks.suite_first_level_is_h1, 30)


def test_first_level_suite_catches_a_dropped_basis_vector(monkeypatch):
    res = _with_level_one(monkeypatch, lambda sub: (sub.basis[1:], sub.norms2[1:]))
    assert res.failures


def test_first_level_suite_catches_a_dropped_vector_by_its_rank_step(monkeypatch):
    """The certified dim is patched to agree with the shorter basis, which
    stays independent, inside the kernel and split by every co-atom: only
    the stack's rank falls short of N - h."""
    original = checks.certified_levels

    def agreeing(B):
        levels = original(B)
        levels[1] -= 1
        return levels

    monkeypatch.setattr(checks, "certified_levels", agreeing)
    res = _with_level_one(monkeypatch, lambda sub: (sub.basis[1:], sub.norms2[1:]))
    assert res.failures


def test_first_level_suite_catches_a_basis_vector_outside_the_kernel(monkeypatch):
    def moved(sub):
        first = indicator(sub.space, [0])
        return (first, *sub.basis[1:]), (norm2(first), *sub.norms2[1:])

    assert _with_level_one(monkeypatch, moved).failures


def test_first_level_suite_catches_a_projection_entry_off_by_one(monkeypatch):
    assert not _run_suite(checks.suite_first_level_is_h1, 30).failures
    original = checks._projection_matrix

    def off_by_one(part):
        rows, scale = original(part)
        rows = list(rows)
        rows[0] = rows[0][:]
        rows[0][0] += 1
        return rows, scale

    monkeypatch.setattr(checks, "_projection_matrix", off_by_one)
    assert _run_suite(checks.suite_first_level_is_h1, 30).failures


def test_first_level_rank_clauses_agree_with_the_kernel_dimension():
    """Independence, containment and rank N of [basis; stack] against the
    old clause N - rank(stack) == len(basis), on the seed-1 instances and on
    their level-1 bases with a vector dropped or moved out of the kernel.

    The two agree where the basis lies in the kernel; a moved vector keeps
    the dimension, so only the new clauses see it."""
    rng = random.Random("1:suite_first_level_is_h1")
    verdicts = []
    for _ in range(30):
        B = rand_ntba(rng, 64)
        space = B.space
        basis = list(checks.spectral_decompose(B).levels[1].basis)
        splits = [(B.coatom(k).realize(), B.atoms[k]) for k in range(B.n_atoms)]
        stacked = checks._operator_stack(splits, space.size)
        stacked_rank = exact_rank(stacked)
        for variant, inside in (
            (basis, True),
            (basis[1:], True),
            ([indicator(space, [0]), *basis[1:]], False),
        ):
            nums = [f.vec.nums for f in variant]
            independent = exact_rank(nums) == len(nums)
            contained = all(
                sum(a * b for a, b in zip(row, v)) == 0 for row in stacked for v in nums
            )
            new = independent and contained and exact_rank(nums + stacked) == space.size
            old = independent and space.size - stacked_rank == len(nums)
            assert contained == inside
            assert new == (old and inside)
            verdicts.append(new)
    assert verdicts.count(True) == 30


def test_echelon_limit_stops_at_that_rank_and_keeps_the_verdict():
    """``row_echelon_int(rows, limit)`` is the elimination of the shortest
    prefix of rows of rank ``limit`` (all rows when the rank is lower), and
    no limit is a limit of the column count.  So it reaches ``limit``
    pivots iff the rank is at least ``limit``: on random integer matrices,
    and on the first-level stacks S, reversed as the suite reads them,
    where N - h pivots agree with rank N of [basis; S]."""
    rng = random.Random(34)
    for _ in range(300):
        nc = rng.randint(1, 7)
        m = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(rng.randint(1, 9))]
        assert row_echelon_int(m) == row_echelon_int(m, nc)
        rank = exact_rank(m)
        for limit in range(nc + 1):
            ech, piv = row_echelon_int(m, limit)
            assert len(piv) == min(rank, limit)
            prefix = next(
                (m[:j] for j in range(len(m) + 1) if exact_rank(m[:j]) == limit), m
            )
            assert (ech, piv) == row_echelon_int(prefix)
    for seed in (1, 2, 3):
        rng = random.Random(f"{seed}:suite_first_level_is_h1")
        for _ in range(30):
            B = rand_ntba(rng, 64)
            n = B.space.size
            nums = [f.vec.nums for f in checks.spectral_decompose(B).levels[1].basis]
            splits = [(B.coatom(k).realize(), B.atoms[k]) for k in range(B.n_atoms)]
            stacked = checks._operator_stack(splits, n)
            limit = n - len(nums)
            reached = len(row_echelon_int(stacked[::-1], limit)[1]) == limit
            assert reached == (exact_rank(nums + stacked) == n)
            for short in (nums[1:], nums[:-1]):  # a vector dropped: the limit is out of reach
                limit = n - len(short)
                assert len(row_echelon_int(stacked[::-1], limit)[1]) < limit


def test_truncation_suite_realizes_each_element_once(monkeypatch):
    """``sup_family`` runs once per distinct element the suite realizes:
    the drawn pairs, their meets and their joins."""
    seen, calls = set(), []
    for name in ("cof_elem", "cof_meet", "cof_join"):
        original = getattr(checks.cf, name)

        def recording(*args, _original=original):
            e = _original(*args)
            seen.add(e)
            return e

        monkeypatch.setattr(checks.cf, name, recording)
    original_sup = checks.sup_family

    def counting(fields):
        calls.append(None)
        return original_sup(fields)

    monkeypatch.setattr(checks, "sup_family", counting)
    assert not _run_suite(checks.suite_cofinite_truncation, 300).failures
    assert len(calls) == len(seen) < 4 * 300


def _cofinite_laws_with_meet(monkeypatch, changed):
    """The lattice-law suite with ``cof_meet(a, b)`` replaced by ``changed(a, b, meet)``."""
    original = checks.cf.cof_meet
    monkeypatch.setattr(checks.cf, "cof_meet", lambda a, b: changed(a, b, original(a, b)))
    return _run_suite(checks.suite_cofinite_laws, 200).failures


def test_cofinite_laws_report_a_meet_outside_the_element_set(monkeypatch):
    assert not _run_suite(checks.suite_cofinite_laws, 200).failures
    big = checks.cf.bounded_elements(6, 7)
    outside = checks.cf.ys_elem(checks.cf.finite_set([8]))
    assert outside not in big
    failures = _cofinite_laws_with_meet(
        monkeypatch, lambda a, b, m: outside if (a, b) == (big[3], big[7]) else m
    )
    fmt = checks.cf.format_elem
    assert failures == [{"law": "meet-closed", "a": fmt(big[3]), "b": fmt(big[7])}]


def test_cofinite_laws_catch_a_one_sided_meet(monkeypatch):
    big = checks.cf.bounded_elements(6, 7)
    a, b = next(
        (a, b) for a in big for b in big if checks.cf.cof_meet(a, b) not in (a, b)
    )
    failures = _cofinite_laws_with_meet(monkeypatch, lambda x, y, m: x if (x, y) == (a, b) else m)
    assert {"law": "meet-commutative", "a": checks.cf.format_elem(min(a, b, key=big.index))} in failures


def test_monotone_limit_suite_checks_each_fixed_limit(monkeypatch):
    cf = checks.cf
    assert not _run_suite(checks.suite_cofinite_limits, 60).failures
    original = cf.monotone_limit
    monkeypatch.setattr(
        cf, "monotone_limit", lambda d: cf.ZERO if isinstance(d, cf.EventuallyConstant) else original(d)
    )
    failures = _run_suite(checks.suite_cofinite_limits, 60).failures
    assert failures == [{"descriptor": repr(cf.EventuallyConstant((cf.y(1), cf.y(1)))), "limit": "0"}]


def _negated(f):
    return lambda *args: not f(*args)


def _first_character(f):
    return lambda space, ks: f(space, ks[:1])


def _trivial_meet(f):
    return lambda x, y: trivial(x.space)


def _identity_projection(f):
    return lambda x, g: g


def _short_chaos(f):
    """A first chaos short of its first basis vector."""
    return lambda B: ChaosResult(span_on(B.space, f(B).h1.basis[1:]), B)


def _halved_p(f):
    return lambda n, p, rng: f(n, p / 2, rng)


# One row per suite that no other test drives to a failure: the suite, the
# module or class holding a library function it calls, that function's
# name, and the fault put in its place, built from the original.
FAULTS = [
    (checks.suite_span_rank, checks, "span", lambda f: lambda vs, space: f(vs[1:], space=space)),
    (checks.suite_product_inner, checks, "inner", lambda f: lambda a, b: 2 * f(a, b)),
    (checks.suite_walsh_orthonormal, checks, "walsh_character", _first_character),
    (checks.suite_independence_criterion, checks, "commutes", _negated),
    (checks.suite_indep_lattice_identities, checks, "meet", _trivial_meet),
    (checks.suite_projection_laws, checks, "cond_exp", _identity_projection),
    (checks.suite_product_membership, checks, "meet", _trivial_meet),
    (checks.suite_ntba_constructions, checks, "presentation_problem",
     lambda f: lambda space, atoms: "dependent atoms"),
    (checks.suite_generated_atoms, checks, "coarsen",
     lambda f: lambda B, groups: f(B, [range(B.n_atoms)])),
    (checks.suite_parity_recoding, checks, "mk_parity_ntba",
     lambda f: lambda n, space: mk_coordinate_ntba(space)),
    (checks.suite_superadditivity, checks, "norm2", lambda f: lambda g: -f(g)),
    (checks.suite_membership_triequivalence, checks, "chaos_membership", _negated),
    (checks.suite_chaos_additivity, checks, "cond_exp", _identity_projection),
    (checks.suite_classicality, checks, "sigma_of_rvs", lambda f: lambda space, rvs: trivial(space)),
    (checks.suite_up_down, checks, "first_chaos", _short_chaos),
    (checks.suite_presentation_invariance, checks, "first_chaos", _short_chaos),
    (checks.suite_walsh_oracle, checks, "walsh_character", _first_character),
    (checks.suite_spectral_invariance, checks, "certified_levels",
     lambda f: lambda B: {k: d + 1 for k, d in f(B).items()}),
    (checks.suite_k_monotone, Subspace, "contains", _negated),
    (checks.suite_k_additivity, checks, "k_restriction_additivity", _negated),
    (checks.suite_sigma_tower, checks, "sigma_tower_check", _negated),
    (checks.suite_cofinite_truncation, checks.cf, "cof_meet", lambda f: checks.cf.cof_join),
    (checks.suite_randsup_distribution, checks.rs, "sample_element", _halved_p),
    (checks.suite_randsup_union_bound, checks.rs, "sample_element", _halved_p),
    (checks.suite_randsup_reproducible, checks.rs, "run_join_process",
     lambda f: lambda cfg: [t[::-1] for t in f(cfg)]),
]


@pytest.mark.parametrize(
    "suite, owner, name, fault", FAULTS, ids=[row[0].__name__ for row in FAULTS]
)
def test_every_suite_reports_a_fault(monkeypatch, suite, owner, name, fault):
    """Each suite fails under one fault in a function it calls, and its
    failure records survive the pickle of a forked worker and the JSON of
    ``check all --format json``."""
    assert not _run_suite(suite, 5).failures
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    failures = _run_suite(suite, 5).failures
    assert failures
    pickle.dumps(failures)
    json.dumps(failures, sort_keys=True, default=str)
