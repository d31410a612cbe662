"""The check suites' integer projection oracles against the Fraction ones.

``checks`` builds each dense conditional-expectation matrix as integers
M over one scale L, Q = M / L.  These tests hold M, the commuting
verdict and the rank of the stacked first-chaos operators against the
``Fraction`` matrices of ``conftest``.  The three suites that decide a
kernel by rank and by sending a basis to 0 are also run with one fault
injected at a time, and each fault must fail some case.  The truncation
suite must realize each distinct element once.  The cofinite
lattice-law suite reads its laws from one meet table and one join table,
so a result outside its element set is a reported failure and a one-sided
meet is seen.
"""

import random
from fractions import Fraction

import pytest
from conftest import exact_rank, projection_matrix, projections_commute

from noise_lattice import checks
from noise_lattice.finmeas import RV, Subspace, indicator, mk_space, norm2
from noise_lattice.instances import (
    rand_independent_pair,
    rand_ntba,
    rand_partition,
    rand_space,
)
from noise_lattice.kernels import row_echelon_int
from noise_lattice.ntba import mk_parity_ntba
from noise_lattice.sigma import partition


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
