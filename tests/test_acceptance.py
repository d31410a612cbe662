"""Acceptance criteria, one test per criterion, one printed verdict line each.

Every tolerance is pinned here: "exact" means Fraction equality in the
rational backend, Monte-Carlo comparisons use three binomial standard
errors, and the chi-square gate is p > 0.001 at 1e5 trials.  Time budgets
are asserted with the stated limits.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from conftest import is_basis, kernel_intersection_oracle, projections_commute

from noise_lattice import cofinite as cf
from noise_lattice.chaos import chaos_membership, first_chaos, up_down_roundtrip
from noise_lattice.finmeas import (
    coordinate_sign,
    mk_dyadic,
    mk_space,
    norm2,
    span,
)
from noise_lattice.instances import (
    rand_element,
    rand_independent_pair,
    rand_ntba,
    rand_partition,
    rand_rv,
    rand_space,
    lift_partition,
)
from noise_lattice.ntba import mk_coordinate_ntba, mk_parity_ntba
from noise_lattice.randsup import (
    SampleConfig,
    element_distribution_pvalue,
    union_bound_report,
)
from noise_lattice.sigma import (
    cond_exp,
    commutes,
    discrete,
    independent,
    join,
    meet,
    partition,
    sigma_of,
    trivial,
)
from noise_lattice.spectrum import k_restriction_additivity, spectral_decompose


def verdict(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_walsh_grading():
    t0 = time.time()
    ok = True
    for n in range(1, 9):
        D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(n)))
        ok = ok and D.level_dims() == {k: comb(n, k) for k in range(n + 1)}
    elapsed = time.time() - t0
    verdict(1, f"Walsh grading n=1..8 exact ({elapsed:.2f}s < 5s)", ok and elapsed < 5)


def test_criterion_02_first_level_equals_first_chaos():
    t0 = time.time()
    rng = random.Random("acceptance-2")
    ok = True
    for _ in range(100):
        B = rand_ntba(rng, 64)
        D = spectral_decompose(B)
        h1 = kernel_intersection_oracle(B)
        lvl = D.levels.get(1)
        dim = lvl.dim if lvl else 0
        ok = ok and dim == h1.dim
        if ok and lvl:
            ok = is_basis(lvl) and h1.contains_subspace(lvl) and lvl.contains_subspace(h1)
        if not ok:
            break
    elapsed = time.time() - t0
    verdict(
        2,
        f"level-1 = first chaos, 100 random algebras, exact ({elapsed:.1f}s < 60s)",
        ok and elapsed < 60,
    )


def test_criterion_03_independence_criterion():
    rng = random.Random("acceptance-3")
    ok = True
    for case in range(200):
        if case % 3 == 0:
            prod, x, y = rand_independent_pair(rng)
            space = prod.space
        else:
            space = rand_space(rng, 6)
            x, y = rand_partition(rng, space), rand_partition(rng, space)
        lhs = independent(x, y)
        commuting = commutes(x, y)
        rhs = commuting and meet(x, y) == trivial(space)
        ok = ok and lhs == rhs and commuting == projections_commute(x, y)
    three = mk_space(["a", "b", "c"], [Fraction(1, 3)] * 3)
    wx = partition(three, [[0], [1, 2]])
    wy = partition(three, [[0, 1], [2]])
    witness_dependent = not independent(wx, wy)
    verdict(
        3,
        "independence = commuting + trivial meet, 200 pairs, witness dependent",
        ok and witness_dependent,
    )


def test_criterion_04_superadditivity_and_triequivalence():
    rng = random.Random("acceptance-4")
    ok = True
    for case in range(500):
        B = rand_ntba(rng, 16)
        f = rand_rv(rng, B.space)
        x = rand_element(rng, B).realize()
        y = rand_element(rng, B).realize()
        lhs = norm2(cond_exp(x, f)) + norm2(cond_exp(y, f))
        rhs = norm2(cond_exp(join(x, y), f)) + norm2(cond_exp(meet(x, y), f))
        ok = ok and lhs <= rhs
        if case % 10 == 0:
            zero_mean = rand_rv(rng, B.space, zero_mean=True)
            chaos_membership(B, zero_mean)  # raises if the three disagree
        if not ok:
            break
    verdict(4, "superadditivity + membership tri-equivalence, 500 cases, exact", ok)


def test_criterion_05_independent_quadruples():
    rng = random.Random("acceptance-5")
    ok = True
    for _ in range(200):
        prod, _, _ = rand_independent_pair(rng)
        x = lift_partition(prod, discrete(prod.factors[0]), 0)
        y = lift_partition(prod, discrete(prod.factors[1]), 1)
        u1 = lift_partition(prod, rand_partition(rng, prod.factors[0]), 0)
        u2 = lift_partition(prod, rand_partition(rng, prod.factors[0]), 0)
        v1 = lift_partition(prod, rand_partition(rng, prod.factors[1]), 1)
        v2 = lift_partition(prod, rand_partition(rng, prod.factors[1]), 1)
        ok = ok and meet(join(u1, v1), join(u2, v2)) == join(
            meet(u1, u2), meet(v1, v2)
        )
        ok = ok and meet(join(u1, v1), x) == u1
        ok = ok and meet(join(u1, v1), y) == v1
        if not ok:
            break
    verdict(5, "independent-quadruple lattice identities, 200 cases, exact", ok)


def test_criterion_06_up_down_roundtrip():
    rng = random.Random("acceptance-6")
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in (1, 2, 3, 4, 5)]
    algebras += [mk_parity_ntba(n) for n in (1, 2, 3, 4)]
    while len(algebras) < 15:
        B = rand_ntba(rng, 32)
        if B.n_atoms <= 5:
            algebras.append(B)
    ok = True
    for B in algebras:
        cr = first_chaos(B)
        for e in B.elements():
            ok = ok and up_down_roundtrip(e, cr)
        if not ok:
            break
    verdict(6, "up/down round trip on all elements, algebras up to 5 atoms", ok)


def test_criterion_07_restriction_additivity():
    rng = random.Random("acceptance-7")
    ok = True
    done = 0
    while done < 50:
        B = rand_ntba(rng, 32)
        if B.n_atoms < 2:
            continue
        k = rng.randint(1, B.n_atoms - 1)
        idxs = list(range(B.n_atoms))
        rng.shuffle(idxs)
        ok = ok and k_restriction_additivity(B.element(idxs[:k]))
        done += 1
        if not ok:
            break
    verdict(7, "grading adds under restriction, 50 random (B, e), exact", ok)


def test_criterion_08_dossier():
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        ok = ok and first_chaos(mk_parity_ntba(n)).h1.dim == n + 1
    for n in range(1, 5):
        space = mk_dyadic(n + 1)
        pairs = [
            coordinate_sign(space, k) * coordinate_sign(space, k + 1)
            for k in range(1, n + 1)
        ]
        pairing = sigma_of(span(pairs))
        ok = ok and pairing.n_blocks == 1 << n
        ok = ok and all(len(b) == 2 for b in pairing.blocks)
    crit = cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET))
    ok = ok and not crit.holds and crit.sup == cf.ys_elem(cf.FULL_SET)
    ok = ok and cf.has_complement(cf.ys_elem(cf.progression(2))) is None
    ok = ok and cf.has_complement(cf.ys_elem(cf.progression(3))) is None
    ok = ok and not cf.complement_problems()
    elapsed = time.time() - t0
    verdict(8, f"sign-product dossier, exact ({elapsed:.1f}s < 10s)", ok and elapsed < 10)


def test_criterion_09_symbolic_numeric_cross_oracle():
    rng = random.Random("acceptance-9")
    n = 6
    P = mk_parity_ntba(n)
    space = P.space

    def realize(e):
        gens = [
            coordinate_sign(space, k) * coordinate_sign(space, k + 1)
            for k in e.ys.indices_up_to(n)
        ]
        if e.tail is not None:
            gens.extend(coordinate_sign(space, j) for j in range(e.tail, n + 2))
        from noise_lattice.sigma import sigma_of_rvs

        return sigma_of_rvs(space, gens)

    ok = True
    for _ in range(300):
        def rand_elem():
            tail = rng.choice([None, None, rng.randint(1, n + 1)])
            idxs = [k for k in range(1, n + 1) if rng.random() < 0.4]
            return cf.cof_elem(tail, cf.finite_set(idxs))

        a, b = rand_elem(), rand_elem()
        ok = ok and realize(cf.cof_meet(a, b)) == meet(realize(a), realize(b))
        ok = ok and realize(cf.cof_join(a, b)) == join(realize(a), realize(b))
        if not ok:
            break
    verdict(9, "symbolic vs partition oracle, 300 meet/join instances, exact", ok)


def test_criterion_10_randsup():
    t0 = time.time()
    ok = True
    for p in (0.1, 0.5, 0.9):
        pv, _, _ = element_distribution_pvalue(4, p, seed=1234, trials=100_000)
        ok = ok and pv > 0.001
    cfg = SampleConfig((4, 4, 4), (0.1, 0.1, 0.1), seed=99, trials=50_000)
    rep = union_bound_report(cfg)
    ok = ok and abs(rep.exact - (1 - 0.9**3)) < 1e-12
    ok = ok and rep.within_three_sigma and rep.below_bound
    elapsed = time.time() - t0
    verdict(
        10,
        f"sampling law chi-square + union bound ({elapsed:.1f}s < 30s)",
        ok and elapsed < 30,
    )


def test_criterion_11_determinism(capsys):
    from noise_lattice.cli import main

    code1 = main(["check", "all", "--seed", "17", "--cases", "4"])
    out1 = capsys.readouterr().out
    code2 = main(["check", "all", "--seed", "17", "--cases", "4"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 0
    rep = json.loads(out1)
    ok = ok and rep["passed"] is True
    with capsys.disabled():
        verdict(11, "check all --seed S twice is byte-identical", ok)
