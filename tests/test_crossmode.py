"""The two numeric backends agree on the same underlying instances."""

import random
from fractions import Fraction

import pytest
from conftest import is_basis, kernel_intersection_oracle

from noise_lattice.chaos import first_chaos
from noise_lattice.finmeas import RV, ProbSpace, inner, mk_space, span
from noise_lattice.instances import rand_ntba, rand_partition, rand_rv, rand_space
from noise_lattice.ntba import NTBA
from noise_lattice.sigma import (
    SigmaField,
    cond_exp,
    commutes,
    discrete,
    independent,
    join,
    meet,
    partition,
    sigma_of_rvs,
)
from noise_lattice.spectrum import spectral_decompose


def to_float_space(space: ProbSpace) -> ProbSpace:
    return mk_space(space.outcomes, [float(p) for p in space.probs])


def to_float_partition(space, part) -> SigmaField:
    return partition(space, [list(b) for b in part.blocks])


def test_lattice_ops_agree_across_backends():
    rng = random.Random(70)
    for _ in range(30):
        space = rand_space(rng, 6)
        fspace = to_float_space(space)
        x, y = rand_partition(rng, space), rand_partition(rng, space)
        fx, fy = to_float_partition(fspace, x), to_float_partition(fspace, y)
        assert meet(fx, fy).blocks == meet(x, y).blocks
        assert join(fx, fy).blocks == join(x, y).blocks
        assert independent(fx, fy) == independent(x, y)
        assert commutes(fx, fy) == commutes(x, y)


def test_cond_exp_agrees_across_backends():
    rng = random.Random(71)
    for _ in range(20):
        space = rand_space(rng, 6)
        fspace = to_float_space(space)
        x = rand_partition(rng, space)
        f = rand_rv(rng, space)
        exact = cond_exp(x, f)
        approx = cond_exp(
            to_float_partition(fspace, x),
            RV(fspace, tuple(float(v) for v in f.values)),
        )
        for a, b in zip(exact.values, approx.values):
            assert abs(float(a) - b) < 1e-9


def test_span_dims_agree_across_backends():
    rng = random.Random(72)
    for _ in range(20):
        space = rand_space(rng, 6)
        fspace = to_float_space(space)
        vs = [rand_rv(rng, space) for _ in range(rng.randint(1, 5))]
        fvs = [RV(fspace, tuple(float(v) for v in x.values)) for x in vs]
        assert span(vs).dim == span(fvs).dim


def test_chaos_and_grading_agree_across_backends():
    rng = random.Random(73)
    for _ in range(8):
        B = rand_ntba(rng, 32)
        fspace = to_float_space(B.space)
        FB = NTBA(fspace, [to_float_partition(fspace, a) for a in B.atoms])
        cr, fcr = first_chaos(B), first_chaos(FB)
        assert cr.h1.dim == fcr.h1.dim
        assert is_basis(cr.h1) and kernel_intersection_oracle(B).equals(cr.h1)
        assert is_basis(fcr.h1) and kernel_intersection_oracle(FB).equals(fcr.h1)
        generated = sigma_of_rvs(B.space, cr.h1.basis)
        assert generated.blocks == sigma_of_rvs(fspace, fcr.h1.basis).blocks
        assert generated == discrete(B.space)
        assert spectral_decompose(B).level_dims() == spectral_decompose(FB).level_dims()


def test_inner_products_agree_across_backends():
    rng = random.Random(74)
    space = rand_space(rng, 6)
    fspace = to_float_space(space)
    f, g = rand_rv(rng, space), rand_rv(rng, space)
    ff = RV(fspace, tuple(float(v) for v in f.values))
    fg = RV(fspace, tuple(float(v) for v in g.values))
    assert abs(float(inner(f, g)) - inner(ff, fg)) < 1e-9


def test_absent_cell_is_dependence_in_both_backends():
    # b & c is empty, yet its expected mass 1e-10 is below the float tolerance
    for probs, tuple_text in (
        ([1 - 2e-5, 1e-5, 1e-5], r"\(1, 1\)"),
        ([1 - Fraction(2, 10**5), Fraction(1, 10**5), Fraction(1, 10**5)], r"\(0, 0\)"),
    ):
        space = mk_space(["a", "b", "c"], probs)
        x = partition(space, [[0, 1], [2]])
        y = partition(space, [[0, 2], [1]])
        assert not independent(x, y)
        assert not commutes(x, y)
        with pytest.raises(ValueError, match=f"not mutually independent at block tuple {tuple_text}"):
            NTBA(space, [x, y])
