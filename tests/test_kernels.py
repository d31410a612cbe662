"""The integer elimination kernels agree with a Fraction oracle."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from noise_lattice.kernels import BACKEND, orthogonalize_int, row_echelon_int


def rref_fraction_rank(rows):
    """Plain Fraction Gaussian elimination, the slow reference."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_echelon_rank_matches_fraction_elimination():
    rng = random.Random(0)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        _, piv = row_echelon_int(m)
        assert len(piv) == rref_fraction_rank(m)


def test_echelon_preserves_row_space():
    rng = random.Random(1)
    for _ in range(50):
        m = random_matrix(rng, 4, 5)
        ech, piv = row_echelon_int(m)
        combined = [r[:] for r in m] + [r[:] for r in ech]
        _, piv2 = row_echelon_int(combined)
        assert len(piv2) == len(piv)


matrices = st.integers(1, 6).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-9, 9), min_size=nc, max_size=nc), min_size=1, max_size=8
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_echelon_rows_are_primitive_with_increasing_pivots(m):
    ech, piv = row_echelon_int(m)
    assert len(ech) == len(piv) == rref_fraction_rank(m)
    assert piv == sorted(set(piv))
    for row, c in zip(ech, piv):
        assert not any(row[:c]) and row[c]
        assert gcd(*row) == 1
    # the kept rows are independent (distinct pivots) and lie in the row
    # space, as many as its rank: they span it
    assert rref_fraction_rank(m + ech) == len(piv)


def test_orthogonalize_output_is_orthogonal():
    rng = random.Random(3)
    for _ in range(50):
        nc = rng.randint(1, 6)
        vecs = random_matrix(rng, rng.randint(1, 6), nc)
        w = [rng.randint(1, 5) for _ in range(nc)]
        basis, norms = orthogonalize_int(vecs, w)
        for i, bi in enumerate(basis):
            assert norms[i] == sum(wk * x * x for wk, x in zip(w, bi))
            for bj in basis[i + 1 :]:
                assert sum(wk * a * b for wk, a, b in zip(w, bi, bj)) == 0
        _, piv = row_echelon_int(vecs)
        assert len(basis) == len(piv)


def test_input_not_mutated():
    m = [[1, 2], [3, 4]]
    row_echelon_int(m)
    assert m == [[1, 2], [3, 4]]
    orthogonalize_int(m, [1, 1])
    assert m == [[1, 2], [3, 4]]


def test_backend_name_is_reported():
    assert BACKEND == "pure"
