"""Integer elimination kernels for exact rational linear algebra.

The kernels operate on lists of Python ints, so results are exact.
Rational inputs are scaled to integers by the callers (see ``linalg``).
"""

from math import gcd

# There is one implementation, in pure Python.  A compiled twin gained
# little: these kernels are about 2% of exact first-chaos time, since the
# Fraction arithmetic around them dominates.  The name stays because
# reports print it as ``versions.kernel`` and must stay byte-identical.
BACKEND = "pure"


def weighted_dot_int(u, v, w):
    """Sum of w[i]*u[i]*v[i] over all i."""
    total = 0
    for ui, vi, wi in zip(u, v, w):
        if ui and vi:
            total += wi * ui * vi
    return total


def row_echelon_int(rows):
    """Fraction-free row echelon form (Bareiss).  Returns (matrix, pivot_cols).

    The input is not mutated.  Every division below is exact by the
    Sylvester determinant identity, so entries stay integers and grow no
    faster than minors of the input.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    piv_cols = []
    prev = 1
    r = 0
    for c in range(nc):
        p = -1
        for i in range(r, nr):
            if m[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nr):
            row_i = m[i]
            fi = row_i[c]
            if fi:
                for j in range(c, nc):
                    row_i[j] = (pv * row_i[j] - fi * row_r[j]) // prev
            else:
                for j in range(c, nc):
                    x = row_i[j]
                    if x:
                        row_i[j] = pv * x // prev
        prev = pv
        piv_cols.append(c)
        r += 1
        if r == nr:
            break
    return m, piv_cols


def _strip_gcd(v):
    g = 0
    for x in v:
        if x:
            g = gcd(g, x)
            if g == 1:
                return v
    if g > 1:
        return [x // g for x in v]
    return v


def orthogonalize_int(vecs, weights):
    """Gram-Schmidt without normalization, under the weighted inner product.

    Returns (basis, norms): pairwise w-orthogonal integer vectors spanning
    the same space as ``vecs`` (zero vectors dropped), plus their squared
    w-norms.  Each elimination step is fraction-free (v <- |b|^2 v - <v,b> b)
    followed by a gcd reduction to keep entries small.
    """
    basis = []
    norms = []
    for v in vecs:
        w = list(v)
        for b, nb in zip(basis, norms):
            num = weighted_dot_int(w, b, weights)
            if num:
                w = _strip_gcd([nb * wi - num * bi for wi, bi in zip(w, b)])
        if any(w):
            basis.append(w)
            norms.append(weighted_dot_int(w, w, weights))
    return basis, norms
