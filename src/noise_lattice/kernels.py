"""Integer elimination kernels for exact rational linear algebra.

The kernels operate on lists of Python ints, so results are exact.
Rational inputs are scaled to integers by the callers (see ``linalg``).
Every step is fraction-free: a row is combined with another by integer
multiples and then divided by the gcd of its entries, so no entry ever
needs a denominator.
"""

from math import gcd

# There is one implementation, in pure Python.  The name stays because
# reports print it as ``versions.kernel`` and must stay byte-identical.
BACKEND = "pure"


def weighted_dot_int(u, v, w):
    """Sum of w[i]*u[i]*v[i] over all i."""
    total = 0
    for ui, vi, wi in zip(u, v, w):
        if ui and vi:
            total += wi * ui * vi
    return total


def row_echelon_int(rows, limit=None):
    """Row echelon form, built one row at a time.  Returns (rows, pivot_cols).

    Each input row is reduced against the rows kept so far: while its
    leading column holds the pivot p of a kept row, it becomes
    (p/g)*row - (e/g)*kept, with e its entry there and g = gcd(p, e).  A
    nonzero remainder is kept, divided by the gcd of its entries, with its
    leading column as pivot.  The kept rows come back sorted by pivot
    column, one per rank, so they span the row space of the input.  The
    input is not mutated.

    The elimination stops once ``limit`` rows are kept (by default the
    column count, the largest rank there is), so the pivot count is
    min(rank, limit): a caller that knows a bound on the rank asks
    whether it is reached without reading the rows past it.
    """
    kept = {}  # pivot column -> primitive row whose leading entry sits there
    nc = len(rows[0]) if rows else 0
    if limit is None:
        limit = nc
    for row in rows:
        if len(kept) >= limit:
            break
        r = list(row)
        c = 0
        while True:
            while c < nc and not r[c]:
                c += 1
            if c == nc:
                break
            pivot_row = kept.get(c)
            if pivot_row is None:
                kept[c] = strip_gcd(r)
                break
            p, e = pivot_row[c], r[c]
            g = gcd(p, e)
            p, e = p // g, e // g
            for j in range(c, nc):
                r[j] = p * r[j] - e * pivot_row[j]
    piv_cols = sorted(kept)
    return [kept[c] for c in piv_cols], piv_cols


def strip_gcd(v):
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
                w = strip_gcd([nb * wi - num * bi for wi, bi in zip(w, b)])
        if any(w):
            basis.append(w)
            norms.append(weighted_dot_int(w, w, weights))
    return basis, norms
