"""Exact rational and float linear algebra on coordinate vectors.

Every rank/equality decision is made inside one backend, never by mixing
the two: ``EXACT`` for spaces with Fraction probabilities, ``FLOAT`` for
float ones.  A probability space picks its backend once (``backend_of``),
and the modules above ask that backend for zero, one, constants, weights,
block averages, inner products, equality, rank and orthogonalization
instead of branching on the mode themselves.  The float tolerances live
here and nowhere else.

Exact mode computes on integers.  A rational space holds integer weights
w_i over one total W, the lcm of its denominators (``ExactBackend.scale``),
and a vector of Fractions becomes integers over one denominator
(``to_int``).  Sums, products and comparisons of probabilities are then
Python ``int`` arithmetic and the elimination kernels; a ``Fraction`` is
built only for a value handed back: a block mass, a block average, an
inner product, a basis entry.  The float backend uses the probabilities
themselves as weights, with W = 1.0, and numpy.
"""

from fractions import Fraction
from math import lcm, prod

import numpy as np

from .kernels import orthogonalize_int, row_echelon_int, weighted_dot_int

FLOAT_TOL = 1e-9  # entrywise equality, norm and singular-value cutoff
GROUP_TOL = 1e-7  # float values closer than this share a level set
PROB_SUM_TOL = 1e-12  # float probabilities must sum to 1 within this


def to_int(values):
    """(ints, den): Fractions or ints as integers over their least common denominator.

    ``ints[i] / den == values[i]``; integer operations only.
    """
    den = lcm(*{x.denominator for x in values})
    return [x.numerator * (den // x.denominator) for x in values], den


def exact_rank(rows) -> int:
    rows = [to_int(r)[0] for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    _, piv = row_echelon_int(rows)
    return len(piv)


def exact_rref(rows):
    """Canonical reduced row echelon form over the rationals.

    Returns a tuple of tuples of Fractions with unit pivots and zeros above
    them; two lists of vectors span the same subspace iff their forms are
    equal, which makes this the canonical key for subspace identity.
    """
    int_rows = [to_int(r)[0] for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not int_rows:
        return ()
    ech, piv = row_echelon_int(int_rows)
    work = [[Fraction(x) for x in row] for row in ech]
    for i in reversed(range(len(piv))):
        c = piv[i]
        pivval = work[i][c]
        work[i] = [x / pivval for x in work[i]]
        for j in range(i):
            f = work[j][c]
            if f:
                work[j] = [a - f * b for a, b in zip(work[j], work[i])]
    return tuple(tuple(r) for r in work)


def exact_nullspace(rows):
    """Basis of {v : M v = 0} over the rationals, deterministic order.

    One basis vector per free column, with that coordinate set to 1.
    """
    int_rows = [to_int(r)[0] for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not int_rows:
        return None  # caller interprets: whole space
    nc = len(int_rows[0])
    rref = exact_rref(int_rows)
    piv = []
    for r in rref:
        for c, x in enumerate(r):
            if x:
                piv.append(c)
                break
    pivset = set(piv)
    basis = []
    for free in range(nc):
        if free in pivset:
            continue
        v = [Fraction(0)] * nc
        v[free] = Fraction(1)
        for i, c in enumerate(piv):
            v[c] = -rref[i][free]
        basis.append(v)
    return basis


def exact_orthogonalize(vectors, weights, total):
    """Weighted Gram-Schmidt over the rationals, unnormalized.

    ``weights`` are the integer outcome weights over ``total`` (see
    ``ExactBackend.scale``).  Returns (basis, norms2) where basis vectors
    have integer entries (as Fractions) and norms2 are their exact squared
    weighted norms.
    """
    int_vecs = [to_int(v)[0] for v in vectors]
    basis, norms = orthogonalize_int(int_vecs, weights)
    out_basis = [[Fraction(x) for x in b] for b in basis]
    out_norms = [Fraction(n, total) for n in norms]
    return out_basis, out_norms


def float_orthonormalize(vectors, weights):
    """Modified Gram-Schmidt with weighted inner product; drops near-zeros."""
    w = np.asarray(weights, dtype=float)
    basis = []
    for v in vectors:
        v = np.asarray(v, dtype=float).copy()
        for _ in range(2):  # re-orthogonalize once for stability
            for b in basis:
                v -= np.dot(w * b, v) * b
        n = np.sqrt(np.dot(w * v, v))
        if n > FLOAT_TOL:
            basis.append(v / n)
    return basis


def _svd_cutoff(s, shape) -> float:
    # relative to the top singular value, but never below the absolute tol
    # (otherwise an all-but-zero matrix would keep full numerical rank)
    top = float(s[0]) if len(s) else 0.0
    return max(FLOAT_TOL, FLOAT_TOL * max(shape) * top)


def float_rank(rows) -> int:
    m = np.asarray(rows, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, m.shape)))


def float_nullspace(rows):
    m = np.asarray(rows, dtype=float)
    if m.size == 0:
        return None
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > _svd_cutoff(s, m.shape)))
    return [vt[i] for i in range(rank, vt.shape[0])]


class ExactBackend:
    """Fractions at the boundary, integers inside: every decision is exact.

    Vectors are tuples or lists of the values of one random variable.  A
    space's ``weights`` are integers w_i over its ``total`` W (``scale``),
    so sums and products of probabilities are int arithmetic and every
    comparison an integer cross-multiplication, with no tolerance.
    """

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    tol = None

    def coerce(self, c) -> Fraction:
        return Fraction(c)

    def to_json(self, p) -> str:
        return f"{p.numerator}/{p.denominator}"

    def scale(self, probs):
        """(weights, W): integer weights over the lcm W of the denominators."""
        weights, total = to_int(probs)
        return tuple(weights), total

    def sums_to_one(self, weights, total) -> bool:
        return sum(weights) == total

    def ratio(self, weight, total) -> Fraction:
        """The probability of a weight, as one Fraction."""
        return Fraction(weight, total)

    def is_product(self, cell, factors, total) -> bool:
        """Whether cell/W = prod(f/W) over the factors, as cell*W^(n-1) = prod(f)."""
        return cell * total ** (len(factors) - 1) == prod(factors)

    def equal(self, a, b) -> bool:
        return a == b

    def is_zero(self, values) -> bool:
        return not any(values)

    def levels(self, values):
        """One hashable level label per entry: equal labels, same level set."""
        return values

    def block_means(self, labels, block_weights, values, weights):
        """Per block k, the weighted average of values over the outcomes labelled k.

        One pass of integer products w_i*n_i over the values' numerators
        n_i (common denominator d), then one Fraction(S_k, d*w_k) per block.
        """
        nums, den = to_int(values)
        sums = [0] * len(block_weights)
        for k, w, n in zip(labels, weights, nums):
            if n:
                sums[k] += w * n
        return [Fraction(s, den * w) for s, w in zip(sums, block_weights)]

    def dot(self, u, v, space):
        """E[uv] under the space's weights, one Fraction at the end."""
        a, da = to_int(u)
        b, db = (a, da) if v is u else to_int(v)
        return Fraction(weighted_dot_int(a, b, space.weights), da * db * space.total)

    def orthogonalize(self, vectors, space):
        """(basis, norms2): an orthogonal basis of the span and its squared norms."""
        return exact_orthogonalize(vectors, space.weights, space.total)

    def rank(self, rows) -> int:
        return exact_rank(rows)

    def rref(self, rows):
        """Canonical form of the row space (see ``exact_rref``)."""
        return exact_rref(rows)


class FloatBackend:
    """Floats: entrywise equality within FLOAT_TOL and numerical rank by SVD.

    A space's weights are its probabilities and its total is 1.0, so every
    method does the float arithmetic of the plain probability formula.
    """

    name = "float"
    zero = 0.0
    one = 1.0
    tol = FLOAT_TOL

    def coerce(self, c) -> float:
        return float(c)

    def to_json(self, p) -> float:
        return float(p)

    def scale(self, probs):
        return probs, 1.0

    def sums_to_one(self, weights, total) -> bool:
        return abs(sum(weights) - total) <= PROB_SUM_TOL

    def ratio(self, weight, total) -> float:
        return weight / total

    def is_product(self, cell, factors, total) -> bool:
        expected = 1.0
        for f in factors:
            expected *= f / total
        return abs(cell / total - expected) <= self.tol

    def equal(self, a, b) -> bool:
        return all(abs(x - y) <= self.tol for x, y in zip(a, b))

    def is_zero(self, values) -> bool:
        return all(abs(v) <= self.tol for v in values)

    def levels(self, values):
        """Chain sorted values while neighbours are within GROUP_TOL.

        Chaining (connected components of the links) keeps the relation
        transitive, which plain thresholding would not.
        """
        order = sorted(range(len(values)), key=values.__getitem__)
        labels = [0] * len(values)
        level = 0
        for prev, cur in zip(order, order[1:]):
            if not abs(values[cur] - values[prev]) < GROUP_TOL:
                level += 1
            labels[cur] = level
        return labels

    def block_means(self, labels, block_weights, values, weights):
        sums = [0] * len(block_weights)
        for k, p, v in zip(labels, weights, values):
            sums[k] += p * v
        return [s / w for s, w in zip(sums, block_weights)]

    def dot(self, u, v, space):
        return float(np.dot(np.asarray(space.weights) * np.asarray(u), np.asarray(v)))

    def orthogonalize(self, vectors, space):
        basis = float_orthonormalize(vectors, space.weights)
        return [b.tolist() for b in basis], [1.0] * len(basis)

    def rank(self, rows) -> int:
        return float_rank(rows)

    def rref(self, rows):
        raise ValueError("canonical keys exist only in rational mode")


EXACT = ExactBackend()
FLOAT = FloatBackend()


def backend_of(probs):
    """The backend of a probability vector: all Fractions or all floats."""
    if all(isinstance(p, Fraction) for p in probs):
        return EXACT
    if all(isinstance(p, float) for p in probs):
        return FLOAT
    raise ValueError("probabilities must be all Fractions or all floats")
