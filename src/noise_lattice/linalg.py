"""Exact rational and float linear algebra on coordinate vectors.

Rational vectors are scaled to integers and routed through the elimination
kernels; float vectors go through numpy.  Every rank/equality decision is
made inside one backend, never by mixing the two: ``EXACT`` for spaces
with Fraction probabilities, ``FLOAT`` for float ones.  A probability space
picks its backend once (``backend_of``), and the modules above ask that
backend for zero, one, constants, equality, rank and orthogonalization
instead of branching on the mode themselves.  The float tolerances live
here and nowhere else.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from .kernels import orthogonalize_int, row_echelon_int

FLOAT_TOL = 1e-9  # entrywise equality, norm and singular-value cutoff
GROUP_TOL = 1e-7  # float values closer than this share a level set
PROB_SUM_TOL = 1e-12  # float probabilities must sum to 1 within this


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def scale_row_to_int(row) -> list:
    """Clear denominators of one vector of Fractions (or ints)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = _lcm(den, x.denominator)
    return [int(x * den) for x in row]


def scale_weights_to_int(weights):
    """Clear denominators of a weight vector; returns (ints, scale)."""
    den = 1
    for w in weights:
        den = _lcm(den, Fraction(w).denominator)
    return [int(Fraction(w) * den) for w in weights], den


def exact_rank(rows) -> int:
    rows = [scale_row_to_int(r) for r in rows]
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
    int_rows = [scale_row_to_int(r) for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not int_rows:
        return ()
    ech, piv = row_echelon_int(int_rows)
    work = [[Fraction(x) for x in ech[i]] for i in range(len(piv))]
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
    int_rows = [scale_row_to_int(r) for r in rows]
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


def exact_orthogonalize(vectors, weights):
    """Weighted Gram-Schmidt over the rationals, unnormalized.

    Returns (basis, norms2) where basis vectors have integer entries
    (as Fractions) and norms2 are their exact squared weighted norms.
    """
    w_int, scale = scale_weights_to_int(weights)
    int_vecs = [scale_row_to_int(v) for v in vectors]
    basis, norms = orthogonalize_int(int_vecs, w_int)
    out_basis = [[Fraction(x) for x in b] for b in basis]
    out_norms = [Fraction(n, scale) for n in norms]
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
    """Fractions: every decision is an exact comparison, with no tolerance.

    Vectors are tuples or lists of the values of one random variable;
    ``weights`` are the outcome probabilities.
    """

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    tol = None

    def coerce(self, c) -> Fraction:
        return Fraction(c)

    def to_json(self, p) -> str:
        return f"{p.numerator}/{p.denominator}"

    def sums_to_one(self, total) -> bool:
        return total == 1

    def equal(self, a, b) -> bool:
        return a == b

    def is_zero(self, values) -> bool:
        return not any(values)

    def levels(self, values):
        """One hashable level label per entry: equal labels, same level set."""
        return values

    def dot(self, u, v, weights):
        return sum(p * a * b for p, a, b in zip(weights, u, v))

    def orthogonalize(self, vectors, weights):
        """(basis, norms2): an orthogonal basis of the span and its squared norms."""
        return exact_orthogonalize(vectors, weights)

    def rank(self, rows) -> int:
        return exact_rank(rows)

    def rref(self, rows):
        """Canonical form of the row space (see ``exact_rref``)."""
        return exact_rref(rows)


class FloatBackend:
    """Floats: entrywise equality within FLOAT_TOL and numerical rank by SVD."""

    name = "float"
    zero = 0.0
    one = 1.0
    tol = FLOAT_TOL

    def coerce(self, c) -> float:
        return float(c)

    def to_json(self, p) -> float:
        return float(p)

    def sums_to_one(self, total) -> bool:
        return abs(total - 1.0) <= PROB_SUM_TOL

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

    def dot(self, u, v, weights):
        return float(np.dot(np.asarray(weights) * np.asarray(u), np.asarray(v)))

    def orthogonalize(self, vectors, weights):
        basis = float_orthonormalize(vectors, weights)
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
