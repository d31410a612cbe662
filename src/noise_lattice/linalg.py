"""Exact rational and float linear algebra on coordinate vectors.

Every rank/equality decision is made inside one backend, never by mixing
the two: ``EXACT`` for spaces with integer weights, ``FLOAT`` for float
ones.  A probability space picks its backend once (``backend_of``),
and the modules above ask that backend for zero, one, constants, weights,
vectors and their arithmetic, block averages, inner products, projections,
equality, rank and orthogonalization instead of branching on the mode
themselves.  The float tolerances live here and nowhere else.

Exact mode computes on integers.  A rational space is integer weights w_i
over one total W, reduced by one gcd (``ExactBackend.canonical``), and a
random variable is an ``IntVec``: integer numerators over one denominator,
reduced the same way, so equal laws are equal spaces and equal values
equal vectors.  Fractions become weights or such a vector once, at the
boundary (``scale``, ``to_int``); a product or quotient of spaces
multiplies or sums weights and never builds a probability.  Indicators
and centred block indicators are built as integers from the block
weights over the total, and a projection's coefficients are reduced
integer pairs.  Sums, products and comparisons of probabilities and of
values are then Python ``int`` arithmetic and the elimination kernels; a
``Fraction`` is built only for a scalar handed back (a block mass, an
inner product, a mean, a squared norm) or when a vector's values are
read.  Both backends pickle by name, so a loaded space keeps ``EXACT`` or
``FLOAT`` itself.  A float vector
is a ``FloatVec``, the tuple of its floats; the float backend uses the
probabilities themselves as weights, with W = 1.0, and numpy, which it
imports on first use, so a rational computation never loads numpy.  The
two never mix: each backend refuses the other's numbers.
"""

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple

from .kernels import orthogonalize_int, row_echelon_int, strip_gcd, weighted_dot_int

FLOAT_TOL = 1e-9  # entrywise equality, norm and singular-value cutoff
GROUP_TOL = 1e-7  # float values closer than this share a level set
PROB_SUM_TOL = 1e-12  # float probabilities must sum to 1 within this


def to_int(values):
    """(ints, den): Fractions or ints as integers over their least common denominator.

    ``ints[i] / den == values[i]``; integer operations only.
    """
    den = lcm(*{x.denominator for x in values})
    return [x.numerator * (den // x.denominator) for x in values], den


class IntVec(NamedTuple):
    """A rational vector as integer numerators over one positive denominator.

    Entry i is ``nums[i] / den``, and gcd(den, *nums) = 1, so equal vectors
    have equal ``nums`` and ``den`` and hash alike.
    """

    nums: tuple
    den: int


class FloatVec(tuple):
    """A float vector: the tuple of its floats, marked as built by the backend."""

    __slots__ = ()


def _intvec(nums, den) -> IntVec:
    """nums / den with the common gcd divided out (den > 0).

    Built as a tuple, past namedtuple's ``__new__``: the fields are
    already reduced.
    """
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple.__new__(IntVec, (tuple([x // g for x in nums]), den // g))
    return tuple.__new__(IntVec, (tuple(nums), den))


def exact_rref(int_rows):
    """Canonical reduced row echelon form over the rationals, of integer rows.

    Returns a tuple of ``IntVec``, one per rank: each row of the form with
    its unit pivot and its zeros above the other pivots, as a primitive
    integer row over its positive pivot entry.  Two lists of vectors span
    the same subspace iff their forms are equal, which makes this the
    canonical key for subspace identity.  The back substitution is
    fraction-free: a row is cleared in a later pivot column by integer
    multiples of the pivot row and divided by the gcd of its entries.
    """
    work, piv = row_echelon_int(int_rows)
    for i in reversed(range(len(piv))):
        c = piv[i]
        if work[i][c] < 0:
            work[i] = [-x for x in work[i]]
        p = work[i][c]
        for j in range(i):
            e = work[j][c]
            if e:
                g = gcd(p, e)
                a, b = p // g, e // g
                work[j] = strip_gcd([a * x - b * y for x, y in zip(work[j], work[i])])
    return tuple(IntVec(tuple(r), r[c]) for r, c in zip(work, piv))


def exact_orthogonalize(int_vecs, weights, total):
    """Weighted Gram-Schmidt over the rationals, unnormalized.

    ``int_vecs`` are integer vectors (a vector's numerators: its
    denominator does not change the span), and ``weights`` the integer
    outcome weights over ``total`` (see ``ExactBackend.canonical``).  Returns
    (basis, norms2): the basis as integers over denominator 1 and the exact
    squared weighted norms as Fractions.
    """
    basis, norms = orthogonalize_int(int_vecs, weights)
    return [IntVec(tuple(b), 1) for b in basis], [Fraction(n, total) for n in norms]


def float_orthonormalize(vectors, weights):
    """Modified Gram-Schmidt with weighted inner product; drops near-zeros."""
    import numpy as np

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
    import numpy as np

    m = np.asarray(rows, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, m.shape)))


def float_nullspace(rows):
    import numpy as np

    m = np.asarray(rows, dtype=float)
    if m.size == 0:
        return None
    _, s, vt = np.linalg.svd(m)
    rank = int(np.sum(s > _svd_cutoff(s, m.shape)))
    return [vt[i] for i in range(rank, vt.shape[0])]


class ExactBackend:
    """Fractions at the boundary, integers inside: every decision is exact.

    A vector is an ``IntVec``: the values of one random variable as
    integer numerators over one denominator, reduced, so that equal values
    are equal vectors.  A space's ``weights`` are integers w_i over its
    ``total`` W (``canonical``), so sums and products of probabilities are int
    arithmetic and every comparison an integer cross-multiplication, with
    no tolerance.  A ``Fraction`` is built only for a scalar handed back
    (a mass, an inner product, a mean, a squared norm) or when ``values``
    is read.

    ``tol`` is None: an exact product law of certified atoms passes to the
    fields of disjoint groups of atoms (the grouping property; Kallenberg,
    Foundations of Modern Probability, ch. 3), so no complement pair fails.
    """

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)
    tol = None

    def __reduce__(self):
        # pickled by name, so a loaded space keeps the one backend
        return "EXACT"

    def coerce(self, c) -> Fraction:
        return Fraction(c)

    def to_json(self, weight, total) -> str:
        """The probability weight / total as "a/b" in lowest terms."""
        g = gcd(weight, total)
        return f"{weight // g}/{total // g}"

    def canonical(self, weights, total):
        """(weights, W) with gcd(W, *weights) divided out, so equal laws are equal."""
        g = gcd(total, *weights)
        if g > 1:
            return tuple([w // g for w in weights]), total // g
        return tuple(weights), total

    def sums_to_one(self, weights, total) -> bool:
        return sum(weights) == total

    def ratio(self, weight, total) -> Fraction:
        """The probability of a weight, as one Fraction."""
        return Fraction(weight, total)

    def is_product(self, cell, factors, total) -> bool:
        """Whether cell/W = prod(f/W) over the factors, as cell*W^(n-1) = prod(f)."""
        return cell * total ** (len(factors) - 1) == prod(factors)

    def vector(self, values, size) -> IntVec:
        """The vector of ``size`` Fractions or ints; a built ``IntVec`` passes through."""
        if type(values) is IntVec:
            return values
        values = tuple(values)
        if len(values) != size:
            raise ValueError("value count must equal outcome count")
        for t in set(map(type, values)):
            _check_exact(t, "value")
        nums, den = to_int(values)  # lowest-terms Fractions over their lcm: reduced
        return tuple.__new__(IntVec, (tuple(nums), den))

    def values(self, u) -> tuple:
        nums, den = u
        return tuple([Fraction(n, den) for n in nums])

    def indicator(self, idxs, size) -> IntVec:
        """The vector that is 1 at the indices and 0 elsewhere."""
        nums = [0] * size
        for i in idxs:
            nums[i] = 1
        return tuple.__new__(IntVec, (tuple(nums), 1))

    def centred_indicator(self, block, weight, total, size) -> IntVec:
        """1_B - P(B) for the block B of that weight over the total W: the
        numerators W - w_B inside B and -w_B outside, over W."""
        nums = [-weight] * size
        inside = total - weight
        for i in block:
            nums[i] = inside
        return _intvec(nums, total)

    def add(self, u, v) -> IntVec:
        (a, da), (b, db) = u, v
        if da == db:
            return _intvec([x + y for x, y in zip(a, b)], da)
        d = lcm(da, db)
        ma, mb = d // da, d // db
        return _intvec([x * ma + y * mb for x, y in zip(a, b)], d)

    def sub(self, u, v) -> IntVec:
        return self.add(u, self.neg(v))

    def neg(self, u) -> IntVec:
        return IntVec(tuple([-x for x in u.nums]), u.den)

    def mul(self, u, v) -> IntVec:
        """The entrywise product."""
        (a, da), (b, db) = u, v
        return _intvec([x * y for x, y in zip(a, b)], da * db)

    def times(self, u, c) -> IntVec:
        """The vector times the scalar c (a Fraction or an int)."""
        _check_exact(type(c), "scalar")
        p, q = c.numerator, c.denominator
        return _intvec([x * p for x in u.nums], u.den * q)

    def lift(self, u, index) -> IntVec:
        """The vector whose entry i is entry index[i] of u."""
        return _intvec(list(map(u.nums.__getitem__, index)), u.den)

    def equal(self, a, b) -> bool:
        return a == b

    def is_zero(self, u) -> bool:
        return not any(u.nums)

    def levels(self, u):
        """One hashable level label per entry: equal labels, same level set."""
        return u.nums

    def mean(self, u, space) -> Fraction:
        """E[u]: one integer sum of w_i n_i, one Fraction at the end."""
        return Fraction(sum(map(mul, space.weights, u.nums)), u.den * space.total)

    def block_means(self, labels, block_weights, u, weights) -> IntVec:
        """The vector that holds on each block the weighted average of u there.

        One pass of integer products w_i n_i into the block sums S_k; block
        k's average S_k / (d w_k) goes over the common denominator d L, L the
        lcm of the block weights, and every outcome takes its block's
        numerator.
        """
        nums, den = u
        sums = [0] * len(block_weights)
        for k, w, n in zip(labels, weights, nums):
            if n:
                sums[k] += w * n
        common = lcm(*block_weights)
        block_nums = [s * (common // w) for s, w in zip(sums, block_weights)]
        den *= common
        g = gcd(den, *block_nums)  # every block holds an outcome
        if g != 1:
            block_nums = [x // g for x in block_nums]
            den //= g
        return tuple.__new__(IntVec, (tuple(map(block_nums.__getitem__, labels)), den))

    def dot(self, u, v, space) -> Fraction:
        """E[uv] under the space's weights, one Fraction at the end."""
        (a, da), (b, db) = u, v
        return Fraction(weighted_dot_int(a, b, space.weights), da * db * space.total)

    def project(self, u, basis, norms2, space) -> IntVec:
        """The sum over an orthogonal basis of <u, b> / |b|^2 times b.

        With u = n_u / d_u, b = n_b / d_b and |b|^2 = p / q, the coefficient
        of n_b is <u, b> / (|b|^2 d_b) = (sum_i w_i n_u,i n_b,i) q over
        d_u d_b^2 W p: one pair of integers, reduced by one gcd.  The
        combination is one integer sum over the lcm of the denominators.
        """
        nums_u, den_u = u
        weights = space.weights
        den_u *= space.total
        coeffs = []
        for (nums_b, den_b), n2 in zip(basis, norms2):
            c = weighted_dot_int(nums_u, nums_b, weights) * n2.denominator
            d = den_u * den_b * den_b * n2.numerator
            g = gcd(c, d)
            coeffs.append((c // g, d // g))
        den = lcm(*[d for _, d in coeffs])
        nums = [0] * len(nums_u)
        for (c, d), (nums_b, _) in zip(coeffs, basis):
            m = c * (den // d)
            if m:
                nums = [x + m * y for x, y in zip(nums, nums_b)]
        return _intvec(nums, den)

    def orthogonalize(self, vectors, space):
        """(basis, norms2): an orthogonal basis of the span and its squared norms."""
        return exact_orthogonalize([v.nums for v in vectors], space.weights, space.total)

    def rank(self, vectors) -> int:
        return len(row_echelon_int([v.nums for v in vectors])[1])

    def rref(self, vectors):
        """Canonical form of the span (see ``exact_rref``)."""
        return exact_rref([v.nums for v in vectors])


def _check_exact(t: type, what) -> None:
    if not issubclass(t, (int, Fraction)):
        raise ValueError(f"a {t.__name__} {what} in a rational space: use Fractions or ints")


class FloatBackend:
    """Floats: entrywise equality within FLOAT_TOL and numerical rank by SVD.

    A vector is a ``FloatVec``, the tuple of its floats.  A space's weights
    are its probabilities and its total is 1.0, so every method does the
    float arithmetic of the plain probability formula.
    """

    name = "float"
    zero = 0.0
    one = 1.0
    tol = FLOAT_TOL

    def __reduce__(self):
        return "FLOAT"

    def coerce(self, c) -> float:
        return float(c)

    def to_json(self, weight, total) -> float:
        return weight / total

    def canonical(self, weights, total):
        """(probabilities, 1.0): the weights over their total."""
        if total != 1.0:
            return tuple([w / total for w in weights]), 1.0
        return tuple(weights), total

    def sums_to_one(self, weights, total) -> bool:
        return abs(sum(weights) - total) <= PROB_SUM_TOL

    def ratio(self, weight, total) -> float:
        return weight / total

    def is_product(self, cell, factors, total) -> bool:
        expected = 1.0
        for f in factors:
            expected *= f / total
        return abs(cell / total - expected) <= self.tol

    def vector(self, values, size) -> FloatVec:
        """The vector of ``size`` floats or ints; a built ``FloatVec`` passes through."""
        if type(values) is FloatVec:
            return values
        values = tuple(values)
        if len(values) != size:
            raise ValueError("value count must equal outcome count")
        types = set(map(type, values))
        for t in types:
            _check_float(t, "value")
        return FloatVec(values if types == {float} else map(float, values))

    def values(self, u) -> tuple:
        return tuple(u)

    def indicator(self, idxs, size) -> FloatVec:
        vals = [0.0] * size
        for i in idxs:
            vals[i] = 1.0
        return FloatVec(vals)

    def centred_indicator(self, block, weight, total, size) -> FloatVec:
        """1_B - P(B), with P(B) = w_B / W as ``ratio`` gives it."""
        p = weight / total
        vals = [-p] * size
        inside = 1.0 - p
        for i in block:
            vals[i] = inside
        return FloatVec(vals)

    def add(self, u, v) -> FloatVec:
        return FloatVec([a + b for a, b in zip(u, v)])

    def sub(self, u, v) -> FloatVec:
        return FloatVec([a - b for a, b in zip(u, v)])

    def neg(self, u) -> FloatVec:
        return FloatVec([-a for a in u])

    def mul(self, u, v) -> FloatVec:
        return FloatVec([a * b for a, b in zip(u, v)])

    def times(self, u, c) -> FloatVec:
        _check_float(type(c), "scalar")
        return FloatVec([a * c for a in u])

    def lift(self, u, index) -> FloatVec:
        return FloatVec(map(u.__getitem__, index))

    def equal(self, a, b) -> bool:
        return all(abs(x - y) <= self.tol for x, y in zip(a, b))

    def is_zero(self, u) -> bool:
        return all(abs(v) <= self.tol for v in u)

    def levels(self, u):
        """Chain sorted values while neighbours are within GROUP_TOL.

        Chaining (connected components of the links) keeps the relation
        transitive, which plain thresholding would not.
        """
        order = sorted(range(len(u)), key=u.__getitem__)
        labels = [0] * len(u)
        level = 0
        for prev, cur in zip(order, order[1:]):
            if not abs(u[cur] - u[prev]) < GROUP_TOL:
                level += 1
            labels[cur] = level
        return labels

    def mean(self, u, space) -> float:
        return sum(p * v for p, v in zip(space.weights, u))

    def block_means(self, labels, block_weights, u, weights) -> FloatVec:
        sums = [0] * len(block_weights)
        for k, p, v in zip(labels, weights, u):
            sums[k] += p * v
        avgs = [s / w for s, w in zip(sums, block_weights)]
        return FloatVec(map(avgs.__getitem__, labels))

    def dot(self, u, v, space) -> float:
        import numpy as np

        return float(np.dot(np.asarray(space.weights) * np.asarray(u), np.asarray(v)))

    def project(self, u, basis, norms2, space) -> FloatVec:
        out = [0.0] * len(u)
        for b, n2 in zip(basis, norms2):
            c = self.dot(u, b, space) / n2
            out = [x + y * c for x, y in zip(out, b)]
        return FloatVec(out)

    def orthogonalize(self, vectors, space):
        basis = float_orthonormalize(vectors, space.weights)
        return [FloatVec(b.tolist()) for b in basis], [1.0] * len(basis)

    def rank(self, vectors) -> int:
        return float_rank(vectors)

    def rref(self, vectors):
        raise ValueError("canonical keys exist only in rational mode")


def _check_float(t: type, what) -> None:
    if issubclass(t, Fraction):
        raise ValueError(f"a Fraction {what} in a float space: use floats")


EXACT = ExactBackend()
FLOAT = FloatBackend()


_MIXED = "probabilities must be all Fractions or all floats"


def scale(probs):
    """(weights, W) of parsed probabilities, all Fractions or all floats.

    Fractions become integer weights over the lcm W of their denominators,
    floats (a float subclass as a plain float) stay themselves over W = 1.0.
    """
    if all(isinstance(p, Fraction) for p in probs):
        weights, total = to_int(probs)
        return tuple(weights), total
    if all(isinstance(p, float) for p in probs):
        return tuple(map(float, probs)), 1.0
    raise ValueError(_MIXED)


def backend_of(weights, total):
    """The backend of a space's weights over its total: all ints or all floats."""
    types = {type(total), *map(type, weights)}
    if types == {int}:
        return EXACT
    if types == {float}:
        return FLOAT
    if bool in types:
        raise ValueError("probabilities must be numbers, not booleans")
    raise ValueError(_MIXED)
