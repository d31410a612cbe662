"""Finite probability spaces, random variables, spanned subspaces, and
n-fold products with their coordinate maps.

A space is its weights over one total: integers over an integer total in
rational mode (the default for dyadic constructions), the probabilities
over 1.0 in float mode; ``probs`` is a view.  It picks the matching
``linalg`` backend once, when it is built, and every random variable and
every rank/equality decision downstream goes through that backend.
Probabilities from outside are scaled once into weights (``mk_space``);
a product multiplies the factors' weights and totals, so no space the
library builds from another passes through a ``Fraction``.  A
random variable holds the backend's vector of its values (integers over
one denominator in rational mode), so its arithmetic, inner products,
projections and spans are backend methods on those vectors.  A product
of n factors (``product``) carries one coordinate map per factor, from
the product's outcome indices to that factor's; every pull-back from a
factor, of a random variable or of a partition, reads that map.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from . import linalg
from .errors import CapacityError, DomainMismatchError, Frozen, derived

MAX_OUTCOMES = 1 << 20
MAX_EXPONENT = 4300  # the digits Python allows an int string; Fraction's cost grows with it


class ProbSpace(Frozen):
    """A finite outcome set with strictly positive probabilities.

    Built as ``ProbSpace(outcomes, weights, total)``: p_i = weights[i] /
    total.  In rational mode the weights and the total are ints, with
    gcd(total, *weights) divided out when the space is built; in float
    mode the weights are the probabilities and the total is 1.0 (other
    float weights are divided by their total).  So equal laws of one mode
    are equal spaces, and equal laws hash alike.  A mix of ints and
    floats, or a boolean, is rejected.  ``backend`` is the ``linalg``
    backend the weights select, and ``probs`` the probabilities as
    Fractions or floats, built on first read.  ``size``, the outcome
    count, is kept when the space is built; it is not a field.
    """

    outcomes: tuple
    weights: tuple
    total: object
    backend: object

    def __init__(self, outcomes, weights, total):
        _check_outcomes(outcomes, len(weights))
        backend = linalg.backend_of(weights, total)
        # not min(weights): a float NaN first would hide a later negative
        if not total > 0 or any(w <= 0 for w in weights):
            raise ValueError("probabilities must be strictly positive")
        weights, total = backend.canonical(weights, total)
        if not backend.sums_to_one(weights, total):
            raise ValueError(f"probabilities sum to {backend.ratio(sum(weights), total)}, not 1")
        self.__dict__.update(
            outcomes=outcomes, weights=weights, total=total, backend=backend, size=len(outcomes)
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the backend too: one outcome weighs 1 over 1 in either mode
        return self is other or (
            (self.outcomes, self.weights, self.total, self.backend.name)
            == (other.outcomes, other.weights, other.total, other.backend.name)
        )

    def __hash__(self):
        return hash((self.outcomes, self.weights, self.total))

    def __repr__(self):
        fields = f"outcomes={self.outcomes!r}, weights={self.weights!r}, total={self.total!r}"
        return f"ProbSpace({fields})"

    @derived
    def probs(self) -> tuple:
        return tuple([self.backend.ratio(w, self.total) for w in self.weights])

    @property
    def mode(self) -> str:
        return self.backend.name


def _check_count(outcomes) -> None:
    if len(outcomes) > MAX_OUTCOMES:
        raise CapacityError(f"{len(outcomes)} outcomes exceed the guard of {MAX_OUTCOMES}")


def _check_length(outcomes, n_probs: int) -> None:
    if len(outcomes) != n_probs:
        raise ValueError("outcomes and probs must have equal length")


def _check_outcomes(outcomes, n_probs: int) -> None:
    """The checks on the outcome list, the size guard before any work per outcome."""
    _check_length(outcomes, n_probs)
    if not outcomes:
        raise ValueError("a probability space needs at least one outcome")
    _check_count(outcomes)
    if len(set(outcomes)) != len(outcomes):
        raise ValueError("outcome identifiers must be unique")


def _exact(p) -> Fraction:
    """p as a Fraction; a decimal exponent past ``MAX_EXPONENT`` is refused unread."""
    if isinstance(p, str) and ("e" in p or "E" in p):
        exp = p.lower().rpartition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exp.isdecimal() and (len(exp) > 4 or int(exp) > MAX_EXPONENT):
            raise ValueError(f"probability {p!r} has an exponent beyond {MAX_EXPONENT}")
    return Fraction(p)


def mk_space(outcomes, probs) -> ProbSpace:
    """Build a space from raw lists: floats stay floats, anything else (an int, a
    Fraction, an "a/b" string) becomes a Fraction, and the probabilities are
    scaled once into weights (``linalg.scale``).

    A mix of floats and exact values is a ``ValueError``, and so is a
    boolean, which ``Fraction`` would read as 0 or 1.  Too many outcomes
    is a ``CapacityError`` before any probability is read, and lists of
    two lengths are a ``ValueError`` before any probability is parsed.
    """
    outcomes, probs = tuple(outcomes), tuple(probs)
    _check_count(outcomes)
    if any(isinstance(p, bool) for p in probs):
        raise ValueError("probabilities must be numbers, not booleans")
    _check_length(outcomes, len(probs))
    probs = tuple(p if isinstance(p, float) else _exact(p) for p in probs)
    _check_outcomes(outcomes, len(probs))
    return ProbSpace(outcomes, *linalg.scale(probs))


def float_twin(space: ProbSpace) -> ProbSpace:
    """The same outcomes with float probabilities w / W, each correctly rounded."""
    total = space.total
    return ProbSpace(space.outcomes, tuple([w / total for w in space.weights]), 1.0)


def mk_dyadic(n: int) -> ProbSpace:
    """Uniform space on the 2^n sign tuples, lexicographic with + before -."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 20:
        raise CapacityError(f"dyadic spaces are guarded at n <= 20, got {n}")
    outcomes = tuple("".join(t) for t in itertools.product("+-", repeat=n))
    return ProbSpace(outcomes, (1,) * (1 << n), 1 << n)


class RV(Frozen):
    """A random variable: one real value per outcome.

    Built as ``RV(space, values)``.  It holds its values as the space's
    backend vector ``vec``: in rational mode integer numerators over one
    denominator (``linalg.IntVec``), in float mode the tuple of floats.
    Values from outside are checked and converted once (a float in a
    rational space, or a Fraction in a float space, is a ``ValueError``); a
    vector the backend built passes through.  ``values`` is a view that
    builds the Fractions or floats on each read.
    """

    space: ProbSpace
    vec: object

    def __init__(self, space: ProbSpace, vec):
        self.__dict__.update(space=space, vec=vec)
        self.__post_init__()

    def __post_init__(self):
        """The conversion of ``vec``, a method of its own: perfbench counts
        the random variables built by wrapping it."""
        self.__dict__["vec"] = self.space.backend.vector(self.vec, self.space.size)

    @property
    def values(self) -> tuple:
        return self.space.backend.values(self.vec)

    def __add__(self, other: "RV") -> "RV":
        _same_space(self, other)
        return RV(self.space, self.space.backend.add(self.vec, other.vec))

    def __sub__(self, other: "RV") -> "RV":
        _same_space(self, other)
        return RV(self.space, self.space.backend.sub(self.vec, other.vec))

    def __mul__(self, other):
        if isinstance(other, RV):
            _same_space(self, other)
            return RV(self.space, self.space.backend.mul(self.vec, other.vec))
        return RV(self.space, self.space.backend.times(self.vec, other))

    __rmul__ = __mul__

    def __neg__(self) -> "RV":
        return RV(self.space, self.space.backend.neg(self.vec))

    def mean(self):
        return self.space.backend.mean(self.vec, self.space)


def _same_space(f, g):
    if f.space != g.space:
        raise DomainMismatchError("operands live on different spaces")


def constant(space: ProbSpace, c) -> RV:
    return RV(space, (space.backend.coerce(c),) * space.size)


def indicator(space: ProbSpace, idxs) -> RV:
    return RV(space, space.backend.indicator(idxs, space.size))


def coordinate_sign(space: ProbSpace, k: int) -> RV:
    """The k-th sign coordinate (1-based) on a dyadic space."""
    plus, minus = space.backend.coerce(1), space.backend.coerce(-1)
    vals = []
    for o in space.outcomes:
        if not 1 <= k <= len(o):
            raise ValueError(f"coordinate k={k} is not in 1..{len(o)}: outcomes have {len(o)} signs")
        ch = o[k - 1]
        if ch not in "+-":
            raise ValueError("coordinate_sign needs sign-string outcome ids")
        vals.append(plus if ch == "+" else minus)
    return RV(space, tuple(vals))


def walsh_character(space: ProbSpace, ks) -> RV:
    """Product of sign coordinates over the index set ks (1-based)."""
    f = constant(space, 1)
    for k in ks:
        f = f * coordinate_sign(space, k)
    return f


def inner(f: RV, g: RV):
    """The probability-weighted inner product E[fg]."""
    _same_space(f, g)
    return f.space.backend.dot(f.vec, g.vec, f.space)


def norm2(f: RV):
    return inner(f, f)


class Subspace:
    """A linear subspace of L2 of a space, held as an orthogonal basis.

    The exact squared norms of the basis vectors are stored alongside
    (unit norms would need square roots in rational mode); a float span
    is orthonormal, so its norms are 1.0.
    """

    def __init__(self, space: ProbSpace, basis, norms2):
        self.space = space
        self.basis = tuple(basis)
        self.norms2 = tuple(norms2)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def project(self, f: RV) -> RV:
        """Orthogonal projection of f onto this subspace."""
        if f.space != self.space:
            raise DomainMismatchError("operands live on different spaces")
        vecs = [b.vec for b in self.basis]
        return RV(self.space, self.space.backend.project(f.vec, vecs, self.norms2, self.space))

    def contains(self, f: RV) -> bool:
        return self.space.backend.equal(f.vec, self.project(f).vec)

    def canonical_key(self):
        """Canonical row-reduced form of the basis; equal iff same span.

        Only the rational backend has one.
        """
        return self.space.backend.rref([b.vec for b in self.basis])

    def equals(self, other: "Subspace") -> bool:
        if self.space != other.space:
            raise DomainMismatchError("subspaces on different spaces")
        return self.dim == other.dim and self.contains_subspace(other)

    def contains_subspace(self, other: "Subspace") -> bool:
        vecs = [b.vec for b in self.basis + other.basis]
        return self.space.backend.rank(vecs) == self.dim


def vecs_on(space: ProbSpace, vs) -> list:
    """The backend vectors of the RVs vs, each of which must live on space."""
    vecs = []
    for v in vs:
        if v.space != space:
            raise DomainMismatchError("operands live on different spaces")
        vecs.append(v.vec)
    return vecs


def span(vs, space: ProbSpace | None = None) -> Subspace:
    """Orthogonal basis of the linear span; empty input gives dimension 0.

    The space is that of the first vector unless given.
    """
    vs = list(vs)
    if space is None:
        if not vs:
            raise ValueError("empty span needs an explicit space")
        space = vs[0].space
    return span_on(space, vs)


def span_on(space: ProbSpace, vs) -> Subspace:
    basis, norms2 = space.backend.orthogonalize(vecs_on(space, vs), space)
    return Subspace(space, [RV(space, b) for b in basis], norms2=norms2)


def direct_sum(space: ProbSpace, parts) -> Subspace:
    """Sum of mutually orthogonal subspaces of space: their bases side by side."""
    parts = list(parts)
    for p in parts:
        if p.space != space:
            raise DomainMismatchError("a part of the direct sum lives on a different space")
    return Subspace(
        space,
        [b for p in parts for b in p.basis],
        [n2 for p in parts for n2 in p.norms2],
    )


class SpaceProduct(Frozen):
    """The product of n factor spaces with its coordinate maps.

    ``coords[k][i]`` is the outcome index in ``factors[k]`` of outcome i
    of ``space``: digit k of i in the mixed radix of the factor sizes,
    the first factor slowest.
    """

    factors: tuple
    space: ProbSpace
    coords: tuple

    def factor(self, k: int) -> ProbSpace:
        """Factor k (0-based); an index outside 0..n-1 is a ``ValueError``."""
        n = len(self.factors)
        if not 0 <= k < n:
            raise ValueError(f"factor k={k} is not in 0..{n - 1}: the product has {n} factors")
        return self.factors[k]

    def lift(self, k: int, f: RV) -> RV:
        """An RV on factor k, pulled back to the product through coordinate k."""
        if f.space != self.factor(k):
            raise DomainMismatchError(f"lift expects an RV on factor {k}")
        return RV(self.space, self.space.backend.lift(f.vec, self.coords[k]))


def product(*factors: ProbSpace) -> SpaceProduct:
    """The product of n factor spaces with its coordinate maps, built in one step.

    Outcome (o_1, ..., o_n) is the text "o_1,...,o_n", listed with the
    first factor slowest (``SpaceProduct.coords``).  Its weight is
    prod(w_k) over the total prod(W_k) of the factors' weights and totals:
    integers in rational mode, and in float mode the probabilities
    multiplied left to right, the same floats as nested two-factor
    products.  Probabilities multiply, so inner products factor.
    """
    if not factors:
        raise ValueError("a product needs at least one factor")
    size = prod(f.size for f in factors)
    if size > MAX_OUTCOMES:
        raise CapacityError(f"a product of {size} outcomes exceeds the guard of {MAX_OUTCOMES}")
    backend = factors[0].backend
    if any(f.backend is not backend for f in factors):
        raise DomainMismatchError("cannot mix rational and float factors")
    outcomes = tuple(map(",".join, itertools.product(*(f.outcomes for f in factors))))
    weights = tuple(map(prod, itertools.product(*(f.weights for f in factors))))
    space = ProbSpace(outcomes, weights, prod(f.total for f in factors))
    coords = tuple(zip(*itertools.product(*(range(f.size) for f in factors))))
    return SpaceProduct(factors, space, coords)


def space_to_json(space: ProbSpace) -> dict:
    to_json, total = space.backend.to_json, space.total
    probs = [to_json(w, total) for w in space.weights]
    return {"outcomes": list(space.outcomes), "probs": probs}


def space_from_json(obj: dict) -> ProbSpace:
    if type(obj) is not dict:
        raise ValueError("a space must be an object with outcomes and probs lists")
    outcomes = obj["outcomes"]
    if type(outcomes) is not list or not all(type(o) is str for o in outcomes):
        raise ValueError("outcomes must be a list of strings")
    probs = obj["probs"]
    if type(probs) is not list:
        raise ValueError("probs must be a list of probabilities")
    return mk_space(outcomes, probs)

