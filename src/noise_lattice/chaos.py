"""First chaos space, membership, atom splits and the up/down round trip.

The first chaos of an algebra B is the set of f with f = Q_x f + Q_x' f
for every x in B.  The atoms of B are independent and join to the
discrete field, so L2 of the space is the tensor product of the atoms'
L2 spaces (the Hoeffding/Efron-Stein decomposition), and the first chaos
is the direct sum over the atoms of their mean-zero parts.  ``atom_bases``
builds that basis from centred block indicators; ``first_chaos`` and
``spectrum.spectral_decompose`` both read it.

Atom k's vectors and the constants span every function of its blocks,
and the atoms join to the discrete field, so a certified algebra is
classical and never black.  ``chaos report`` prints that certificate and,
as ``dim_h1``, level 1 of ``spectrum.certified_levels``; the suites
``finite-classicality`` and ``first-level-equals-first-chaos`` check both
against the first chaos built here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConsistencyError, DomainMismatchError, PreconditionError
from .finmeas import RV, Subspace, direct_sum, norm2, span_on
from .ntba import NTBA, NTBAElement
from .sigma import cond_exp, sigma_of_rvs, trivial


@dataclass
class ChaosResult:
    """The first chaos of an algebra, as an orthogonal basis ``h1``."""

    h1: Subspace


def atom_bases(algebra: NTBA) -> list:
    """Per atom, the span of its mean-zero part, as one Subspace each.

    Atom k gives the centred indicators 1_B - P(B) of all its blocks but
    the last (the last is minus the sum of the others), orthogonalized by
    ``span_on``: b_k - 1 vectors.  Vectors of different atoms are already
    orthogonal, because the atoms are independent.
    """
    space = algebra.space
    one = space.backend.one
    out = []
    for atom in algebra.atoms:
        rows = []
        for block, p in zip(atom.blocks[:-1], atom.masses):
            vals = [-p] * space.size
            inside = one - p
            for i in block:
                vals[i] = inside
            rows.append(RV(space, tuple(vals)))
        out.append(span_on(space, rows))
    return out


def first_chaos(algebra: NTBA) -> ChaosResult:
    """The first chaos: every atom's centred block indicators together."""
    return ChaosResult(direct_sum(algebra.space, atom_bases(algebra)))


def chaos_membership(algebra: NTBA, f: RV) -> bool:
    """Whether f lies in the first chaos, by three conditions evaluated independently.

    Element i (by atom bitmask) stands for the join of its atoms.  The
    constructor has certified the atoms independent and joining to the
    discrete field, so meets and joins of elements are the intersections
    and unions of their atom sets: x ^ y is element i & j, x v y is i | j
    and x' is full ^ i.  Each element is projected once, 2^n ``cond_exp``
    calls in all, and no sigma-field meet or join is computed.  The
    conditions must agree; disagreement means the library itself is
    inconsistent and raises rather than returning a verdict, so the one
    bool returned is all three.
    """
    if f.space != algebra.space:
        raise DomainMismatchError("RV lives on a different space")
    backend = algebra.space.backend
    equal = backend.equal
    q = [cond_exp(e.realize(), f) for e in algebra.elements()]
    full = len(q) - 1
    pairs = list(itertools.combinations_with_replacement(range(len(q)), 2))

    # f = Q_x f + Q_x' f for all x
    cond_a = all(equal(f.vec, (q[i] + q[full ^ i]).vec) for i in range(len(q)))
    # Q_{x v y} f = Q_x f + Q_y f when x ^ y = 0
    cond_b = all(
        equal(q[i | j].vec, (q[i] + q[j]).vec) for i, j in pairs if i & j == 0
    )
    # Q_{x v y} f + Q_{x ^ y} f = Q_x f + Q_y f, and Q_0 f = 0
    cond_c = backend.is_zero(q[0].vec) and all(
        equal((q[i | j] + q[i & j]).vec, (q[i] + q[j]).vec) for i, j in pairs
    )

    if not (cond_a == cond_b == cond_c):
        raise ConsistencyError(
            f"membership conditions disagree: {cond_a}, {cond_b}, {cond_c}"
        )
    return cond_a


@dataclass
class SplitResult:
    ok: bool
    max_norm: float
    best_parts: list


def atomless_split(algebra: NTBA, f: RV, epsilon) -> SplitResult:
    """Look for elements x_1,...,x_m covering 1 with all ||Q_{x_i} f|| <= eps.

    A finite algebra is never atomless, so failure for small eps is the
    expected outcome and is reported (with the best achievable max-norm)
    rather than raised.  Shrinking an element never increases the
    projection norm, so the cover by single atoms is optimal and the best
    max-norm is the largest ||Q_{atom} f||.  Of the tied optimal covers
    the whole algebra as one group is preferred, then the single atoms.
    """
    space = algebra.space
    q0 = cond_exp(trivial(space), f)
    if not space.backend.is_zero(q0.vec):
        raise PreconditionError("atomless_split needs a zero-mean input")
    best = max(norm2(cond_exp(atom, f)) for atom in algebra.atoms)
    best_parts = [[k] for k in range(algebra.n_atoms)]
    whole = norm2(f)  # the atoms join to the discrete field: Q_1 f = f
    if whole <= best:
        best, best_parts = whole, [list(range(algebra.n_atoms))]
    ok = best <= space.backend.coerce(epsilon) ** 2
    elements = [algebra.element(g) for g in best_parts]
    return SplitResult(ok, float(best) ** 0.5, elements)


def up_down_roundtrip(algebra: NTBA, e: NTBAElement, chaos: ChaosResult) -> bool:
    """Project the first chaos of the algebra by Q_x, regenerate, and compare with x."""
    x = e.realize()
    images = [cond_exp(x, b) for b in chaos.h1.basis]
    return sigma_of_rvs(algebra.space, images) == x
