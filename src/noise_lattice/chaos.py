"""First chaos space, membership and the up/down round trip.

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

from .errors import ConsistencyError, DomainMismatchError, Record
from .finmeas import RV, Subspace, direct_sum, span_on
from .ntba import NTBA, NTBAElement
from .sigma import cond_exp, sigma_of_rvs


class ChaosResult(Record):
    """The first chaos of ``algebra``, as an orthogonal basis ``h1``."""

    h1: Subspace
    algebra: NTBA


def atom_bases(algebra: NTBA) -> list:
    """Per atom, the span of its mean-zero part, as one Subspace each.

    Atom k gives the centred indicators 1_B - P(B) of all its blocks but
    the last (the last is minus the sum of the others), built from the
    block weights over the space's total and orthogonalized by
    ``span_on``: b_k - 1 vectors.  Vectors of different atoms are already
    orthogonal, because the atoms are independent.
    """
    space = algebra.space
    centred = space.backend.centred_indicator
    total, size = space.total, space.size
    out = []
    for atom in algebra.atoms:
        blocks = zip(atom.blocks[:-1], atom.weights)
        out.append(span_on(space, [RV(space, centred(b, w, total, size)) for b, w in blocks]))
    return out


def first_chaos(algebra: NTBA) -> ChaosResult:
    """The first chaos: every atom's centred block indicators together."""
    return ChaosResult(direct_sum(algebra.space, atom_bases(algebra)), algebra)


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


def up_down_roundtrip(e: NTBAElement, chaos: ChaosResult) -> bool:
    """Project the first chaos of e's algebra by Q_x, regenerate, and compare with x.

    ``chaos`` is ``first_chaos(e.algebra)``, built once per algebra by the
    caller; the first chaos of another algebra is a ``DomainMismatchError``.
    """
    if chaos.algebra is not e.algebra:
        raise DomainMismatchError("the first chaos belongs to another algebra")
    x = e.realize()
    images = [cond_exp(x, b) for b in chaos.h1.basis]
    return sigma_of_rvs(e.algebra.space, images) == x
