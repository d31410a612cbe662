"""Randomized property suites with reproducible witnesses.

Each suite draws its instances from a ``random.Random`` seeded by the
runner, checks one algebraic law, and reports failures as small dicts
(space, partitions, case index) sufficient to reproduce the case.  The
CLI command ``check all`` runs every suite, spread over the usable CPUs
by ``run_all``; the acceptance tests run the same functions at their
mandated case counts.

Three suites hold the library against dense conditional-expectation
matrices Q_x built from the blocks alone: the independence criterion
(Q_x Q_y = Q_y Q_x), the meet as a subspace intersection (L2 of the meet
has dimension N minus the rank of the stacked I - Q_p, and the stack
sends each of its basis vectors to 0) and the first chaos (the kernel of
the stacked I - Q_x - Q_x').  These oracles are integer matrices M over
one scale L, Q = M / L, summed from the space's integer weights, so they
take rational spaces only; their ``Fraction`` forms are test oracles in
``tests/conftest.py``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import signal
from fractions import Fraction
from math import comb, lcm
from operator import itemgetter, mul

from . import cofinite as cf
from . import instances as inst
from . import randsup as rs
from .chaos import chaos_membership, first_chaos, up_down_roundtrip
from .errors import NoiseLatticeError, Record
from .finmeas import (
    coordinate_sign,
    float_twin,
    indicator,
    inner,
    mk_dyadic,
    mk_space,
    norm2,
    product,
    space_to_json,
    span,
    span_on,
    walsh_character,
)
from .kernels import row_echelon_int
from .ntba import (
    NTBA,
    coarsen,
    mk_coordinate_ntba,
    mk_parity_ntba,
    presentation_problem,
    validate_family,
)
from .sigma import (
    SigmaField,
    cond_exp,
    commutes,
    discrete,
    independent,
    inf_family,
    join,
    meet,
    partition,
    sigma_of,
    sigma_of_rvs,
    subspace_of,
    sup_family,
    trivial,
)
from .spectrum import (
    certified_dims,
    certified_levels,
    k_restriction_additivity,
    sigma_tower_check,
    spectral_decompose,
    verify_spectral_identities,
)


class SuiteResult(Record):
    name: str
    cases: int
    failures: list

    def __init__(self, name: str, cases: int, failures: list | None = None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


def _partition_witness(part: SigmaField) -> list:
    return [list(b) for b in part.blocks]


def _algebra_witness(B: NTBA) -> dict:
    """An algebra in a failure record: its space and the blocks of each atom."""
    return {"space": space_to_json(B.space), "atoms": [_partition_witness(a) for a in B.atoms]}


# ---------------------------------------------------------------------------
# finmeas suites


def suite_span_rank(rng: random.Random, cases: int) -> SuiteResult:
    """span() dimension against the elimination rank oracle, both backends."""
    res = SuiteResult("span-rank-oracle", cases)
    for case in range(cases):
        mode = "rational" if case % 2 == 0 else "float"
        space = inst.rand_space(rng, 6, mode)
        vs = [inst.rand_rv(rng, space) for _ in range(rng.randint(0, 5))]
        got = span(vs, space=space).dim
        want = space.backend.rank([v.vec for v in vs])
        if got != want:
            res.failures.append(
                {"case": case, "space": space_to_json(space), "got": got, "want": want}
            )
    return res


def suite_product_inner(rng: random.Random, cases: int) -> SuiteResult:
    """Factor embeddings preserve inner products."""
    res = SuiteResult("product-embedding-isometry", cases)
    for case in range(cases):
        prod = product(inst.rand_space(rng, 4), inst.rand_space(rng, 4))
        f1, f2 = (inst.rand_rv(rng, prod.factors[0]) for _ in range(2))
        g1, g2 = (inst.rand_rv(rng, prod.factors[1]) for _ in range(2))
        ok = (
            inner(prod.lift(0, f1), prod.lift(0, f2)) == inner(f1, f2)
            and inner(prod.lift(1, g1), prod.lift(1, g2)) == inner(g1, g2)
            and inner(prod.lift(0, f1) * prod.lift(1, g1),
                      prod.lift(0, f2) * prod.lift(1, g2))
            == inner(f1, f2) * inner(g1, g2)
        )
        if not ok:
            res.failures.append({"case": case, "space": space_to_json(prod.space)})
    return res


def suite_walsh_orthonormal(rng: random.Random, cases: int) -> SuiteResult:
    """All sign-product characters are orthonormal on dyadic spaces."""
    res = SuiteResult("walsh-orthonormal", cases)
    for n in (1, 2, 3, 4):
        space = mk_dyadic(n)
        chars = [
            walsh_character(space, [k + 1 for k in range(n) if m >> k & 1])
            for m in range(1 << n)
        ]
        for a in range(len(chars)):
            for b in range(a, len(chars)):
                want = Fraction(1) if a == b else Fraction(0)
                if inner(chars[a], chars[b]) != want:
                    res.failures.append({"n": n, "pair": (a, b)})
    return res


# ---------------------------------------------------------------------------
# sigma suites


def _projection_matrix(part: SigmaField):
    """Dense conditional-expectation matrix as integers: (M, L) with Q = M / L.

    Rational spaces only; a float space is a ``ValueError``.  Each block
    weight w_B is summed directly from ``space.weights`` over the block,
    and L is the lcm of the block weights.  Row i holds w_j * (L / w_B) at
    each j in the block B of i and 0 elsewhere.  The rows of one block are
    one shared list, so a caller copies a row before mutating it.
    """
    space = part.space
    if space.mode != "rational":
        raise ValueError("the dense projection oracle takes rational spaces only")
    w = space.weights
    masses = [sum(w[i] for i in b) for b in part.blocks]
    scale = lcm(*masses)
    rows = [None] * space.size
    for b, mass in zip(part.blocks, masses):
        row = [0] * space.size
        k = scale // mass
        for j in b:
            row[j] = w[j] * k
        for i in b:
            rows[i] = row
    return rows, scale


def _projections_commute(x: SigmaField, y: SigmaField) -> bool:
    """Q_x Q_y = Q_y Q_x, compared as the integer products M_x M_y = M_y M_x.

    The scales cancel, because L_x L_y = L_y L_x.
    """
    (mx, _), (my, _) = _projection_matrix(x), _projection_matrix(y)

    def product(a, b):
        cols = list(zip(*b))
        return [sum(map(mul, row, col)) for row in a for col in cols]

    return product(mx, my) == product(my, mx)


def _operator_stack(groups, size: int) -> list:
    """Integer rows of the operators I - sum_{q in g} Q_q, stacked over the groups g.

    The rows of one group are scaled by L = lcm of its L_q, so row i is
    L e_i - sum_q (L / L_q) M_q[i]; the rank is unchanged.  A one-field
    group gives the rows L_p e_i - M_p[i] of I - Q_p.
    """
    stacked = []
    for group in groups:
        mats, scales = zip(*map(_projection_matrix, group))
        scale = lcm(*scales)
        ks = [scale // lq for lq in scales]
        for i in range(size):
            row = [0] * size
            for m, k in zip(mats, ks):
                row = [r - k * a for r, a in zip(row, m[i])]
            row[i] += scale
            stacked.append(row)
    return stacked


def _spans_kernel(stacked, nums) -> bool:
    """Whether the independent integer vectors nums span the kernel K of the stack S.

    Every row of S must have zero dot product with every vector, and S
    must have rank N - h for h vectors of N entries.  K is the orthogonal
    complement of the row space R of S, and the standard inner product is
    positive definite over Q, so R and K meet only in 0: rank(S) <= N - h
    once h independent vectors lie in K, with equality iff they span K.
    So S alone is eliminated, and only until it reaches N - h pivots.  Its
    rows go in reverse order, which reaches them soonest; the order
    changes the cost, not the rank.
    """
    rank = len(stacked[0]) - len(nums)
    return not any(sum(map(mul, row, v)) for row in stacked for v in nums) and (
        len(row_echelon_int(stacked[::-1], rank)[1]) == rank
    )


def suite_inf_subspaces(rng: random.Random, cases: int) -> SuiteResult:
    """L2 of a meet equals the intersection of the L2 spaces.

    The right side is the kernel of an independent oracle: the stacked
    complement projections (I - Q_p), each scaled to the integer rows
    L_p e_i - M_p[i].  The basis of L2 of the meet, its independent block
    indicators, must span that kernel (``_spans_kernel``).
    """
    res = SuiteResult("meet-subspace-intersection", cases)
    for case in range(cases):
        space = inst.rand_space(rng, 5)
        parts = [inst.rand_partition(rng, space) for _ in range(rng.randint(2, 3))]
        left = subspace_of(inf_family(parts))
        stacked = _operator_stack([(p,) for p in parts], space.size)
        if not _spans_kernel(stacked, [b.vec.nums for b in left.basis]):
            res.failures.append(
                {
                    "case": case,
                    "space": space_to_json(space),
                    "parts": [_partition_witness(p) for p in parts],
                }
            )
    return res


def suite_independence_criterion(rng: random.Random, cases: int) -> SuiteResult:
    """independent(x, y) iff commutes(x, y) and meet(x, y) is trivial.

    ``commutes`` is also held against the dense projection products.
    """
    res = SuiteResult("independence-criterion", cases)
    three = mk_space(["a", "b", "c"], [Fraction(1, 3)] * 3)
    witness_x = partition(three, [[0], [1, 2]])
    witness_y = partition(three, [[0, 1], [2]])
    if (
        independent(witness_x, witness_y)
        or commutes(witness_x, witness_y)
        or _projections_commute(witness_x, witness_y)
    ):
        res.failures.append({"case": "three-point-witness"})
    for case in range(cases):
        if case % 3 == 0:
            prod, xx, yy = inst.rand_independent_pair(rng)
            space = prod.space
        else:
            space = inst.rand_space(rng, 6)
            xx = inst.rand_partition(rng, space)
            yy = inst.rand_partition(rng, space)
        lhs = independent(xx, yy)
        commuting = commutes(xx, yy)
        rhs = commuting and meet(xx, yy) == trivial(space)
        if lhs != rhs or commuting != _projections_commute(xx, yy):
            res.failures.append(
                {
                    "case": case,
                    "space": space_to_json(space),
                    "x": _partition_witness(xx),
                    "y": _partition_witness(yy),
                }
            )
    return res


def suite_indep_lattice_identities(rng: random.Random, cases: int) -> SuiteResult:
    """Meet distributes over joins of parts of an independent pair."""
    res = SuiteResult("independent-quadruple-identities", cases)
    for case in range(cases):
        prod, x_full, y_full = inst.rand_independent_pair(rng)
        u1 = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[0]), 0)
        u2 = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[0]), 0)
        v1 = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[1]), 1)
        v2 = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[1]), 1)
        x = inst.lift_partition(prod, discrete(prod.factors[0]), 0)
        ycap = inst.lift_partition(prod, discrete(prod.factors[1]), 1)
        ok = meet(join(u1, v1), join(u2, v2)) == join(meet(u1, u2), meet(v1, v2))
        ok = ok and meet(join(u1, v1), x) == u1
        ok = ok and meet(join(u1, v1), ycap) == v1
        if not ok:
            res.failures.append({"case": case, "space": space_to_json(prod.space)})
    return res


def suite_projection_laws(rng: random.Random, cases: int) -> SuiteResult:
    """Conditional expectation is the orthogonal projection onto L2(x)."""
    res = SuiteResult("projection-laws", cases)
    for case in range(cases):
        space = inst.rand_space(rng, 6)
        x = inst.rand_partition(rng, space)
        f, g = inst.rand_rv(rng, space), inst.rand_rv(rng, space)
        qf = cond_exp(x, f)
        ok = cond_exp(x, qf).vec == qf.vec
        ok = ok and inner(qf, g) == inner(f, cond_exp(x, g))
        ok = ok and subspace_of(x).contains(qf)
        ok = ok and sigma_of(subspace_of(x)) == x
        if not ok:
            res.failures.append(
                {"case": case, "space": space_to_json(space), "x": _partition_witness(x)}
            )
    return res


def suite_product_membership(rng: random.Random, cases: int) -> SuiteResult:
    """z built from factor parts satisfies z = (x ^ z) v (y ^ z)."""
    res = SuiteResult("product-membership", cases)
    for case in range(cases):
        prod, _, _ = inst.rand_independent_pair(rng)
        x = inst.lift_partition(prod, discrete(prod.factors[0]), 0)
        y = inst.lift_partition(prod, discrete(prod.factors[1]), 1)
        u = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[0]), 0)
        v = inst.lift_partition(prod, inst.rand_partition(rng, prod.factors[1]), 1)
        z = join(u, v)
        if join(meet(x, z), meet(y, z)) != z:
            res.failures.append({"case": case, "space": space_to_json(prod.space)})
    return res


# ---------------------------------------------------------------------------
# ntba suites


def _recoding_permutation(n: int):
    """Outcome bijection sending pair signs to coordinates, on n+1 signs."""
    space = mk_dyadic(n + 1)
    index = {o: i for i, o in enumerate(space.outcomes)}
    perm = []
    for o in space.outcomes:
        signs = [1 if c == "+" else -1 for c in o]
        recoded = [signs[i] * signs[i + 1] for i in range(n)] + [signs[n]]
        perm.append(index["".join("+" if s == 1 else "-" for s in recoded)])
    return space, perm


def _float_image(B: NTBA) -> NTBA:
    """The same blocks on the space with the float probabilities."""
    space = float_twin(B.space)
    return NTBA(space, [partition(space, a.blocks) for a in B.atoms])


def _dependent_float_ntba() -> NTBA:
    """Float atoms of 2, 2 and 4 blocks that the constructor accepts and a complement pair refuses.

    Outcome (a, b, c) has probability w_c/4 + d(-1)^(a+b), with atom 2's
    block weights w = (0.7, 0.1, 0.1, 0.1) and d = 6e-10.  Every cell is
    within ``FLOAT_TOL`` = 1e-9 of the product of the atoms' masses, but
    the pair of atoms {0, 1} and atom 2 is off by d|1 - 4w_c|, 1.08e-9 at
    c = 0.
    """
    cells = list(itertools.product(range(2), range(2), range(4)))
    w = (0.7, 0.1, 0.1, 0.1)
    space = mk_space(
        ["".join(map(str, t)) for t in cells],
        [w[c] / 4 + 6e-10 * (-1) ** (a + b) for a, b, c in cells],
    )
    return NTBA(space, [
        partition(space, [[i for i, t in enumerate(cells) if t[k] == v] for v in range(b)])
        for k, b in enumerate((2, 2, 4))
    ])


def suite_ntba_constructions(rng: random.Random, cases: int) -> SuiteResult:
    """Constructed algebras validate; elements mirror atomset operations.

    Case 0's algebras and their float images pass the family audit, one
    fixed float presentation that only a complement pair refuses fails
    it, and ``ntba validate``'s route, which walks the complement pairs of
    float presentations, gives the audit's verdict on each.
    """
    res = SuiteResult("ntba-constructions", cases)
    fixed = [
        mk_coordinate_ntba(mk_dyadic(2)),
        mk_coordinate_ntba(mk_dyadic(3)),
        mk_parity_ntba(2),
        mk_parity_ntba(3),
    ]
    audited = [(B, True) for B in fixed + [_float_image(B) for B in fixed]]
    for B, valid in audited + [(_dependent_float_ntba(), False)]:
        verdict = validate_family(B.space, [e.realize() for e in B.elements()])
        problem = presentation_problem(B.space, B.atoms)
        if verdict.valid != valid or problem != verdict.reason:
            res.failures.append({"case": 0, "reason": verdict.reason, "validate": problem})
    for case in range(cases):
        algebras = fixed if case == 0 else [inst.rand_ntba(rng, 32)]
        for B in algebras:
            if case > 0 and B.n_atoms <= 4:
                verdict = validate_family(
                    B.space, [e.realize() for e in B.elements()]
                )
                if not verdict.valid:
                    res.failures.append({"case": case, "reason": verdict.reason})
                    continue
            e1, e2 = inst.rand_element(rng, B), inst.rand_element(rng, B)
            p1, p2 = e1.realize(), e2.realize()
            ok = meet(p1, p2) == e1.meet(e2).realize()
            ok = ok and join(p1, p2) == e1.join(e2).realize()
            comp = e1.complement().realize()
            ok = ok and meet(p1, comp) == trivial(B.space)
            ok = ok and join(p1, comp) == discrete(B.space)
            ok = ok and independent(p1, comp)
            if not ok:
                res.failures.append({"case": case, **_algebra_witness(B)})
    return res


def suite_generated_atoms(rng: random.Random, cases: int) -> SuiteResult:
    """Atoms of the algebra generated by two coarsenings are the nonzero meets."""
    res = SuiteResult("generated-subalgebra-atoms", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        g1 = inst.rand_atom_groups(rng, B)
        g2 = inst.rand_atom_groups(rng, B)
        b1, b2 = coarsen(B, g1), coarsen(B, g2)
        got = set()
        for a1 in b1.atoms:
            for a2 in b2.atoms:
                m = meet(a1, a2)
                if m != trivial(B.space):
                    got.add(m)
        want = {
            B.element(set(x) & set(y)).realize()
            for x in g1
            for y in g2
            if set(x) & set(y)
        }
        if got != want:
            res.failures.append({"case": case, "space": space_to_json(B.space)})
    return res


def suite_parity_recoding(rng: random.Random, cases: int) -> SuiteResult:
    """Pair-sign algebras match coordinate algebras under the sign recoding."""
    res = SuiteResult("parity-coordinate-recoding", cases)
    for n in (1, 2, 3, 4):
        space, perm = _recoding_permutation(n)
        par = mk_parity_ntba(n, space)
        coord = mk_coordinate_ntba(space)
        for k in range(n + 1):
            mapped = partition(
                space, [[perm[i] for i in b] for b in par.atoms[k].blocks]
            )
            if mapped != coord.atoms[k]:
                res.failures.append({"n": n, "atom": k})
    return res


# ---------------------------------------------------------------------------
# chaos suites


def suite_superadditivity(rng: random.Random, cases: int) -> SuiteResult:
    """||Q_x f||^2 + ||Q_y f||^2 <= ||Q_{x v y} f||^2 + ||Q_{x ^ y} f||^2."""
    res = SuiteResult("projection-superadditivity", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        f = inst.rand_rv(rng, B.space)
        x = inst.rand_element(rng, B).realize()
        y = inst.rand_element(rng, B).realize()
        lhs = norm2(cond_exp(x, f)) + norm2(cond_exp(y, f))
        rhs = norm2(cond_exp(join(x, y), f)) + norm2(cond_exp(meet(x, y), f))
        if lhs > rhs:
            res.failures.append(
                {"case": case, "space": space_to_json(B.space),
                 "x": _partition_witness(x), "y": _partition_witness(y)}
            )
    return res


def suite_membership_triequivalence(rng: random.Random, cases: int) -> SuiteResult:
    """The three first-chaos membership conditions agree on random inputs."""
    res = SuiteResult("membership-triequivalence", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 16)
        cr = first_chaos(B)
        candidates = [inst.rand_rv(rng, B.space, zero_mean=True)]
        if cr.h1.dim:
            candidates.append(cr.h1.basis[case % cr.h1.dim])
        for f in candidates:
            try:
                member = chaos_membership(B, f)
            except Exception as exc:  # ConsistencyError means the law failed
                res.failures.append({"case": case, "error": str(exc)})
                continue
            if cr.h1.contains(f) != member:
                res.failures.append({"case": case, "note": "verdict mismatch"})
    return res


def suite_split_identity(rng: random.Random, cases: int) -> SuiteResult:
    """Per element x: the split constraint kernel is (H_x - H_0) + (H_x' - H_0).

    The images (I - Q_x - Q_x') e_i span the operator's range, so N minus
    their rank is the kernel's dimension; the wanted span is the kernel
    when it has that dimension and the operator sends each of its basis
    vectors to 0.
    """
    res = SuiteResult("pairwise-split-identity", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 16)
        space = B.space
        e = inst.rand_element(rng, B)
        x, xc = e.realize(), e.complement().realize()
        images = []
        for i in range(space.size):
            ei = indicator(space, [i])
            images.append((ei - cond_exp(x, ei) - cond_exp(xc, ei)).vec)
        rank = space.backend.rank(images)
        direct = []
        for part in (x, xc):
            for b in part.blocks:
                ind = indicator(space, b)
                direct.append(ind - cond_exp(trivial(space), ind))
        want = span_on(space, direct)
        if space.size - rank != want.dim or not all(
            space.backend.is_zero((b - cond_exp(x, b) - cond_exp(xc, b)).vec)
            for b in want.basis
        ):
            res.failures.append(
                {"case": case, "space": space_to_json(space),
                 "x": _partition_witness(x)}
            )
    return res


def suite_chaos_additivity(rng: random.Random, cases: int) -> SuiteResult:
    """On the first chaos, projections add across disjoint elements."""
    res = SuiteResult("first-chaos-additivity", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        cr = first_chaos(B)
        if not cr.h1.dim:
            continue
        e1 = inst.rand_element(rng, B)
        e2 = B.element(
            set(inst.rand_element(rng, B).atomset) - set(e1.atomset)
        )
        x, yy = e1.realize(), e2.realize()
        j = join(x, yy)
        for b in cr.h1.basis:
            lhs = cond_exp(j, b)
            rhs = cond_exp(x, b) + cond_exp(yy, b)
            if lhs.vec != rhs.vec:
                res.failures.append(
                    {"case": case, "space": space_to_json(B.space)}
                )
                break
    return res


def suite_classicality(rng: random.Random, cases: int) -> SuiteResult:
    """Every first chaos here has the certified nonzero dim and generates the discrete field."""
    res = SuiteResult("finite-classicality", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        h1 = first_chaos(B).h1
        if (
            not h1.dim
            or h1.dim != certified_levels(B)[1]
            or sigma_of_rvs(B.space, h1.basis) != discrete(B.space)
        ):
            res.failures.append({"case": case, **_algebra_witness(B)})
    return res


def suite_up_down(rng: random.Random, cases: int) -> SuiteResult:
    """Up(Down(x)) = x for every element of small constructed algebras."""
    res = SuiteResult("up-down-roundtrip", cases)
    algebras = [
        mk_coordinate_ntba(mk_dyadic(n)) for n in (1, 2, 3, 4, 5)
    ] + [mk_parity_ntba(n) for n in (1, 2, 3, 4)]
    for _ in range(max(1, cases // 10)):
        B = inst.rand_ntba(rng, 32)
        if B.n_atoms <= 5:
            algebras.append(B)
    for B in algebras:
        cr = first_chaos(B)
        for e in B.elements():
            if not up_down_roundtrip(e, cr):
                res.failures.append({**_algebra_witness(B), "element": sorted(e.atomset)})
    return res


def suite_presentation_invariance(rng: random.Random, cases: int) -> SuiteResult:
    """Permuting the atom order leaves the first chaos unchanged."""
    res = SuiteResult("presentation-invariance", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        order = list(range(B.n_atoms))
        rng.shuffle(order)
        B2 = NTBA(B.space, [B.atoms[i] for i in order])
        if not first_chaos(B).h1.equals(first_chaos(B2).h1):
            res.failures.append({"case": case, "space": space_to_json(B.space)})
    return res


# ---------------------------------------------------------------------------
# spectrum suites


def suite_spectral_complete(rng: random.Random, cases: int) -> SuiteResult:
    """Eigenspaces are orthogonal, of the certified dims, fill the space, pass the identities."""
    res = SuiteResult("spectral-completeness", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        D = spectral_decompose(B)
        total = sum(p.eigenspace.dim for p in D.points)
        points, levels = certified_dims(B)
        ok = total == B.space.size
        ok = ok and points == [(p.generator, p.eigenspace.dim) for p in D.points]
        ok = ok and levels == D.level_dims()
        for p1, p2 in itertools.combinations(D.points, 2):
            for b1 in p1.eigenspace.basis:
                for b2 in p2.eigenspace.basis:
                    ok = ok and inner(b1, b2) == 0
        if ok and B.n_atoms <= 4:
            ok = not verify_spectral_identities(D)
        if not ok:
            res.failures.append({"case": case, **_algebra_witness(B)})
    return res


def suite_walsh_oracle(rng: random.Random, cases: int) -> SuiteResult:
    """Coordinate algebras diagonalize in the sign-character basis."""
    res = SuiteResult("walsh-eigenbasis-oracle", cases)
    for n in (1, 2, 3, 4, 5):
        space = mk_dyadic(n)
        B = mk_coordinate_ntba(space)
        D = spectral_decompose(B)
        if len(D.points) != 1 << n:
            res.failures.append({"n": n, "note": "point count"})
            continue
        for p in D.points:
            chi = walsh_character(space, [i + 1 for i in sorted(p.generator)])
            if p.eigenspace.dim != 1 or not p.eigenspace.contains(chi):
                res.failures.append({"n": n, "generator": sorted(p.generator)})
        dims = D.level_dims()
        if dims != {k: comb(n, k) for k in range(n + 1)} or certified_levels(B) != dims:
            res.failures.append({"n": n, "note": "level dims", "dims": dims})
    return res


def suite_spectral_invariance(rng: random.Random, cases: int) -> SuiteResult:
    """Recoded pair-sign algebras grade exactly like coordinate algebras."""
    res = SuiteResult("spectral-recoding-invariance", cases)
    for n in (1, 2, 3, 4):
        B = mk_parity_ntba(n)
        D = spectral_decompose(B)
        want = {k: comb(n + 1, k) for k in range(n + 2)}
        if D.level_dims() != want or certified_levels(B) != want or len(D.points) != 1 << (n + 1):
            res.failures.append({"n": n, "dims": D.level_dims()})
    return res


def suite_k_monotone(rng: random.Random, cases: int) -> SuiteResult:
    """Coarsening the atoms can only lower the grading, pointwise."""
    res = SuiteResult("grading-monotone-under-coarsening", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 32)
        groups = inst.rand_atom_groups(rng, B)
        B1 = coarsen(B, groups)
        D = spectral_decompose(B)
        D1 = spectral_decompose(B1)
        for p in D.points:
            v = p.eigenspace.basis[0]
            hit = [
                q
                for q in D1.points
                if q.eigenspace.contains(v)
            ]
            if len(hit) != 1 or len(hit[0].generator) > len(p.generator):
                res.failures.append(
                    {"case": case, "space": space_to_json(B.space),
                     "generator": sorted(p.generator)}
                )
                break
    return res


def suite_first_level_is_h1(rng: random.Random, cases: int) -> SuiteResult:
    """Level 1 of the spectral grading equals the first chaos space.

    The first chaos is taken from its definition: the kernel K of the
    stacked dense operators S = [I - Q_x - Q_x'] over the co-atoms x.
    Level 1's basis vectors must be linearly independent and span K
    (``_spans_kernel``).  Each basis vector must also split, f = Q_x f +
    Q_x' f, for every co-atom, and the basis has the certified level 1 dim
    that ``chaos report`` prints.
    """
    res = SuiteResult("first-level-equals-first-chaos", cases)
    for case in range(cases):
        B = inst.rand_ntba(rng, 64)
        space = B.space
        D = spectral_decompose(B)
        basis = D.levels[1].basis
        splits = [(B.coatom(k).realize(), B.atoms[k]) for k in range(B.n_atoms)]
        backend = space.backend
        stacked = _operator_stack(splits, space.size)
        ok = certified_levels(B)[1] == len(basis)
        ok = ok and backend.rank([f.vec for f in basis]) == len(basis)
        ok = ok and _spans_kernel(stacked, [f.vec.nums for f in basis])
        ok = ok and all(
            backend.equal(f.vec, (cond_exp(x, f) + cond_exp(xc, f)).vec)
            for f in basis
            for x, xc in splits
        )
        if not ok:
            res.failures.append({"case": case, **_algebra_witness(B)})
    return res


def suite_k_additivity(rng: random.Random, cases: int) -> SuiteResult:
    """The grading adds across the restriction to an element and its complement."""
    res = SuiteResult("grading-restriction-additivity", cases)
    done = 0
    while done < cases:
        B = inst.rand_ntba(rng, 32)
        if B.n_atoms < 2:
            continue
        k = rng.randint(1, B.n_atoms - 1)
        idxs = list(range(B.n_atoms))
        rng.shuffle(idxs)
        e = B.element(idxs[:k])
        if not k_restriction_additivity(e):
            res.failures.append(
                {"case": done, "space": space_to_json(B.space),
                 "element": sorted(e.atomset)}
            )
        done += 1
    return res


def suite_sigma_tower(rng: random.Random, cases: int) -> SuiteResult:
    """Higher levels generate no more than the first level."""
    res = SuiteResult("sigma-tower", cases)
    algebras = [mk_coordinate_ntba(mk_dyadic(3)), mk_parity_ntba(3)]
    for _ in range(cases):
        algebras.append(inst.rand_ntba(rng, 32))
    for B in algebras:
        if not sigma_tower_check(spectral_decompose(B)):
            res.failures.append(_algebra_witness(B))
    return res


# ---------------------------------------------------------------------------
# cofinite suites


def suite_cofinite_laws(rng: random.Random, cases: int) -> SuiteResult:
    """Lattice laws for the symbolic algebra.

    The elements with pair indices below 6 and tails up to 7 are closed
    under meet and join, so every meet and join of two of them, in both
    orders, is computed once into two tables of element indices, as
    ``ntba.validate_family`` does; a result outside the set is a failure.
    The binary laws run exhaustively over the tables; the ternary laws
    (associativity, distributivity) are lookups, run exhaustively over a
    smaller probe set inside the large one and on random triples from it.
    """
    res = SuiteResult("cofinite-lattice-laws", cases)
    big = cf.bounded_elements(6, 7)
    ids = range(len(big))
    index = {e: i for i, e in enumerate(big)}
    M = [[index.get(cf.cof_meet(a, b)) for b in big] for a in big]
    J = [[index.get(cf.cof_join(a, b)) for b in big] for a in big]
    for law, table in (("meet-closed", M), ("join-closed", J)):
        for a, b in itertools.product(ids, repeat=2):
            if table[a][b] is None:
                res.failures.append(
                    {"law": law, "a": cf.format_elem(big[a]), "b": cf.format_elem(big[b])}
                )
    if res.failures:
        return res  # the laws below look results up in the tables
    for a in ids:
        if M[a][a] != a or J[a][a] != a:
            res.failures.append({"law": "idempotent", "a": cf.format_elem(big[a])})
    for a, b in itertools.combinations(ids, 2):
        if M[a][b] != M[b][a]:
            res.failures.append({"law": "meet-commutative", "a": cf.format_elem(big[a])})
        if J[a][b] != J[b][a]:
            res.failures.append({"law": "join-commutative", "a": cf.format_elem(big[a])})
        if M[a][J[a][b]] != a or J[a][M[a][b]] != a:
            res.failures.append(
                {"law": "absorption", "a": cf.format_elem(big[a]), "b": cf.format_elem(big[b])}
            )
    def triple_laws(a, b, c, tag):
        ok = M[a][M[b][c]] == M[M[a][b]][c]
        ok = ok and J[a][J[b][c]] == J[J[a][b]][c]
        ok = ok and M[a][J[b][c]] == J[M[a][b]][M[a][c]]
        if not ok:
            res.failures.append(
                {"law": "ternary", "tag": tag,
                 "triple": [cf.format_elem(big[t]) for t in (a, b, c)]}
            )
    small = [index[e] for e in cf.bounded_elements(3, 4)]
    for a, b, c in itertools.product(small, repeat=3):
        triple_laws(a, b, c, "exhaustive")
    for case in range(cases):
        triple_laws(rng.choice(ids), rng.choice(ids), rng.choice(ids), case)
    return res


def suite_cofinite_truncation(rng: random.Random, cases: int) -> SuiteResult:
    """Symbolic meet/join against partition computations at finite truncation.

    Elements with pair indices and tails inside the window realize as
    sigma-fields on the n+1 sign space; the realization must be a lattice
    embedding.  This is the module's ground-truth oracle.  Each distinct
    element is realized once; the partition meet and join run for every
    case.
    """
    res = SuiteResult("cofinite-truncation-oracle", cases)
    n = 6
    P = mk_parity_ntba(n)
    space = P.space
    signs = {j: coordinate_sign(space, j) for j in range(1, n + 2)}
    pairs = {k: signs[k] * signs[k + 1] for k in range(1, n + 1)}
    # sigma(f_1, ..., f_k) is the join of the sigma(f_i), each built once
    sign_fields = {j: sigma_of_rvs(space, [g]) for j, g in signs.items()}
    pair_fields = {k: sigma_of_rvs(space, [g]) for k, g in pairs.items()}
    bottom = trivial(space)
    realized = {}  # the draws repeat few elements, so each is realized once

    def realize(e: cf.CofElem) -> SigmaField:
        got = realized.get(e)
        if got is None:
            fields = [bottom] + [pair_fields[k] for k in e.ys.indices_up_to(n)]
            if e.tail is not None:
                fields.extend(sign_fields[j] for j in range(e.tail, n + 2))
            got = realized[e] = sup_family(fields)
        return got

    def rand_elem() -> cf.CofElem:
        tail = rng.choice([None, None, rng.randint(1, n + 1)])
        idxs = [k for k in range(1, n + 1) if rng.random() < 0.4]
        return cf.cof_elem(tail, cf.finite_set(idxs))

    for case in range(cases):
        a, b = rand_elem(), rand_elem()
        ok = realize(cf.cof_meet(a, b)) == meet(realize(a), realize(b))
        ok = ok and realize(cf.cof_join(a, b)) == join(realize(a), realize(b))
        if not ok:
            res.failures.append(
                {"case": case, "a": cf.format_elem(a), "b": cf.format_elem(b)}
            )
    return res


def suite_cofinite_complements(rng: random.Random, cases: int) -> SuiteResult:
    """Complements verify and are unique; the completion is the algebra itself."""
    res = SuiteResult("cofinite-complements-completion", cases)
    for e, note in cf.complement_problems():
        res.failures.append({"elem": cf.format_elem(e), "note": note})
    return res


def suite_cofinite_limits(rng: random.Random, cases: int) -> SuiteResult:
    """Fixed monotone limits are the written-out elements; the two limit checks behave."""
    res = SuiteResult("cofinite-monotone-limits", cases)
    limits = [
        (cf.PrefixJoins(cf.FULL_SET), "Y{;1}", "Cl(B)\\B"),
        (cf.PrefixJoins(cf.progression(2)), "Y(2k)", "Cl(B)\\B"),
        (cf.PrefixJoins(cf.finite_set([1, 3, 4])), "y1|y3|y4", "B"),
        (cf.TailChain(1), "0", "B"),
        (cf.TailChain(3), "0", "B"),
        (cf.ComplementChain(cf.FULL_SET), "0", "B"),
        (cf.ComplementChain(cf.progression(2)), "Y(2k+1)", "Cl(B)\\B"),
        (cf.EventuallyConstant((cf.y(1), cf.y(1))), "y1", "B"),
    ]
    for d, text, where in limits:
        lim = cf.monotone_limit(d)
        if lim != cf.parse_elem(text) or cf.closure_membership(lim) != where:
            res.failures.append({"descriptor": repr(d), "limit": cf.format_elem(lim)})
    for case in range(cases):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
        per = [rng.randint(0, 1) for _ in range(rng.randint(1, 3))]
        i = cf.natset(bits, per)
        seq = cf.PrefixJoins(i)
        crit = cf.completion_criterion_check(seq)
        expect_holds = i.is_finite
        if crit.holds != expect_holds:
            res.failures.append({"case": case, "set": str(i), "note": "criterion"})
        dl = cf.double_limit_check(seq)
        if not dl.equal:
            res.failures.append({"case": case, "set": str(i), "note": "double-limit"})
    return res


# ---------------------------------------------------------------------------
# randsup suites


def suite_randsup_distribution(rng: random.Random, cases: int) -> SuiteResult:
    """Sampled elements follow the product law (chi-square).

    ``cases`` is the trial count here; the registry default is 1e5.
    """
    trials = max(2_000, cases)
    res = SuiteResult("randsup-distribution", trials)
    for n, p in [(2, 0.1), (3, 0.5), (2, 0.9), (4, 0.5)]:
        pv, _, _ = rs.element_distribution_pvalue(n, p, seed=rng.randrange(1 << 31), trials=trials)
        if pv <= 0.001:
            res.failures.append({"n": n, "p": p, "pvalue": pv})
    return res


def suite_randsup_union_bound(rng: random.Random, cases: int) -> SuiteResult:
    """Swallowing probability matches the closed form and respects the bound.

    ``cases`` is the trial count here; the registry default is 4e4.
    """
    trials = max(2_000, cases)
    res = SuiteResult("randsup-union-bound", trials)
    configs = [
        ((4, 4, 4), (0.1, 0.1, 0.1)),
        ((3, 3), (0.4, 0.4)),
        ((2,), (0.25,)),
        ((5, 6, 6, 8), (0.05, 0.1, 0.15, 0.2)),
    ]
    for counts, ps in configs:
        cfg = rs.SampleConfig(counts, ps, seed=rng.randrange(1 << 31), trials=trials)
        rep = rs.union_bound_report(cfg)
        if not rep.ok:
            res.failures.append({"ps": ps, "estimate": rep.estimate, "exact": rep.exact})
    return res


def suite_randsup_reproducible(rng: random.Random, cases: int) -> SuiteResult:
    """Identical seeds give identical trajectories."""
    res = SuiteResult("randsup-reproducibility", cases)
    seed = rng.randrange(1 << 31)
    cfg = rs.SampleConfig((3, 4, 5), (0.2, 0.3, 0.1), seed=seed, trials=200)
    trajectories = rs.run_join_process(cfg)
    if trajectories != rs.run_join_process(cfg):
        res.failures.append({"seed": seed})
    for t in trajectories[:20]:
        if not all(a <= b for a, b in zip(t, t[1:])):
            res.failures.append({"seed": seed, "note": "not monotone"})
    return res


# ---------------------------------------------------------------------------
# registry and runner

SUITES = [
    (suite_span_rank, 60),
    (suite_product_inner, 200),
    (suite_walsh_orthonormal, 1),
    (suite_inf_subspaces, 100),
    (suite_independence_criterion, 200),
    (suite_indep_lattice_identities, 200),
    (suite_projection_laws, 100),
    (suite_product_membership, 60),
    (suite_ntba_constructions, 20),
    (suite_generated_atoms, 30),
    (suite_parity_recoding, 1),
    (suite_superadditivity, 500),
    (suite_membership_triequivalence, 15),
    (suite_split_identity, 20),
    (suite_chaos_additivity, 30),
    (suite_classicality, 40),
    (suite_up_down, 10),
    (suite_presentation_invariance, 20),
    (suite_spectral_complete, 20),
    (suite_walsh_oracle, 1),
    (suite_spectral_invariance, 1),
    (suite_k_monotone, 20),
    (suite_first_level_is_h1, 30),
    (suite_k_additivity, 50),
    (suite_sigma_tower, 5),
    (suite_cofinite_laws, 200),
    (suite_cofinite_truncation, 300),
    (suite_cofinite_complements, 1),
    (suite_cofinite_limits, 60),
    (suite_randsup_distribution, 100_000),
    (suite_randsup_union_bound, 40_000),
    (suite_randsup_reproducible, 1),
]


def _run_queued(queue: int, jobs: list, seed: int) -> list:
    """(index, result) for each suite index read from the ``queue`` pipe.

    A suite that raises has its exception as its result, and the rest of
    the queue is drained, so every process stops after its current suite.
    Indices are read in order, so each one below the raising suite has
    been read already and still runs.
    """
    done = []
    while chunk := os.read(queue, 1):
        i = chunk[0]
        fn, n = jobs[i]
        try:
            done.append((i, fn(random.Random(f"{seed}:{fn.__name__}"), n)))
        except Exception as exc:
            done.append((i, exc))
            while os.read(queue, len(jobs)):
                pass
    return done


def _worker(queue: int, out: int, jobs: list, seed: int) -> None:
    """A forked process: run queued suites, send the pickled results through ``out``, exit.

    It never returns, so none of its caller's code runs twice.  It exits
    with status 1, and leaves ``out`` short of a whole pickle, if anything
    raises, a result that cannot be pickled included.
    """
    code = 1
    try:
        payload = pickle.dumps(_run_queued(queue, jobs, seed))
        with open(out, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _read_all(fd: int) -> bytes:
    with open(fd, "rb", closefd=False) as pipe:
        return pipe.read()


def run_all(seed: int, cases: int | None = None) -> list:
    """Run every suite; per-suite case counts scale with ``cases``.

    The suites run on every usable CPU.  The caller and one forked process
    per extra CPU read suite indices from one pipe until it is empty, and
    each child sends its results back pickled through a pipe of its own.
    The results are put back in ``SUITES`` order, so the report does not
    depend on which process ran which suite.  If suites raise, the
    exception of the first of them in ``SUITES`` order is raised here, as
    in a serial loop.  A child that ends without sending its results is a
    ``NoiseLatticeError``.  Every child is reaped before this returns or
    raises.
    """
    if cases is not None and cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    # the sampling suites need numpy, loaded here once, before the forks; under
    # numpy 2.x that leaves numpy.random (15 ms, 6.1 MB of RSS) unloaded, so only
    # a process that runs a sampling suite pays for it, on first use
    import numpy  # noqa: F401

    jobs = [(fn, d if cases is None else min(d, cases)) for fn, d in SUITES]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    queue, fill = os.pipe()
    os.write(fill, bytes(range(len(jobs))))
    os.close(fill)
    pipes, statuses = {}, {}  # child pid -> read end of its result pipe; its wait status
    try:
        for _ in range(min(cpus, len(jobs)) - 1):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(queue, out, jobs, seed)
            os.close(out)
            pipes[pid] = fd
        done = _run_queued(queue, jobs, seed)
        sent = {pid: _read_all(fd) for pid, fd in pipes.items()}
    except BaseException:
        for pid in pipes:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, fd in pipes.items():
            os.close(fd)
            statuses[pid] = os.waitpid(pid, 0)[1]
    for pid, payload in sent.items():
        try:
            done += pickle.loads(payload)
        except Exception:
            code = os.waitstatus_to_exitcode(statuses[pid])
            raise NoiseLatticeError(
                f"a check worker process exited with status {code} before sending its results"
            ) from None
    results = [result for _, result in sorted(done, key=itemgetter(0))]
    raised = next((r for r in results if isinstance(r, Exception)), None)
    if raised is not None:
        raise raised
    return results
