"""Shared oracles for the test suite.

These deliberately recompute library results by other routes: sigma-fields
as explicit set systems, projections as dense matrices, the first chaos by
elimination, the best atomless cover by enumerating every cover,
eventually periodic sets one position at a time, the cofinite lattice
by its (tail, pair indices) case analysis, and block masses, block
averages, inner products and the product rules summed one outcome at a
time on the probabilities themselves (Fractions in rational mode) rather
than on integer weights, random-variable arithmetic, projections and
spans computed one outcome at a time on the values rather than on integer
vectors, a family of sigma-fields audited by recomputing every meet
and join it reads, first-chaos membership decided on sigma-field meets
and joins rather than on atom bitmasks, and product spaces and random
atom families built by chaining two-factor products, indicators and
centred block indicators written out value by value, and the random
instances drawn with ``randint`` and ``randrange``.  Tests compare the
production path against these.
"""

import itertools
import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from noise_lattice.cofinite import range_set, tail_set
from noise_lattice.errors import ConsistencyError, DomainMismatchError
from noise_lattice.finmeas import (
    RV,
    ProbSpace,
    SpaceProduct,
    Subspace,
    constant,
    float_twin,
    indicator,
    mk_space,
    product,
    span_on,
)
from noise_lattice.kernels import row_echelon_int
from noise_lattice.linalg import exact_rref, float_nullspace, to_int
from noise_lattice.ntba import NTBA, FamilyVerdict
from noise_lattice.sigma import (
    SigmaField,
    cond_exp,
    discrete,
    independent,
    join,
    lift_partition,
    meet,
    partition,
    trivial,
)


def measurable_sets(x: SigmaField) -> set:
    """All measurable sets of a partition, as frozensets of outcome indices."""
    out = set()
    nb = x.n_blocks
    for mask in range(1 << nb):
        s = frozenset(
            i for bi in range(nb) if mask >> bi & 1 for i in x.blocks[bi]
        )
        out.add(s)
    return out


def partition_from_sets(space: ProbSpace, sets) -> SigmaField:
    """The partition whose measurable sets are exactly the given system."""
    n = space.size
    blocks = []
    seen = set()
    for i in range(n):
        if i in seen:
            continue
        block = set(range(n))
        for s in sets:
            block &= s if i in s else set(range(n)) - s
        blocks.append(sorted(block))
        seen |= block
    return partition(space, blocks)


def meet_oracle(x: SigmaField, y: SigmaField) -> SigmaField:
    """Intersection sigma-field computed on raw set systems."""
    return partition_from_sets(x.space, measurable_sets(x) & measurable_sets(y))


def join_oracle(x: SigmaField, y: SigmaField) -> SigmaField:
    """Generated sigma-field: close the union of the set systems."""
    sets = measurable_sets(x) | measurable_sets(y)
    return partition_from_sets(x.space, sets)


def projection_matrix(x: SigmaField):
    """Dense conditional-expectation matrix (rows: output coordinates)."""
    space = x.space
    n = space.size
    rows = [[Fraction(0)] * n for _ in range(n)]
    for b in x.blocks:
        mass = sum(space.probs[i] for i in b)
        for i in b:
            for j in b:
                rows[i][j] = space.probs[j] / mass
    return rows


def masses_oracle(x: SigmaField) -> tuple:
    """Block probabilities summed outcome by outcome."""
    masses = [0] * x.n_blocks
    for k, p in zip(x.labels, x.space.probs):
        masses[k] += p
    return tuple(masses)


def cond_exp_oracle(x: SigmaField, f: RV) -> tuple:
    """Values of E[f | x]: per block, the sum of p_i f_i over its mass."""
    sums = [0] * x.n_blocks
    for k, p, v in zip(x.labels, x.space.probs, f.values):
        sums[k] += p * v
    avgs = [s / mass for s, mass in zip(sums, masses_oracle(x))]
    return tuple(map(avgs.__getitem__, x.labels))


def dot_oracle(f: RV, g: RV):
    """E[fg] as one sum of p_i f_i g_i."""
    return sum(p * a * b for p, a, b in zip(f.space.probs, f.values, g.values))


# The per-outcome forms of the random-variable operations: entrywise on
# the values (Fractions, or floats in the same arithmetic and order as the
# library's float route), one outcome and one basis vector at a time.


def add_oracle(f: RV, g: RV) -> tuple:
    return tuple(a + b for a, b in zip(f.values, g.values))


def sub_oracle(f: RV, g: RV) -> tuple:
    return tuple(a - b for a, b in zip(f.values, g.values))


def mul_oracle(f: RV, g: RV) -> tuple:
    return tuple(a * b for a, b in zip(f.values, g.values))


def times_oracle(f: RV, c) -> tuple:
    return tuple(a * c for a in f.values)


def neg_oracle(f: RV) -> tuple:
    return tuple(-a for a in f.values)


def mean_oracle(f: RV):
    return sum(p * v for p, v in zip(f.space.probs, f.values))


def inner_oracle(f: RV, g: RV):
    """E[fg]: the sum of p_i f_i g_i, in float mode numpy's weighted dot."""
    if f.space.mode == "float":
        weighted = np.asarray(f.space.probs) * np.asarray(f.values)
        return float(np.dot(weighted, np.asarray(g.values)))
    return dot_oracle(f, g)


def project_oracle(sub: Subspace, f: RV) -> tuple:
    """From zero, add <f, b> / |b|^2 times b for one basis vector b at a time."""
    out = (sub.space.backend.zero,) * sub.space.size
    for b, n2 in zip(sub.basis, sub.norms2):
        c = inner_oracle(f, b) / n2
        out = tuple(o + x * c for o, x in zip(out, b.values))
    return out


def indicator_oracle(space: ProbSpace, idxs) -> tuple:
    """The values of 1_idxs: the backend's one at the indices, its zero elsewhere."""
    idxs = set(idxs)
    backend = space.backend
    return tuple(backend.one if i in idxs else backend.zero for i in range(space.size))


def centred_oracle(space: ProbSpace, block) -> tuple:
    """The values of 1_B - P(B), with P(B) summed from the probabilities over B.

    In float mode the sum runs in outcome order from 0, as the block
    weights do, so the floats are the library's own.
    """
    p = sum(space.probs[i] for i in block)
    inside = space.backend.one - p
    return tuple(inside if i in block else -p for i in range(space.size))


def lift_oracle(f: RV, index) -> tuple:
    """The values of f read at index[i] for every outcome i."""
    return tuple(f.values[i] for i in index)


def gram_schmidt_oracle(vs) -> list:
    """Unnormalized weighted Gram-Schmidt on Fraction values, zero remainders dropped."""
    probs = vs[0].space.probs

    def wdot(u, v):
        return sum(p * a * b for p, a, b in zip(probs, u, v))

    basis = []
    for v in vs:
        w = list(v.values)
        for b in basis:
            c = wdot(w, b) / wdot(b, b)
            w = [x - c * y for x, y in zip(w, b)]
        if any(w):
            basis.append(w)
    return basis


def exact_rank(rows) -> int:
    """The rank of rows of Fractions or ints, each row scaled to integers first."""
    return len(row_echelon_int([to_int(r)[0] for r in rows])[1])


def rref_oracle(rows) -> tuple:
    """The reduced row echelon form by Fraction Gauss-Jordan elimination, zero rows dropped."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return tuple(tuple(r) for r in m[:rank])


def exact_nullspace(rows):
    """Basis of {v : M v = 0} over the rationals, deterministic order.

    One basis vector per free column, with that coordinate set to 1.  None
    when every row is zero: the kernel is the whole space.
    """
    int_rows = [to_int(r)[0] for r in rows]
    int_rows = [r for r in int_rows if any(r)]
    if not int_rows:
        return None
    nc = len(int_rows[0])
    rref = exact_rref(int_rows)
    piv = [next(c for c, x in enumerate(r.nums) if x) for r in rref]
    pivset = set(piv)
    basis = []
    for free in range(nc):
        if free in pivset:
            continue
        v = [Fraction(0)] * nc
        v[free] = Fraction(1)
        for r, c in zip(rref, piv):
            v[c] = -Fraction(r.nums[free], r.den)
        basis.append(v)
    return basis


def level_sets_oracle(space: ProbSpace, rvs) -> SigmaField:
    """The partition by the tuple of exact values: one block per distinct tuple."""
    blocks: dict = {}
    for i, key in enumerate(zip(*(f.values for f in rvs))):
        blocks.setdefault(key, []).append(i)
    return partition(space, list(blocks.values()))


def cond_independent_oracle(x: SigmaField, y: SigmaField, z: SigmaField) -> bool:
    """P(a & b | c) = P(a | c) P(b | c) on every block triple, on the masses."""
    space = x.space
    equal = space.backend.equal
    table: dict = {}
    for key, p in zip(zip(x.labels, y.labels), space.probs):
        table[key] = table.get(key, 0) + p
    xs_in = [[] for _ in range(z.n_blocks)]
    ys_in = [[] for _ in range(z.n_blocks)]
    for part, inside in ((x, xs_in), (y, ys_in)):
        masses = masses_oracle(part)
        for k, c in dict(zip(part.labels, z.labels)).items():
            inside[c].append((k, masses[k]))
    for c, pc in enumerate(masses_oracle(z)):
        ys_given_c = [(b, pb / pc) for b, pb in ys_in[c]]
        for a, pa in xs_in[c]:
            pa_c = pa / pc
            for b, pb_c in ys_given_c:
                pab = table.get((a, b))
                if pab is None or not equal((pab / pc,), (pa_c * pb_c,)):
                    return False
    return True


def independence_problem_oracle(space: ProbSpace, atoms):
    """The first reason atoms fail to present an algebra, or None.

    Walks the block tuples in lexicographic order and compares each cell's
    mass with the product of its blocks' masses, as ``NTBA`` reports it.
    """
    if not atoms:
        return "an atom presentation needs at least one atom"
    if any(a.n_blocks == 1 for a in atoms):
        return "atoms must differ from the trivial sigma-field"
    joint: dict = {}
    for key, p in zip(zip(*(a.labels for a in atoms)), space.probs):
        joint[key] = joint.get(key, 0) + p
    masses = [masses_oracle(a) for a in atoms]
    for key in itertools.product(*(range(a.n_blocks) for a in atoms)):
        got = joint.get(key)
        expected = space.backend.one
        for m, bi in zip(masses, key):
            expected *= m[bi]
        if got is None or not space.backend.equal((got,), (expected,)):
            return f"atoms are not mutually independent at block tuple {key}"
    if len(joint) != space.size:
        return "the join of the atoms is not the discrete sigma-field"
    return None


def scan_family_oracle(space: ProbSpace, elems) -> FamilyVerdict:
    """``validate_family`` by running the sigma-field operations each check reads.

    The same checks in the same order, with the same first reason and
    witness, but each meet and join is computed from the sigma-fields when
    a check first reads it, not filled into symmetric tables by one pair
    pass.  It is kept per member-index pair for the later checks that read
    it again: every triple is scanned, and 128 members would take minutes
    with each triple's own four sigma-field operations.
    """
    family = []
    for e in elems:
        if e.space != space:
            raise DomainMismatchError("family member on a different space")
        if e not in family:
            family.append(e)
    fam_set = set(family)
    if trivial(space) not in fam_set:
        return FamilyVerdict(False, "missing the trivial sigma-field", ())
    if discrete(space) not in fam_set:
        return FamilyVerdict(False, "missing the discrete sigma-field", ())
    for x, y in itertools.combinations(family, 2):
        if meet(x, y) not in fam_set:
            return FamilyVerdict(False, "not closed under meet", (x, y))
        if join(x, y) not in fam_set:
            return FamilyVerdict(False, "not closed under join", (x, y))
    index = {e: i for i, e in enumerate(family)}
    tables: dict = {meet: {}, join: {}}

    def op(f, i, j):
        """The member index of f(family[i], family[j]), computed once per pair."""
        got = tables[f].get((i, j))
        if got is None:
            got = tables[f][i, j] = index[f(family[i], family[j])]
        return got

    n = len(family)
    for x, y, z in itertools.product(range(n), repeat=3):
        if op(meet, x, op(join, y, z)) != op(join, op(meet, x, y), op(meet, x, z)):
            witness = (family[x], family[y], family[z])
            return FamilyVerdict(False, "distributivity fails", witness)
    bot, top = index[trivial(space)], index[discrete(space)]
    for i, x in enumerate(family):
        comp = None
        for j, y in enumerate(family):
            if op(meet, i, j) == bot and op(join, i, j) == top:
                comp = y
                break
        if comp is None:
            return FamilyVerdict(False, "element without complement", (x,))
        if not independent(x, comp):
            return FamilyVerdict(
                False, "complement pair not independent", (x, comp)
            )
    return FamilyVerdict(True)


def membership_oracle(algebra: NTBA, f: RV) -> tuple:
    """``chaos.chaos_membership``'s three conditions by sigma-field meets and joins.

    Evaluates the three equivalent membership conditions independently,
    over the realized elements, with ``meet`` and ``join`` for every pair.

    The conditions must agree; disagreement means the library itself is
    inconsistent and raises rather than returning a verdict.
    """
    if f.space != algebra.space:
        raise DomainMismatchError("RV lives on a different space")
    space = algebra.space
    parts = [e.realize() for e in algebra.elements()]
    proj_cache: dict = {}

    def q(part: SigmaField) -> RV:
        got = proj_cache.get(part)
        if got is None:
            got = cond_exp(part, f)
            proj_cache[part] = got
        return got

    top = discrete(space)
    bot = trivial(space)

    equal = space.backend.equal
    cond_a = True
    for i, part in enumerate(parts):
        comp = parts[-1 - i]  # elements come by bitmask, so x' is element 2^n - 1 - i
        if not equal(f.vec, (q(part) + q(comp)).vec):
            cond_a = False
            break

    cond_b = True
    for px, py in itertools.combinations_with_replacement(parts, 2):
        if meet(px, py) != bot:
            continue
        if not equal(q(join(px, py)).vec, (q(px) + q(py)).vec):
            cond_b = False
            break

    cond_c = space.backend.is_zero(q(bot).vec)
    if cond_c:
        for px, py in itertools.combinations_with_replacement(parts, 2):
            lhs = q(join(px, py)) + q(meet(px, py))
            if not equal(lhs.vec, (q(px) + q(py)).vec):
                cond_c = False
                break

    if not (cond_a == cond_b == cond_c):
        raise ConsistencyError(
            f"membership conditions disagree: {cond_a}, {cond_b}, {cond_c}"
        )
    return cond_a, cond_b, cond_c


def rebind_everywhere(monkeypatch, fn, replacement) -> None:
    """Replace every binding of ``fn`` in the library's loaded modules.

    The library imports names with ``from .x import y``, so one function
    is bound in several module namespaces; each is patched by identity.
    """
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("noise_lattice"):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, replacement)


def product_oracle(a: ProbSpace, b: ProbSpace) -> SpaceProduct:
    """The product of two spaces, each probability the product pa * pb of the factors'.

    Outcome (ia, ib) has index ia * b.size + ib; the coordinate lists are
    written out from that.
    """
    outcomes = tuple(f"{oa},{ob}" for oa in a.outcomes for ob in b.outcomes)
    probs = tuple(pa * pb for pa in a.probs for pb in b.probs)
    coords = (
        tuple(ia for ia in range(a.size) for _ in range(b.size)),
        tuple(ib for _ in range(a.size) for ib in range(b.size)),
    )
    return SpaceProduct((a, b), mk_space(outcomes, probs), coords)


def rand_ntba_chained(rng, max_outcomes: int = 64, mode: str = "rational") -> NTBA:
    """``instances.rand_ntba`` by two-factor products, one factor at a time.

    The same draws in the same order; after each product the atoms so far
    are lifted from factor 0 and the new factor's discrete field from
    factor 1.
    """
    sizes = []
    total = 1
    n_factors = rng.randint(1, 4)
    for _ in range(n_factors):
        s = rng.randint(2, 4)
        if total * s > max_outcomes:
            break
        sizes.append(s)
        total *= s
    if not sizes:
        sizes = [2]
    factors = []
    for s in sizes:
        weights = [rng.randint(1, 9) for _ in range(s)]
        tw = sum(weights)
        if mode == "rational":
            probs = [Fraction(w, tw) for w in weights]
        else:
            probs = [w / tw for w in weights]
        factors.append(mk_space([f"f{i}" for i in range(s)], probs))
    space = factors[0]
    lifted = [discrete(space)]
    for nxt in factors[1:]:
        prod = product_oracle(space, nxt)
        lifted = [lift_partition(prod, p, 0) for p in lifted]
        lifted.append(lift_partition(prod, discrete(nxt), 1))
        space = prod.space
    return NTBA(space, lifted)


# ``instances``' draws as first written, with ``randint`` and ``randrange``:
# the library draws the same integers through ``choice`` over a range.


def _rand_weighted_oracle(rng, n: int, prefix: str, mode: str) -> ProbSpace:
    weights = [rng.randint(1, 9) for _ in range(n)]
    space = ProbSpace(tuple(f"{prefix}{i}" for i in range(n)), tuple(weights), sum(weights))
    return space if mode == "rational" else float_twin(space)


def rand_space_oracle(rng, max_size: int = 5, mode: str = "rational") -> ProbSpace:
    return _rand_weighted_oracle(rng, rng.randint(2, max_size), "w", mode)


def _rand_onto_oracle(rng, n: int) -> list:
    k = rng.randint(1, n)
    labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(labels)
    return labels


def _groups_of(labels) -> list:
    groups: dict = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return list(groups.values())


def rand_partition_oracle(rng, space: ProbSpace) -> SigmaField:
    return partition(space, _groups_of(_rand_onto_oracle(rng, space.size)))


def rand_rv_oracle(rng, space: ProbSpace, zero_mean: bool = False) -> RV:
    if space.mode == "rational":
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(space.size)]
    else:
        vals = [rng.uniform(-3.0, 3.0) for _ in range(space.size)]
    f = RV(space, vals)
    return f - constant(space, f.mean()) if zero_mean else f


def rand_independent_pair_oracle(rng):
    prod = product(rand_space_oracle(rng, 4), rand_space_oracle(rng, 4))
    x = lift_partition(prod, rand_partition_oracle(rng, prod.factors[0]), 0)
    y = lift_partition(prod, rand_partition_oracle(rng, prod.factors[1]), 1)
    return prod, x, y


def rand_element_oracle(rng, algebra: NTBA):
    return algebra.element([i for i in range(algebra.n_atoms) if rng.random() < 0.5])


def rand_atom_groups_oracle(rng, algebra: NTBA) -> list:
    return _groups_of(_rand_onto_oracle(rng, algebra.n_atoms))


def mat_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def projections_commute(x: SigmaField, y: SigmaField) -> bool:
    """Q_x Q_y = Q_y Q_x as dense matrices, by the space's backend equality."""
    qx, qy = projection_matrix(x), projection_matrix(y)
    left, right = mat_mul(qx, qy), mat_mul(qy, qx)
    return x.space.backend.equal(sum(left, []), sum(right, []))


def set_partitions(items):
    """All partitions of a list into nonempty groups."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def mat_vec(a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def kernel_intersection_oracle(B) -> Subspace:
    """The first chaos of B by elimination, without its product basis.

    Starts from all of L2 and, atom by atom, keeps the combinations v of
    the current vectors with v = Q_x v + Q_x' v, where x is the co-atom and
    x' the atom: an exact nullspace in rational mode, an SVD one in float
    mode.
    """
    space = B.space
    nullspace = exact_nullspace if space.mode == "rational" else float_nullspace
    vecs = [indicator(space, [i]) for i in range(space.size)]
    for k in range(B.n_atoms):
        if not vecs:
            break
        x, xc = B.coatom(k).realize(), B.atoms[k]
        images = [v - cond_exp(x, v) - cond_exp(xc, v) for v in vecs]
        coeffs = nullspace(list(zip(*(im.values for im in images))))
        if coeffs is None:  # no nonzero constraint: the kernel is everything
            continue
        combos = []
        for c in coeffs:
            vals = [space.backend.zero] * space.size
            for cd, v in zip(c, vecs):
                if cd:
                    vals = [a + cd * b for a, b in zip(vals, v.values)]
            combos.append(RV(space, tuple(vals)))
        vecs = span_on(space, combos).basis if combos else []
    return span_on(space, vecs)


def is_basis(sub: Subspace) -> bool:
    """Whether a subspace's basis vectors are linearly independent."""
    return sub.space.backend.rank([b.vec for b in sub.basis]) == sub.dim


def canonical_bits(pre, per) -> str:
    """The ``{pre;per}`` text of an eventually periodic bit sequence.

    The tuple route: cut the period to its primitive root, then move the
    last preperiod bit into the period while it equals the period's last.
    """
    per = tuple(per) or (0,)
    n = len(per)
    per = next(per[:d] for d in range(1, n + 1) if per == per[:d] * (n // d))
    pre = list(pre)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = per[-1:] + per[:-1]
    return "{%s;%s}" % ("".join(map(str, pre)), "".join(map(str, per)))


def pointwise_binop(a, b, op) -> str:
    """``{pre;per}`` of ``op`` applied bit by bit to two eventually periodic sets.

    Reads max(npre) + lcm(nper) positions through ``NatSet.bit``: past
    max(npre) both sets repeat with period lcm(nper).
    """
    pre_len, per_len = max(a.npre, b.npre), lcm(a.nper, b.nper)
    bits = [op(a.bit(p), b.bit(p)) for p in range(1, pre_len + per_len + 1)]
    return canonical_bits(bits[:pre_len], bits[pre_len:])


def cof_elem_oracle(tail, ys) -> tuple:
    """(tail, ``{pre;per}`` of the pair indices) of the canonical element.

    With a tail m only the pair indices below m remain, and while y(m-1)
    is among them it is dropped and the tail moves down to m-1.
    """
    if tail is None:
        return None, str(ys)
    bits = [ys.bit(p) for p in range(1, tail)]
    while bits and bits[-1]:
        bits.pop()
        tail -= 1
    return tail, canonical_bits(bits, ())


def cof_meet_oracle(a, b) -> tuple:
    """(tail, ``{pre;per}``) of the meet, case by case on the tails.

    With both tails present the shallower element is rewritten over the
    independent generators at the deeper tail (t(m) = y(m) v ... v t(m'))
    and the meet keeps the shared generators; a tail meets a tailless
    element in the pair indices the tailless side shares with it.
    """
    if a.tail is not None and b.tail is not None:
        if a.tail > b.tail:
            a, b = b, a
        expanded = a.ys.union(range_set(a.tail, b.tail))
        return cof_elem_oracle(b.tail, expanded.intersect(b.ys))
    if a.tail is None and b.tail is None:
        return cof_elem_oracle(None, a.ys.intersect(b.ys))
    if a.tail is None:
        a, b = b, a
    return cof_elem_oracle(None, a.ys.union(tail_set(a.tail)).intersect(b.ys))


def cof_join_oracle(a, b) -> tuple:
    """(tail, ``{pre;per}``) of the join: the smaller tail, the union of the pair indices."""
    tails = [t for t in (a.tail, b.tail) if t is not None]
    return cof_elem_oracle(min(tails) if tails else None, a.ys.union(b.ys))


def complement_oracle(e) -> tuple:
    """(tail, ``{pre;per}``) of the complement in B of a tailed or finite element."""
    if e.tail is not None:
        return cof_elem_oracle(None, range_set(1, e.tail).intersect(e.ys.complement()))
    m = e.ys.max_or_zero() + 1
    return cof_elem_oracle(m, range_set(1, m).intersect(e.ys.complement()))


@pytest.fixture
def uniform3() -> ProbSpace:
    return mk_space(["a", "b", "c"], [Fraction(1, 3)] * 3)
