"""Sub-sigma-fields of a finite space as canonical partitions.

With strictly positive probabilities a sub-sigma-field is exactly a
partition of the outcomes.  The lattice order is refinement: finer
partitions sit higher, the discrete partition is the top, the one-block
partition the bottom.  Conditional expectation is block averaging.

A ``SigmaField`` holds its canonical blocks, and beside them the label
vector (outcome -> block index) and the block masses, each computed once.
Every join is one grouping of the outcomes by their tuple of labels.
Independence and commuting are one test: x and y are conditionally
independent given a z below both iff, within every z-block c, every
x-block a and y-block b in c satisfy P(a & b | c) = P(a | c) P(b | c).
Conditioning on c keeps the float comparison on the scale of
probabilities.  A pair that does not meet at all is a structural zero and
fails at once, so the test is linear in the outcomes.  Independence is
this test given the trivial field; the projections Q_x and Q_y commute
iff it holds given x ^ y (the classical criterion).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainMismatchError, PreconditionError
from .finmeas import RV, ProbSpace, Subspace, indicator


def _canonical(blocks) -> tuple:
    bs = [tuple(sorted(b)) for b in blocks]
    bs.sort(key=lambda b: b[0])
    return tuple(bs)


@dataclass(frozen=True)
class SigmaField:
    """A canonical partition: blocks sorted internally and by least element.

    ``labels[i]`` is the index of the block holding outcome i, and
    ``masses[k]`` the probability of block k; neither takes part in
    equality or hashing.
    """

    space: ProbSpace
    blocks: tuple
    labels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(self.blocks):
            raise ValueError("blocks must be nonempty")
        size = self.space.size
        labels = [-1] * size
        try:
            for bi, b in enumerate(self.blocks):
                for i in b:
                    labels[i] = bi
        except (IndexError, TypeError):
            labels = None
        # size indices in range, none negative and none missing: a partition
        if (
            labels is None
            or sum(map(len, self.blocks)) != size
            or min(map(min, self.blocks)) < 0
            or -1 in labels
        ):
            raise ValueError("blocks must partition the outcome indices")
        if self.blocks != _canonical(self.blocks):
            raise ValueError("blocks are not in canonical order")
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def masses(self) -> tuple:
        mass_of = self.space.probs.__getitem__
        return tuple(sum(map(mass_of, b)) for b in self.blocks)

    def is_coarser_eq(self, other: "SigmaField") -> bool:
        """True iff self <= other in the lattice (other refines self)."""
        _chk(self, other)
        return len(set(zip(other.labels, self.labels))) == other.n_blocks


def _chk(x, y):
    if x.space != y.space:
        raise DomainMismatchError("sigma-fields live on different spaces")


def partition(space: ProbSpace, blocks) -> SigmaField:
    return SigmaField(space, _canonical(blocks))


def trivial(space: ProbSpace) -> SigmaField:
    return SigmaField(space, (tuple(range(space.size)),))


def discrete(space: ProbSpace) -> SigmaField:
    return SigmaField(space, tuple((i,) for i in range(space.size)))


def _cells(space: ProbSpace, labelings) -> dict:
    """The outcomes grouped by their tuple of labels, one label per labeling.

    Outcomes are visited in order, so every cell is increasing and the
    cells come by least element: canonical blocks.  No labeling at all
    gives the one cell of the trivial field.
    """
    keys = zip(*labelings) if labelings else itertools.repeat((), space.size)
    cells: dict = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    return cells


def _group(space: ProbSpace, labelings) -> SigmaField:
    """The sigma-field generated by the labelings: one block per cell."""
    return SigmaField(space, tuple(map(tuple, _cells(space, labelings).values())))


def _table(space: ProbSpace, labelings) -> dict:
    """The contingency table: label tuple -> mass, for the present cells only."""
    mass_of = space.probs.__getitem__
    return {key: sum(map(mass_of, c)) for key, c in _cells(space, labelings).items()}


def sigma_of_rvs(space: ProbSpace, rvs) -> SigmaField:
    """Sigma-field generated by a family of RVs: joint level sets.

    The backend labels the level sets of each RV (exact values, or float
    values chained within a tolerance); outcomes sharing every label form
    one block.
    """
    return _group(space, [space.backend.levels(f.values) for f in rvs])


def sigma_from_rv(f: RV) -> SigmaField:
    return sigma_of_rvs(f.space, [f])


def meet(x: SigmaField, y: SigmaField) -> SigmaField:
    """Intersection sigma-field: components of the shared-block graph."""
    _chk(x, y)
    parent = list(range(x.space.size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for part in (x, y):
        for b in part.blocks:
            for i in b[1:]:
                union(b[0], i)
    groups = {}
    for i in range(x.space.size):
        groups.setdefault(find(i), []).append(i)
    return partition(x.space, groups.values())


def join(x: SigmaField, y: SigmaField) -> SigmaField:
    """Generated sigma-field: common refinement by pairwise intersection."""
    _chk(x, y)
    return _group(x.space, [x.labels, y.labels])


def inf_family(xs) -> SigmaField:
    xs = list(xs)
    if not xs:
        raise PreconditionError("inf_family needs a nonempty family")
    out = xs[0]
    for x in xs[1:]:
        out = meet(out, x)
    return out


def sup_family(xs) -> SigmaField:
    xs = list(xs)
    if not xs:
        raise PreconditionError("sup_family needs a nonempty family")
    for x in xs[1:]:
        _chk(xs[0], x)
    return _group(xs[0].space, [x.labels for x in xs])


def cond_exp(x: SigmaField, f: RV) -> RV:
    """Conditional expectation given x: the block average of f."""
    if x.space != f.space:
        raise DomainMismatchError("sigma-field and RV on different spaces")
    probs, vals = x.space.probs, f.values
    avgs = [
        sum(probs[i] * vals[i] for i in b) / mass
        for b, mass in zip(x.blocks, x.masses)
    ]
    return RV(x.space, tuple(map(avgs.__getitem__, x.labels)))


def _cond_independent(x: SigmaField, y: SigmaField, z: SigmaField) -> bool:
    """Whether x and y are conditionally independent given z, with z <= x, y.

    The present cells of the contingency table are the blocks of x v y.
    Within each z-block c, every x-block a and y-block b in c must meet, and
    the law given c must be a product: P(a & b | c) = P(a | c) P(b | c) by
    the backend's equality.  Conditioning on c keeps the compared values on
    the scale of probabilities however small P(c) is; given the trivial
    field they are the plain masses.  An absent cell is a structural zero
    against P(a) P(b) > 0, so the loop stops at the first one and never
    visits more than the present cells plus one.
    """
    _chk(x, y)
    table = _table(x.space, [x.labels, y.labels])
    xs_in = [[] for _ in z.blocks]
    ys_in = [[] for _ in z.blocks]
    for part, inside in ((x, xs_in), (y, ys_in)):
        for k, (block, mass) in enumerate(zip(part.blocks, part.masses)):
            inside[z.labels[block[0]]].append((k, mass))
    equal = x.space.backend.equal
    for c, pc in enumerate(z.masses):
        ys_given_c = [(b, pb / pc) for b, pb in ys_in[c]]
        for a, pa in xs_in[c]:
            pa_c = pa / pc
            for b, pb_c in ys_given_c:
                pab = table.get((a, b))
                if pab is None:
                    return False
                if not equal((pab / pc,), (pa_c * pb_c,)):
                    return False
    return True


def commutes(x: SigmaField, y: SigmaField) -> bool:
    """Whether the two conditional-expectation projections commute.

    They do iff x and y are conditionally independent given x ^ y.
    """
    return _cond_independent(x, y, meet(x, y))


def independent(x: SigmaField, y: SigmaField) -> bool:
    """Product rule on all block pairs; blocks generate, so this suffices."""
    return _cond_independent(x, y, trivial(x.space))


def subspace_of(x: SigmaField) -> Subspace:
    """L2(x): the span of block indicators, one basis vector per block.

    Indicators of distinct blocks are already orthogonal under the
    weighted inner product, so no elimination is needed; the squared norm
    of an indicator is its block's probability.
    """
    basis = [indicator(x.space, b) for b in x.blocks]
    return Subspace(x.space, basis, norms2=x.masses)


def sigma_of(v: Subspace) -> SigmaField:
    """Sigma-field generated by a subspace (basis-independent)."""
    return sigma_of_rvs(v.space, v.basis)


def lift_partition(prod, part: SigmaField, side: str) -> SigmaField:
    """Embed a factor sigma-field into a product space (see finmeas.product)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    factor = prod.left if side == "left" else prod.right
    if part.space != factor:
        raise DomainMismatchError(f"partition is not on the {side} factor")
    lab = part.labels
    labels = [  # outcome (ia, ib) of the product has index ia * right.size + ib
        lab[ia if side == "left" else ib]
        for ia in range(prod.left.size)
        for ib in range(prod.right.size)
    ]
    return _group(prod.space, [labels])


def partition_to_json(x: SigmaField) -> dict:
    return {"blocks": [list(b) for b in x.blocks]}


def partition_from_json(space: ProbSpace, obj: dict) -> SigmaField:
    return partition(space, obj["blocks"])
