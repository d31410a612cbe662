"""Sub-sigma-fields of a finite space as canonical label vectors.

With strictly positive probabilities a sub-sigma-field is exactly a
partition of the outcomes.  The lattice order is refinement: finer
partitions sit higher, the discrete partition is the top, the one-block
partition the bottom.  Conditional expectation is block averaging.

A ``SigmaField`` is its label vector: ``labels[i]`` numbers the block of
outcome i, blocks numbered 0, 1, ... in the order of their least outcome.
That numbering is canonical, so the labels alone give equality and
hashing; the blocks and the block weights and masses are derived from
them on first read.  One first-seen numbering builds every field:
``partition`` (the one check of blocks from outside), ``trivial``,
``discrete``, every join (one grouping of the outcomes by their tuple of
labels) and the meet (one union-find over the blocks of both fields).
Independence and commuting are one test: x and y are conditionally
independent given a z below both iff, within every z-block c, every
x-block a and y-block b in c satisfy P(a & b | c) = P(a | c) P(b | c):
in rational mode one integer cross-multiplication of block weights, in
float mode a comparison on the scale of probabilities.  A pair that does
not meet at all is a structural zero and fails at once, so the test is
linear in the outcomes.  Independence is this test given the trivial
field; the projections Q_x and Q_y commute iff it holds given x ^ y (the
classical criterion).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainMismatchError, PreconditionError
from .finmeas import RV, ProbSpace, Subspace, indicator


@dataclass(frozen=True)
class SigmaField:
    """A partition as its canonical label vector.

    ``labels[i]`` is the index of the block holding outcome i, the blocks
    numbered in the order of their least outcome.  Only the labels are
    hashed; ``n_blocks``, ``blocks``, ``weights`` (block sums of the
    space's weights: ints in rational mode) and ``masses`` (block
    probabilities, each weight over the space's total) are derived from
    them on first read.
    """

    space: ProbSpace = field(hash=False)
    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        first_seen = tuple(dict.fromkeys(labels))
        if len(labels) != self.space.size or first_seen != tuple(range(len(first_seen))):
            raise ValueError(
                "labels must number the blocks 0, 1, ... in the order of their least outcome"
            )

    @cached_property
    def n_blocks(self) -> int:
        return max(self.labels) + 1

    @cached_property
    def blocks(self) -> tuple:
        """The blocks, each increasing, in the order of their least outcome."""
        blocks = [[] for _ in range(self.n_blocks)]
        for i, k in enumerate(self.labels):
            blocks[k].append(i)
        return tuple(map(tuple, blocks))

    @cached_property
    def weights(self) -> tuple:
        weights = [0] * self.n_blocks
        for k, w in zip(self.labels, self.space.weights):
            weights[k] += w
        return tuple(weights)

    @cached_property
    def masses(self) -> tuple:
        space = self.space
        return tuple(space.backend.ratio(w, space.total) for w in self.weights)

    def is_coarser_eq(self, other: "SigmaField") -> bool:
        """True iff self <= other in the lattice (other refines self)."""
        _chk(self, other)
        return len(set(zip(other.labels, self.labels))) == other.n_blocks


def _chk(x, y):
    if x.space != y.space:
        raise DomainMismatchError("sigma-fields live on different spaces")


def _number(space: ProbSpace, keys) -> SigmaField:
    """The field whose blocks are the outcomes sharing a key (one per outcome).

    Keys are numbered in the order they are first seen, so the labels come
    out canonical; each key is hashed once.
    """
    index: dict = {}
    return SigmaField(space, tuple([index.setdefault(k, len(index)) for k in keys]))


def partition(space: ProbSpace, blocks) -> SigmaField:
    """The field with the given blocks, listed in any order.

    The one check of blocks from outside (input files and callers): every
    block is nonempty, and together they hold each outcome index once.
    """
    labels = [None] * space.size
    for k, block in enumerate(blocks):
        if not block:
            raise ValueError("blocks must be nonempty")
        for i in block:
            if type(i) is not int or not 0 <= i < space.size or labels[i] is not None:
                raise ValueError("blocks must partition the outcome indices")
            labels[i] = k
    if None in labels:
        raise ValueError("blocks must partition the outcome indices")
    return _number(space, labels)


def trivial(space: ProbSpace) -> SigmaField:
    return _number(space, itertools.repeat(0, space.size))


def discrete(space: ProbSpace) -> SigmaField:
    return _number(space, range(space.size))


def _group(space: ProbSpace, labelings) -> SigmaField:
    """The sigma-field generated by the labelings: one block per label tuple.

    No labeling at all gives the trivial field.
    """
    return _number(space, zip(*labelings) if labelings else itertools.repeat((), space.size))


def _table(space: ProbSpace, labelings) -> dict:
    """The contingency table: label tuple -> weight, for the present cells only."""
    table: dict = {}
    for key, w in zip(zip(*labelings), space.weights):
        table[key] = table.get(key, 0) + w
    return table


def sigma_of_rvs(space: ProbSpace, rvs) -> SigmaField:
    """Sigma-field generated by a family of RVs: joint level sets.

    The backend labels the level sets of each RV (its integer numerators
    over the common denominator, or float values chained within a
    tolerance); outcomes sharing every label form one block.
    """
    return _group(space, [space.backend.levels(f.vec) for f in rvs])


def meet(x: SigmaField, y: SigmaField) -> SigmaField:
    """Intersection sigma-field: components of the shared-outcome graph.

    Its nodes are the x-blocks and the y-blocks; an x-block and a y-block
    are linked when they share an outcome, that is, per distinct label pair.
    """
    _chk(x, y)
    nx = x.n_blocks
    parent = list(range(nx + y.n_blocks))  # x-block a is node a, y-block b is nx + b

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in set(zip(x.labels, y.labels)):
        ra, rb = find(a), find(nx + b)
        if ra != rb:
            parent[rb] = ra
    root = [find(a) for a in range(nx)]
    return _number(x.space, map(root.__getitem__, x.labels))


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
    return RV(x.space, x.space.backend.block_means(x.labels, x.weights, f.vec, x.space.weights))


def _cond_independent(x: SigmaField, y: SigmaField, z: SigmaField) -> bool:
    """Whether x and y are conditionally independent given z, with z <= x, y.

    The present cells of the contingency table are the blocks of x v y.
    Within each z-block c, every x-block a and y-block b in c must meet, and
    the law given c must be a product: P(a & b | c) = P(a | c) P(b | c),
    decided by the backend (``is_product``) on the block weights.  In
    rational mode that is the integer comparison w_ab w_c = w_a w_b; in float
    mode conditioning on c keeps the compared values on the scale of
    probabilities however small P(c) is.  An absent cell is a structural
    zero against P(a) P(b) > 0, so the loop stops at the first one and never
    visits more than the present cells plus one.
    """
    _chk(x, y)
    table = _table(x.space, [x.labels, y.labels])
    xs_in = [[] for _ in range(z.n_blocks)]
    ys_in = [[] for _ in range(z.n_blocks)]
    for part, inside in ((x, xs_in), (y, ys_in)):
        # z <= part, so each part-block lies in one z-block; the dict keeps
        # the part-blocks in label order
        for k, c in dict(zip(part.labels, z.labels)).items():
            inside[c].append((k, part.weights[k]))
    is_product = x.space.backend.is_product
    for c, wc in enumerate(z.weights):
        for a, wa in xs_in[c]:
            for b, wb in ys_in[c]:
                wab = table.get((a, b))
                if wab is None or not is_product(wab, (wa, wb), wc):
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
