"""Sub-sigma-fields of a finite space as canonical label vectors.

With strictly positive probabilities a sub-sigma-field is exactly a
partition of the outcomes.  The lattice order is refinement: finer
partitions sit higher, the discrete partition is the top, the one-block
partition the bottom.  Conditional expectation is block averaging.

A ``SigmaField`` is its label vector: ``labels[i]`` numbers the block of
outcome i, blocks numbered 0, 1, ... in the order of their least outcome.
That numbering is canonical, so the labels alone give equality and
hashing; the blocks and the block weights and masses are derived from
them on first read.  The constructor is the one numbering: given one
hashable key per outcome, it numbers the keys first-seen, so any keys
give the partition into their level sets.  Every field is built by it:
``partition`` (the one check of blocks from outside), ``trivial``,
``discrete``, every join (one grouping of the outcomes by their tuple of
labels), the meet (one union-find over the blocks of both fields) and
``lift_partition``.

Independence, commuting and an atom presentation's mutual independence
are one walk (``_product_problem``): fields are independent given a c
below all of them iff, within every c-block, each tuple of their blocks
satisfies P(a_1 & ... & a_n | c) = P(a_1 | c) ... P(a_n | c), in
rational mode by integer cross-multiplication of block weights, in float
mode on the scale of probabilities.  A tuple that does not meet is a
structural zero and fails at once, so the walk is linear in the
outcomes.  Independence and ``ntba.NTBA``'s atoms take it with no c;
Q_x and Q_y commute iff x and y pass it given x ^ y (the classical
criterion).
"""

from __future__ import annotations

import itertools

from .errors import DomainMismatchError, Frozen, PreconditionError, derived
from .finmeas import RV, ProbSpace, Subspace, indicator, vecs_on


class SigmaField(Frozen):
    """A partition as its canonical label vector.

    Built from one hashable key per outcome: outcomes sharing a key form a
    block, and the keys are numbered in the order they are first seen,
    each hashed once.  So ``labels[i]`` is the index of the block holding
    outcome i, the blocks numbered in the order of their least outcome,
    and ``n_blocks`` is the number of distinct keys.  Only the labels are
    hashed; ``blocks``, ``weights`` (block sums of the space's weights:
    ints in rational mode) and ``masses`` (block probabilities, each
    weight over the space's total) are derived from them on first read.
    """

    space: ProbSpace
    labels: tuple

    def __init__(self, space: ProbSpace, keys):
        index: dict = {}
        labels = tuple([index.setdefault(k, len(index)) for k in keys])
        if len(labels) != space.size:
            raise ValueError(f"{len(labels)} keys for {space.size} outcomes: one key per outcome")
        self.__dict__.update(space=space, labels=labels, n_blocks=len(index))

    def __eq__(self, other):
        # the fields spelled out, not ``Frozen._key``: the lattice scans compare fields often
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.space, self.labels) == (other.space, other.labels)

    def __hash__(self):
        return hash((self.labels,))

    @derived
    def blocks(self) -> tuple:
        """The blocks, each increasing, in the order of their least outcome."""
        blocks = [[] for _ in range(self.n_blocks)]
        for i, k in enumerate(self.labels):
            blocks[k].append(i)
        return tuple(map(tuple, blocks))

    @derived
    def weights(self) -> tuple:
        weights = [0] * self.n_blocks
        for k, w in zip(self.labels, self.space.weights):
            weights[k] += w
        return tuple(weights)

    @derived
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
    return SigmaField(space, labels)


def trivial(space: ProbSpace) -> SigmaField:
    return SigmaField(space, itertools.repeat(0, space.size))


def discrete(space: ProbSpace) -> SigmaField:
    return SigmaField(space, range(space.size))


def _group(space: ProbSpace, labelings) -> SigmaField:
    """The sigma-field generated by the labelings: one block per label tuple.

    No labeling at all gives the trivial field.
    """
    return SigmaField(space, zip(*labelings) if labelings else itertools.repeat((), space.size))


def sigma_of_rvs(space: ProbSpace, rvs) -> SigmaField:
    """Sigma-field generated by a family of RVs: joint level sets.

    The backend labels the level sets of each RV (its integer numerators
    over the common denominator, or float values chained within a
    tolerance); outcomes sharing every label form one block.  An RV on
    another space is a ``DomainMismatchError``.
    """
    return _group(space, [space.backend.levels(v) for v in vecs_on(space, rvs)])


def meet(x: SigmaField, y: SigmaField) -> SigmaField:
    """Intersection sigma-field: components of the shared-outcome graph.

    Its nodes are the x-blocks and the y-blocks; an x-block and a y-block
    are linked when they share an outcome, that is, per distinct label pair.
    """
    _chk(x, y)
    nx = x.n_blocks
    parent = list(range(nx + y.n_blocks))  # x-block a is node a, y-block b is nx + b
    # the root walks are written out, with path halving, rather than called
    for a, b in set(zip(x.labels, y.labels)):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b += nx
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
    root = []
    for a in range(nx):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        root.append(a)
    return SigmaField(x.space, map(root.__getitem__, x.labels))


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


def _product_problem(fields, given=None):
    """The first block tuple at which the fields fail the product law, or None.

    The present cells of the contingency table are the blocks of the
    fields' join.  With no ``given`` the walk runs over every tuple of
    block labels in lexicographic order; given a field c below all the
    fields, it runs within each c-block over the tuples of blocks inside
    it and asks the law given c.  The backend decides each cell
    (``is_product``) on the block weights.  An absent cell is a structural
    zero against a positive product, so the walk stops at the first one.
    """
    space = fields[0].space
    for f in fields[1:]:
        _chk(fields[0], f)
    table: dict = {}
    for key, w in zip(zip(*(f.labels for f in fields)), space.weights):
        table[key] = table.get(key, 0) + w
    if given is None:
        groups = [(space.total, [range(f.n_blocks) for f in fields])]
    else:
        # given <= f, so each f-block lies in one given-block; the dict keeps
        # the f-blocks in label order
        inside = [[[] for _ in range(given.n_blocks)] for _ in fields]
        for f, blocks in zip(fields, inside):
            for k, c in dict(zip(f.labels, given.labels)).items():
                blocks[c].append(k)
        groups = zip(given.weights, zip(*inside))
    is_product = space.backend.is_product
    weights = [f.weights for f in fields]
    for total, blocks in groups:
        # each key of block labels beside its tuple of block weights
        factors = itertools.product(*(list(map(w.__getitem__, b)) for w, b in zip(weights, blocks)))
        for key, ws in zip(itertools.product(*blocks), factors):
            cell = table.get(key)
            if cell is None or not is_product(cell, ws, total):
                return key
    return None


def commutes(x: SigmaField, y: SigmaField) -> bool:
    """Whether the two conditional-expectation projections commute.

    They do iff x and y are conditionally independent given x ^ y.
    """
    return _product_problem([x, y], meet(x, y)) is None


def independent(x: SigmaField, y: SigmaField) -> bool:
    """Product rule on all block pairs; blocks generate, so this suffices."""
    return _product_problem([x, y]) is None


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


def lift_partition(prod, part: SigmaField, k: int) -> SigmaField:
    """A field on factor k of ``finmeas.product``, pulled back through coordinate k."""
    if part.space != prod.factor(k):
        raise DomainMismatchError(f"partition is not on factor {k}")
    return SigmaField(prod.space, map(part.labels.__getitem__, prod.coords[k]))


def partition_to_json(x: SigmaField) -> dict:
    return {"blocks": [list(b) for b in x.blocks]}


def partition_from_json(space: ProbSpace, obj: dict) -> SigmaField:
    if type(obj) is not dict:
        raise ValueError("a partition must be an object with a blocks list")
    blocks = obj["blocks"]
    if type(blocks) is not list or not all(type(b) is list for b in blocks):
        raise ValueError("blocks must be a list of lists of outcome indices")
    return partition(space, blocks)
