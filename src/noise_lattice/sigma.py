"""Sub-sigma-fields of a finite space as canonical partitions.

With strictly positive probabilities a sub-sigma-field is exactly a
partition of the outcomes.  The lattice order is refinement: finer
partitions sit higher, the discrete partition is the top, the one-block
partition the bottom.  Conditional expectation is block averaging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainMismatchError, PreconditionError
from .finmeas import RV, ProbSpace, Subspace, indicator


def _canonical(blocks) -> tuple:
    bs = [tuple(sorted(b)) for b in blocks]
    bs.sort(key=lambda b: b[0])
    return tuple(bs)


@dataclass(frozen=True)
class SigmaField:
    """A canonical partition: blocks sorted internally and by least element."""

    space: ProbSpace
    blocks: tuple

    def __post_init__(self):
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("blocks must be nonempty")
            seen.update(b)
        total = self.space.size
        if len(seen) != total or seen != set(range(total)):
            raise ValueError("blocks must partition the outcome indices")
        if self.blocks != _canonical(self.blocks):
            raise ValueError("blocks are not in canonical order")

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self) -> list:
        """Outcome index -> block index lookup."""
        lookup = [0] * self.space.size
        for bi, b in enumerate(self.blocks):
            for i in b:
                lookup[i] = bi
        return lookup

    def block_prob(self, bi: int):
        return sum(self.space.probs[i] for i in self.blocks[bi])

    def is_coarser_eq(self, other: "SigmaField") -> bool:
        """True iff self <= other in the lattice (other refines self)."""
        _chk(self, other)
        lookup = self.block_of()
        return all(len({lookup[i] for i in b}) == 1 for b in other.blocks)


def _chk(x, y):
    if x.space != y.space:
        raise DomainMismatchError("sigma-fields live on different spaces")


def partition(space: ProbSpace, blocks) -> SigmaField:
    return SigmaField(space, _canonical(blocks))


def trivial(space: ProbSpace) -> SigmaField:
    return SigmaField(space, (tuple(range(space.size)),))


def discrete(space: ProbSpace) -> SigmaField:
    return SigmaField(space, tuple((i,) for i in range(space.size)))


def sigma_of_rvs(space: ProbSpace, rvs) -> SigmaField:
    """Sigma-field generated by a family of RVs: joint level sets.

    The backend labels the level sets of each RV (exact values, or float
    values chained within a tolerance); outcomes sharing every label form
    one block.
    """
    labels = [space.backend.levels(f.values) for f in rvs]
    keys = {}
    for i in range(space.size):
        keys.setdefault(tuple(lab[i] for lab in labels), []).append(i)
    return partition(space, keys.values())


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
    xb = x.block_of()
    yb = y.block_of()
    cells = {}
    for i in range(x.space.size):
        cells.setdefault((xb[i], yb[i]), []).append(i)
    return partition(x.space, cells.values())


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
    out = xs[0]
    for x in xs[1:]:
        out = join(out, x)
    return out


def cond_exp(x: SigmaField, f: RV) -> RV:
    """Conditional expectation given x: the block average of f."""
    if x.space != f.space:
        raise DomainMismatchError("sigma-field and RV on different spaces")
    space = x.space
    vals = list(f.values)
    out = [None] * space.size  # the blocks cover every outcome
    for b in x.blocks:
        mass = sum(space.probs[i] for i in b)
        avg = sum(space.probs[i] * vals[i] for i in b) / mass
        for i in b:
            out[i] = avg
    return RV(space, tuple(out))


def commutes(x: SigmaField, y: SigmaField) -> bool:
    """Whether the two conditional-expectation projections commute.

    Checked on the standard basis of indicator vectors, which spans,
    with the backend's equality.
    """
    _chk(x, y)
    space = x.space
    for j in range(space.size):
        e = indicator(space, [j])
        a = cond_exp(x, cond_exp(y, e))
        b = cond_exp(y, cond_exp(x, e))
        if not space.backend.equal(a.values, b.values):
            return False
    return True


def independent(x: SigmaField, y: SigmaField) -> bool:
    """Product rule on all block pairs; blocks generate, so this suffices."""
    _chk(x, y)
    space = x.space
    for bx in x.blocks:
        px = sum(space.probs[i] for i in bx)
        sx = set(bx)
        for by in y.blocks:
            py = sum(space.probs[i] for i in by)
            pxy = sum(space.probs[i] for i in by if i in sx)
            if not space.backend.equal((pxy,), (px * py,)):
                return False
    return True


def subspace_of(x: SigmaField) -> Subspace:
    """L2(x): the span of block indicators, one basis vector per block.

    Indicators of distinct blocks are already orthogonal under the
    weighted inner product, so no elimination is needed; the squared norm
    of an indicator is its block's probability.
    """
    basis = [indicator(x.space, b) for b in x.blocks]
    norms = [x.block_prob(bi) for bi in range(x.n_blocks)]
    return Subspace(x.space, basis, norms2=norms)


def sigma_of(v: Subspace) -> SigmaField:
    """Sigma-field generated by a subspace (basis-independent)."""
    return sigma_of_rvs(v.space, v.basis)


def project_rv(x: SigmaField, f: RV) -> RV:
    return cond_exp(x, f)


def lift_partition(prod, part: SigmaField, side: str) -> SigmaField:
    """Embed a factor sigma-field into a product space (see finmeas.product)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    factor = prod.left if side == "left" else prod.right
    if part.space != factor:
        raise DomainMismatchError(f"partition is not on the {side} factor")
    lookup = part.block_of()
    groups: dict = {}
    for ia in range(prod.left.size):
        for ib in range(prod.right.size):
            lab = lookup[ia] if side == "left" else lookup[ib]
            groups.setdefault(lab, []).append(prod.index(ia, ib))
    return partition(prod.space, groups.values())


def partition_to_json(x: SigmaField) -> dict:
    return {"blocks": [list(b) for b in x.blocks]}


def partition_from_json(space: ProbSpace, obj: dict) -> SigmaField:
    return partition(space, obj["blocks"])
