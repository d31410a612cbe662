"""Joint diagonalization of the commuting projections of a finite algebra.

All conditional expectations Q_x for x in the algebra commute, so the
whole space splits into joint eigenspaces.  With independent atoms that
join to the discrete field these are the Hoeffding/Efron-Stein
components: the point with generator G (an atom subset) is spanned by the
products, over k in G, of one mean-zero vector of atom k
(``chaos.atom_bases``), so its dimension is the product of b_k - 1.  The
point lies in H_x exactly when G is inside x's atoms, and the atom count
of G grades the space.

``certified_dims`` and ``certified_levels``, which the reports print, read
those dimensions off the block counts b_k of a certified ``NTBA``.
``spectral_decompose`` builds every eigenspace, N vectors of N entries in
all, for the suites, which hold the certified numbers to it.
"""

from __future__ import annotations

import itertools

from .chaos import atom_bases
from .errors import ConsistencyError, PreconditionError, Record
from .finmeas import RV, Subspace, constant, direct_sum, span_on
from .ntba import NTBA, NTBAElement, restrict
from .sigma import cond_exp, sigma_of_rvs, subspace_of


class SpectralPoint(Record):
    eigenspace: Subspace
    generator: frozenset  # atom indices of the filter generator; its size is the level


class SpectralDecomp(Record):
    algebra: NTBA
    points: list
    levels: dict  # k -> Subspace

    def level_dims(self) -> dict:
        """Dimension of each level k, by increasing k; the levels fill the space."""
        dims = {k: v.dim for k, v in sorted(self.levels.items())}
        if sum(dims.values()) != self.algebra.space.size:
            raise ConsistencyError("levels do not fill the space")
        return dims


def spectral_decompose(algebra: NTBA) -> SpectralDecomp:
    """Every joint eigenspace, built from products of the atoms' bases.

    The walk is ``certified_dims``'s: starting from the constants, atom k,
    last to first, doubles the list, adding for each point p listed the
    point with generator p's plus k.  So the points come in
    ``itertools.product((0, 1), repeat=n)`` order, atom 0 first.  The new
    basis holds the products of atom k's vectors with p's, atom k varying
    slowest, and the squared norms multiply because the atoms are
    independent.  Level k sums the points whose generator has k atoms.
    """
    space = algebra.space
    constants = Subspace(space, [constant(space, 1)], [space.backend.one])
    points = [SpectralPoint(constants, frozenset())]
    for k, atom in reversed(list(enumerate(atom_bases(algebra)))):
        points += [
            SpectralPoint(
                Subspace(
                    space,
                    [v * u for v in atom.basis for u in p.eigenspace.basis],
                    [a * b for a in atom.norms2 for b in p.eigenspace.norms2],
                ),
                p.generator | {k},
            )
            for p in points
        ]
    levels = {
        k: direct_sum(space, [p.eigenspace for p in points if len(p.generator) == k])
        for k in range(algebra.n_atoms + 1)
    }
    return SpectralDecomp(algebra, points, levels)


def certified_levels(algebra: NTBA) -> dict:
    """Level k's dim, by increasing k: the t^k coefficient of prod_k (1 + (b_k - 1) t).

    That is the sum of the point dims of ``certified_dims`` by level, in n^2
    steps; level 1 is the first chaos's.  The dims sum to the product of the
    b_k, the outcome count, which the ``NTBA`` constructor has checked.
    """
    levels = [1]
    for atom in algebra.atoms:
        b = atom.n_blocks - 1
        levels = [low + b * high for low, high in zip(levels + [0], [0] + levels)]
    return dict(enumerate(levels))


def certified_dims(algebra: NTBA) -> tuple:
    """(points, ``certified_levels``) from the atoms' block counts, no vector built.

    Points come in ``spectral_decompose``'s order, each as (generator,
    dim), by the same doubling walk: atom k, last to first, adds to each
    point p one with generator p's plus k and p's dim times b_k - 1.
    """
    points = [(frozenset(), 1)]
    for k in reversed(range(algebra.n_atoms)):
        b = algebra.atoms[k].n_blocks - 1
        points += [(gen | {k}, dim * b) for gen, dim in points]
    return points, certified_levels(algebra)


def membership(generator, n: int) -> list:
    """The S_x membership of the point with that generator: per element, in
    ``NTBA.elements()`` order, 1 when the element holds every generator atom.
    The row doubles once per atom k, the elements without k coming first.
    """
    row = [1]
    for k in range(n):
        row = [0] * len(row) + row if k in generator else row + row
    return row


def verify_spectral_identities(decomp: SpectralDecomp) -> list:
    """The failures of the decomposition against the defining spectral identities.

    Spectral sets are measured, not read off the generators: point i lies
    in S_x when the conditional expectation given the realized x fixes
    the first vector of its eigenspace.  Per element, the measured S_x
    must be the points whose ``membership`` row, the pattern that
    ``spectrum report`` prints, has x's bit, and their eigenspaces must
    span the L2 space of the element; per element pair, the spectral sets
    intersect like the lattice meets; per point, the elements containing
    it form a filter.  The list is empty when every identity holds.
    """
    algebra = decomp.algebra
    equal = algebra.space.backend.equal
    firsts = [p.eigenspace.basis[0] for p in decomp.points]
    failures = []
    spec_sets = {}
    rows = [membership(p.generator, algebra.n_atoms) for p in decomp.points]
    for x, e in enumerate(algebra.elements()):
        field = e.realize()
        spec = frozenset(i for i, b in enumerate(firsts) if equal(cond_exp(field, b).vec, b.vec))
        spec_sets[e.atomset] = spec
        if spec != {i for i, row in enumerate(rows) if row[x]}:
            failures.append(("spectral-set-rule", e.atomset))
        got = span_on(algebra.space, [b for i in spec for b in decomp.points[i].eigenspace.basis])
        if not subspace_of(field).equals(got):
            failures.append(("spectral-set-subspace", e.atomset))
    masks = list(spec_sets)
    for mx, my in itertools.combinations_with_replacement(masks, 2):
        if spec_sets[mx] & spec_sets[my] != spec_sets[mx & my]:
            failures.append(("meet-of-spectral-sets", mx, my))
    for i in range(len(decomp.points)):
        containing = [m for m in masks if i in spec_sets[m]]
        cset = set(containing)
        for mx in containing:
            for my in masks:
                if mx <= my and my not in cset:
                    failures.append(("filter-upward", i, mx, my))
            for my in containing:
                if mx & my not in cset:
                    failures.append(("filter-meet", i, mx, my))
    return failures


def _pattern_of(coatoms, v: RV) -> frozenset | None:
    """Generator atomset of the joint eigenspace containing v, if any.

    ``coatoms`` holds the realized co-atom fields, co-atom k at index k.
    """
    backend = v.space.backend
    gen = set()
    for k, part in enumerate(coatoms):
        img = cond_exp(part, v)
        if backend.equal(img.vec, v.vec):
            continue
        if backend.is_zero(img.vec):
            gen.add(k)
            continue
        return None
    return frozenset(gen)


def k_restriction_additivity(e: NTBAElement) -> bool:
    """Check that the grading of ``e.algebra`` adds across the split by e and its complement.

    The restrictions to e and to its complement are decomposed separately;
    products of their eigenvectors (lifted back to the base space) must
    land in joint eigenspaces of the full algebra whose atom count is the
    sum of the factor atom counts.
    """
    algebra = e.algebra
    if not e.atomset or e.atomset == frozenset(range(algebra.n_atoms)):
        raise PreconditionError("the element must be neither 0 nor 1")
    r1 = restrict(e)
    r2 = restrict(e.complement())
    d1 = spectral_decompose(r1.algebra)
    d2 = spectral_decompose(r2.algebra)
    coatoms = [algebra.coatom(k).realize() for k in range(algebra.n_atoms)]
    total = 0
    for p1 in d1.points:
        for p2 in d2.points:
            expected_gen = frozenset(
                r1.atom_indices[i] for i in p1.generator
            ) | frozenset(r2.atom_indices[i] for i in p2.generator)
            for b1 in p1.eigenspace.basis:
                for b2 in p2.eigenspace.basis:
                    w = r1.lift_rv(b1) * r2.lift_rv(b2)
                    gen = _pattern_of(coatoms, w)
                    if gen is None or gen != expected_gen:
                        return False
            total += p1.eigenspace.dim * p2.eigenspace.dim
    return total == algebra.space.size


def sigma_tower_check(decomp: SpectralDecomp) -> bool:
    """sigma(level k) must be coarser than sigma(level 1) for every k >= 2.

    Level 1 exists because every atom of an ``NTBA`` is nontrivial.
    """
    space = decomp.algebra.space
    sig1 = sigma_of_rvs(space, decomp.levels[1].basis)
    for k, sub in decomp.levels.items():
        if k < 2 or sub.dim == 0:
            continue
        sigk = sigma_of_rvs(space, sub.basis)
        if not sigk.is_coarser_eq(sig1):
            return False
    return True
