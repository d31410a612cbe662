"""Noise-type Boolean algebras over finite spaces, presented by atoms.

The atoms are mutually independent sigma-fields whose join is the discrete
sigma-field; every element is the join of a subset of atoms, so the
element lattice is the powerset Boolean algebra on the atom indices.
Their mutual independence is the product-law walk of ``sigma.independent``
and ``sigma.commutes`` (``sigma._product_problem``) over the atom blocks.
Once the constructor has passed, the meet and join of the elements for
atom sets S and T are the elements for S & T and S | T, so no caller
recomputes that lattice from sigma-fields.
``validate_family`` audits an arbitrary family of at most ``MAX_FAMILY``
sigma-fields against the defining conditions instead (sublattice,
distributivity, then complement and independence member by member) and
reports the first failure with a witness; it is the general-family audit
and the ``ntba-constructions`` suite's oracle, for ``presentation_problem`` too.
"""

from __future__ import annotations

import itertools
from math import prod

from .errors import CapacityError, DomainMismatchError, Frozen, PreconditionError, Record
from .finmeas import RV, ProbSpace, mk_dyadic, space_from_json, space_to_json
from .sigma import (
    SigmaField,
    _group,
    _product_problem,
    discrete,
    independent,
    join,
    meet,
    partition_from_json,
    partition_to_json,
    trivial,
)

# validate_family's member limit: the 256 elements of ntba coords 8 take 4 s,
# nearly all of it in meets and joins, and 512 take 36 s
MAX_FAMILY = 256


class NTBA:
    """A noise-type Boolean algebra given by its ordered list of atoms."""

    def __init__(self, space: ProbSpace, atoms):
        self.space = space
        self.atoms = tuple(atoms)
        for a in self.atoms:
            if a.space != space:
                raise DomainMismatchError("atom on a different space")
        problem = self._independence_problem()
        if problem is not None:
            raise ValueError(problem)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def _independence_problem(self):
        if not self.atoms:
            return "an atom presentation needs at least one atom"
        for a in self.atoms:
            if a.n_blocks == 1:
                return "atoms must differ from the trivial sigma-field"
        key = _product_problem(self.atoms)
        if key is not None:
            return f"atoms are not mutually independent at block tuple {key}"
        # every cell is present, so the join has one block per block tuple
        if prod(a.n_blocks for a in self.atoms) != self.space.size:
            return "the join of the atoms is not the discrete sigma-field"
        return None

    def element(self, atomset) -> "NTBAElement":
        aset = frozenset(atomset)
        if not aset <= set(range(self.n_atoms)):
            raise ValueError("atomset contains unknown atom indices")
        return NTBAElement(self, aset)

    def elements(self):
        """All 2^n elements, by increasing atom-index bitmask."""
        n = self.n_atoms
        for mask in range(1 << n):
            yield self.element(i for i in range(n) if mask >> i & 1)

    def coatom(self, k: int) -> "NTBAElement":
        """The element of every atom but atom k (0-based)."""
        if not 0 <= k < self.n_atoms:
            n = self.n_atoms
            raise ValueError(f"atom k={k} is not in 0..{n - 1}: the algebra has {n} atoms")
        return self.element(i for i in range(self.n_atoms) if i != k)


class NTBAElement(Frozen):
    algebra: NTBA
    atomset: frozenset

    def realize(self) -> SigmaField:
        """The sigma-field this element stands for: the join of its atoms."""
        atoms = self.algebra.atoms
        return _group(self.algebra.space, [atoms[i].labels for i in sorted(self.atomset)])

    def complement(self) -> "NTBAElement":
        full = set(range(self.algebra.n_atoms))
        return NTBAElement(self.algebra, frozenset(full - self.atomset))

    def meet(self, other: "NTBAElement") -> "NTBAElement":
        return NTBAElement(self.algebra, self.atomset & other.atomset)

    def join(self, other: "NTBAElement") -> "NTBAElement":
        return NTBAElement(self.algebra, self.atomset | other.atomset)


def mk_coordinate_ntba(space: ProbSpace) -> NTBA:
    """Atoms sigma(xi_1), ..., sigma(xi_n) on a dyadic space."""
    n = len(space.outcomes[0])
    atoms = [_group(space, [[o[k] == "+" for o in space.outcomes]]) for k in range(n)]
    return NTBA(space, atoms)


def mk_parity_ntba(n: int, space: ProbSpace | None = None) -> NTBA:
    """Atoms sigma(xi_1 xi_2), ..., sigma(xi_n xi_{n+1}), sigma(xi_{n+1}).

    Lives on the dyadic space with n+1 coordinates; the n product-sign
    atoms plus the last coordinate are mutually independent and generate
    everything, yet the product signs alone do not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if space is None:
        space = mk_dyadic(n + 1)
    outcomes = space.outcomes
    atoms = [_group(space, [[o[k] == o[k + 1] for o in outcomes]]) for k in range(n)]
    atoms.append(_group(space, [[o[n] == "+" for o in outcomes]]))
    return NTBA(space, atoms)


def presentation_problem(space: ProbSpace, atoms) -> str | None:
    """The constructor's refusal, or the first dependent complement pair, or None.

    An exact product law of the atoms passes to every grouping of them, so
    only a law within a tolerance (``backend.tol``) leaves complement pairs
    to check, each once, from the element without the last atom.
    """
    try:
        algebra = NTBA(space, atoms)
    except ValueError as exc:
        return str(exc)
    if space.backend.tol is None:
        return None
    last = algebra.n_atoms - 1
    for e in algebra.elements():
        if last not in e.atomset and not independent(e.realize(), e.complement().realize()):
            return "complement pair not independent"
    return None


class FamilyVerdict(Record):
    valid: bool
    reason: str | None = None
    witness: tuple | None = None


def validate_family(space: ProbSpace, elems) -> FamilyVerdict:
    """Audit a family of sigma-fields against the defining conditions.

    Checks, in order: 0 and 1 are present; meet- and join-closure;
    distributivity over every element triple; then, member by member, that
    the member has a complement in the family and is independent of it.

    The pair pass computes ``meet`` and ``join`` once for each of the
    F(F-1)/2 pairs of the F distinct members and records the results as
    family indices in two symmetric tables (the diagonal is the element
    itself, since both operations are idempotent on canonical labels).
    Distributivity and the complement search are then table lookups.
    More than ``MAX_FAMILY`` distinct members raise ``CapacityError`` first.
    """
    family = list(dict.fromkeys(elems))
    for e in family:
        if e.space != space:
            raise DomainMismatchError("family member on a different space")
    n = len(family)
    if n > MAX_FAMILY:
        raise CapacityError(f"{n} family members exceed the guard of {MAX_FAMILY}")
    index = {e: i for i, e in enumerate(family)}
    bot, top = index.get(trivial(space)), index.get(discrete(space))
    if bot is None:
        return FamilyVerdict(False, "missing the trivial sigma-field", ())
    if top is None:
        return FamilyVerdict(False, "missing the discrete sigma-field", ())
    M = [[i] * n for i in range(n)]
    J = [[i] * n for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        x, y = family[i], family[j]
        m = index.get(meet(x, y))
        if m is None:
            return FamilyVerdict(False, "not closed under meet", (x, y))
        k = index.get(join(x, y))
        if k is None:
            return FamilyVerdict(False, "not closed under join", (x, y))
        M[i][j] = M[j][i] = m
        J[i][j] = J[j][i] = k
    # x ^ (y v z) == (x ^ y) v (x ^ z), symmetric in y and z: one row of z >= y per (x, y)
    for x, Mx in enumerate(M):
        for y, Jy in enumerate(J):
            JMxy = J[Mx[y]]
            if list(map(Mx.__getitem__, Jy[y:])) != list(map(JMxy.__getitem__, Mx[y:])):
                z = next(z for z in range(y, n) if Mx[Jy[z]] != JMxy[Mx[z]])
                witness = (family[x], family[y], family[z])
                return FamilyVerdict(False, "distributivity fails", witness)
    for i in range(n):
        c = next((j for j in range(n) if M[i][j] == bot and J[i][j] == top), None)
        if c is None:
            return FamilyVerdict(False, "element without complement", (family[i],))
        if not independent(family[i], family[c]):
            return FamilyVerdict(
                False, "complement pair not independent", (family[i], family[c])
            )
    return FamilyVerdict(True)


class Restriction(Record):
    """restrict() result: the quotient algebra plus the lifting maps."""

    algebra: NTBA
    quotient: SigmaField  # on the base space; block k is quotient outcome k
    atom_indices: tuple  # result atom -> original atom index

    def lift_rv(self, f: RV) -> RV:
        """Extend an RV on the quotient to the base space, constant on blocks."""
        if f.space != self.algebra.space:
            raise DomainMismatchError("lift_rv expects an RV on the quotient")
        space = self.quotient.space
        return RV(space, space.backend.lift(f.vec, self.quotient.labels))


def restrict(e: NTBAElement) -> Restriction:
    """The algebra of elements of ``e.algebra`` below e, on the quotient space.

    The new outcomes are the blocks of the sigma-field e realizes; the new
    atoms are e's atoms viewed as partitions of those blocks.  The empty
    element is rejected: its quotient is the one-outcome space on which
    every lattice question degenerates.  A quotient outcome is named by its
    block's outcome ids joined with "|"; ids that contain "|" can give two
    blocks one name, which raises ``ValueError`` naming it.
    """
    if not e.atomset:
        raise PreconditionError("restrict needs an element with at least one atom")
    algebra = e.algebra
    space = algebra.space
    x = e.realize()
    out_ids = tuple("|".join(space.outcomes[i] for i in b) for b in x.blocks)
    seen = set()
    for name in out_ids:
        if name in seen:
            raise ValueError(f"quotient outcome {name!r} names two blocks: outcome ids contain '|'")
        seen.add(name)
    qspace = ProbSpace(out_ids, x.weights, space.total)
    atom_indices = tuple(sorted(e.atomset))
    new_atoms = [
        _group(qspace, [[algebra.atoms[ai].labels[b[0]] for b in x.blocks]])
        for ai in atom_indices
    ]
    return Restriction(NTBA(qspace, new_atoms), x, atom_indices)


def ntba_to_json(algebra: NTBA) -> dict:
    return {
        "space": space_to_json(algebra.space),
        "atoms": [partition_to_json(a) for a in algebra.atoms],
    }


def presentation_from_json(obj: dict):
    """(space, atoms) of an algebra file, before the atoms are certified."""
    if type(obj) is not dict:
        raise ValueError("an algebra must be an object with a space and an atoms list")
    space = space_from_json(obj["space"])
    atoms = obj["atoms"]
    if type(atoms) is not list or not all(type(a) is dict for a in atoms):
        raise ValueError("atoms must be a list of objects with a blocks list")
    return space, [partition_from_json(space, a) for a in atoms]


def ntba_from_json(obj: dict) -> NTBA:
    return NTBA(*presentation_from_json(obj))


def coarsen(algebra: NTBA, groups) -> NTBA:
    """Sub-algebra whose atoms are joins of the given atom-index groups."""
    seen = set()
    atoms = []
    for g in groups:
        g = tuple(sorted(g))
        if not g or seen & set(g):
            raise ValueError("groups must be disjoint and nonempty")
        seen.update(g)
        atoms.append(algebra.element(g).realize())
    if seen != set(range(algebra.n_atoms)):
        raise ValueError("groups must cover all atoms")
    return NTBA(algebra.space, atoms)
