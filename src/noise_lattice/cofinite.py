"""Exact symbolic model of the countable sign-product algebra.

The ambient probability space is the infinite sequence of independent
signs xi_1, xi_2, ...  Two families of sigma-fields matter:

* tails t(m) generated by xi_m, xi_{m+1}, ... (so t(1) is everything), and
* pair signs y(k) generated by the single product xi_k xi_{k+1}.

The algebra B consists of all joins of finitely many y(k) with at most one
tail; it is Boolean-isomorphic to the finite/cofinite algebra of the pair
indices k, a tail t(m) standing for every k >= m.  Its monotone-limit
closure adds exactly the joins of y(k) over infinite index sets, which
have no tail and, famously, fall short of the corresponding tails:
sup_k y(k) is a proper sub-sigma-field of t(1) (a measurable function of
all pair signs cannot recover the signs themselves).  So an element is the
pair (tailed, index set): the set of pair indices it holds, and whether it
also holds a whole tail.  A tailed element's set is cofinite; the flag is
the gap between sup_k y(k) = (False, N) and t(1) = (True, N).  Meet and
join act on both parts at once, the complement in B flips both, and
equality is syntactic.  Sets and elements are immutable tuples of their
canonical fields, so comparing and hashing them are tuple comparison and
hashing.

An index set is an eventually periodic bit string, held as two integer
masks: a preperiod and one period, bit i-1 of a mask standing for its
i-th position.  Union, intersection and complement are a few shifts,
rotations and repetitions of those integers and one bitwise operation,
never a loop over positions.  A finite or cofinite set, which is every
index set of B, combines as one signed integer: its two's-complement
bits run on as zeros or ones past the preperiod, so union and
intersection are one ``|`` or ``&``.  No set may need more than
``MAX_BITS`` mask bits in its preperiod and period together (a finite
set up to k, or a tail t(k), takes k); a larger position, step or period
raises ``CapacityError``.
"""

from __future__ import annotations

import re
from math import lcm
from operator import and_, or_
from typing import NamedTuple

from .errors import CapacityError, Frozen, Record, UnsupportedSequenceError

MAX_BITS = 1 << 20


# ---------------------------------------------------------------------------
# Eventually periodic subsets of {1, 2, 3, ...}


def _guard(nbits: int) -> None:
    if nbits > MAX_BITS:
        raise CapacityError(f"{nbits} mask bits exceed the guard of {MAX_BITS}")


def _ones(n: int) -> int:
    return (1 << n) - 1


def _rotate(block: int, width: int, k: int) -> int:
    """The cyclic block read from its k-th bit on: bit j is old bit (j + k) mod width."""
    k %= width
    return (block >> k) | ((block & _ones(k)) << (width - k))


def _repeat(block: int, width: int, times: int) -> int:
    """``times`` copies of a ``width``-bit block, built by doubling."""
    if width == 1:
        return _ones(times) if block else 0
    out = shift = 0
    while True:
        if times & 1:
            out |= block << shift
            shift += width
        times >>= 1
        if not times:
            return out
        block |= block << width
        width *= 2


def _primitive(per: int, nper: int) -> int:
    """Length of the primitive period of a cyclic block.

    The rotations that fix the block are the multiples of its primitive
    period, so the first return of the block inside its doubled word is
    at exactly that shift.  A one-bit block is its own primitive period.
    """
    if nper == 1:
        return 1
    text = _text(per, nper)
    return (text + text).find(text, 1)


def _members(mask: int) -> tuple:
    """The positions (bit i-1 is position i) set in a mask."""
    return tuple(i for i, c in enumerate(bin(mask)[:1:-1], 1) if c == "1")


def _text(mask: int, n: int) -> str:
    """The n bits of a mask in position order, as '0'/'1' text."""
    return bin(mask | 1 << n)[3:][::-1]


class NatSet(NamedTuple):
    """An eventually periodic set of positive integers, as two bit masks.

    Bit i-1 of ``pre`` holds position i for i = 1..npre; after that the
    ``nper`` bits of ``per`` repeat forever, bit j holding the positions
    npre + 1 + j + c*nper.  The canonical form (primitive period, shortest
    preperiod) is unique, so equality of the four canonical fields decides
    set equality, and equal sets hash alike.  Construct through ``natset``
    or the set builders below.
    """

    pre: int
    npre: int
    per: int
    nper: int

    def bit(self, p: int) -> int:
        if p <= 0:
            raise ValueError("positions start at 1")
        if p <= self.npre:
            return self.pre >> (p - 1) & 1
        return self.per >> ((p - self.npre - 1) % self.nper) & 1

    def __contains__(self, p: int) -> bool:
        return self.bit(p) == 1

    @property
    def is_finite(self) -> bool:
        return self.per == 0

    @property
    def is_cofinite(self) -> bool:
        return self.per == 1 and self.nper == 1

    @property
    def is_empty(self) -> bool:
        return self.per == 0 and self.pre == 0

    def _prefix(self, n: int) -> int:
        """The mask of positions 1..n."""
        if n <= self.npre:
            return self.pre & _ones(n)
        _guard(n)
        k = n - self.npre
        periodic = _repeat(self.per, self.nper, -(-k // self.nper)) & _ones(k)
        return self.pre | periodic << self.npre

    def indices_up_to(self, n: int) -> list:
        return list(_members(self._prefix(n)))

    def finite_indices(self) -> tuple:
        if not self.is_finite:
            raise ValueError("the set is infinite")
        return _members(self.pre)

    def max_or_zero(self) -> int:
        """Largest member of a finite set, 0 when empty."""
        if not self.is_finite:
            raise ValueError("the set is infinite")
        return self.pre.bit_length()

    def _extend(self, npre: int, nper: int) -> tuple:
        """(pre, per) masks of this set for a longer preperiod and a multiple period."""
        if npre == self.npre and nper == self.nper:
            return self.pre, self.per
        per = _rotate(self.per, self.nper, npre - self.npre)
        return self._prefix(npre), _repeat(per, self.nper, nper // self.nper)

    def _combine(self, other: "NatSet", op, absorbing: int) -> "NatSet":
        """Apply a bitwise op to both sets over max(npre) and lcm(nper) bits.

        A finite or cofinite set (period one bit) is one two's-complement
        integer, pre | -(per << npre), its ones or zeros running on forever,
        so two of them combine in one op; a negative result is cofinite,
        its preperiod ending at its last zero.  When one set's period is
        the single bit that absorbs the op (1 for union, 0 for
        intersection), so is the result's: both sets are then read over
        max(npre) bits only, whatever the other period.  Neither route
        needs a guard, since each operand already has npre + nper <=
        MAX_BITS.
        """
        if self.nper == other.nper == 1:
            # canonical by construction: built as a tuple, past namedtuple's __new__
            m = op(self.pre | -(self.per << self.npre), other.pre | -(other.per << other.npre))
            if m >= 0:
                return tuple.__new__(NatSet, (m, m.bit_length(), 0, 1))
            keep = (~m).bit_length()
            return tuple.__new__(NatSet, (m & _ones(keep), keep, 1, 1))
        npre = max(self.npre, other.npre)
        if (1, absorbing) in ((self.nper, self.per), (other.nper, other.per)):
            return _canon(op(self._prefix(npre), other._prefix(npre)), npre, absorbing, 1)
        nper = lcm(self.nper, other.nper)
        _guard(npre + nper)
        (a, p), (b, q) = self._extend(npre, nper), other._extend(npre, nper)
        return _canon(op(a, b), npre, op(p, q), nper)

    def union(self, other: "NatSet") -> "NatSet":
        return self._combine(other, or_, 1)

    def intersect(self, other: "NatSet") -> "NatSet":
        return self._combine(other, and_, 0)

    def complement(self) -> "NatSet":
        # flipping every bit keeps the period primitive and the preperiod shortest
        return NatSet(
            self.pre ^ _ones(self.npre), self.npre, self.per ^ _ones(self.nper), self.nper
        )

    def __str__(self) -> str:
        return f"{{{_text(self.pre, self.npre)};{_text(self.per, self.nper)}}}"


def _canon(pre: int, npre: int, per: int, nper: int) -> NatSet:
    """Primitive period, then the shortest preperiod."""
    nper = _primitive(per, nper)
    per &= _ones(nper)
    if npre:
        # the period run backwards from the last preperiod position; the
        # preperiod bits above the highest mismatch join the periodic part
        reps = -(-npre // nper)
        back = _repeat(per, nper, reps) >> (reps * nper - npre)
        keep = (pre ^ back).bit_length()
        per = _rotate(per, nper, keep - npre)
        pre &= _ones(keep)
        npre = keep
    return NatSet(pre, npre, per, nper)


def _finite(mask: int) -> NatSet:
    return NatSet(mask, mask.bit_length(), 0, 1)


def _mask(bits) -> int:
    return int("".join(str(int(b)) for b in reversed(bits)) or "0", 2)


def natset(pre, per) -> NatSet:
    """Canonicalize and build from bit sequences (0/1 or '0'/'1')."""
    pre, per = list(pre), list(per) or [0]
    _guard(len(pre) + len(per))
    return _canon(_mask(pre), len(pre), _mask(per), len(per))


EMPTY_SET = _finite(0)
FULL_SET = NatSet(0, 0, 1, 1)


def finite_set(indices) -> NatSet:
    indices = set(indices)
    if not indices:
        return EMPTY_SET
    if min(indices) < 1:
        raise ValueError("positions start at 1")
    _guard(max(indices) + 1)
    mask = 0
    for p in indices:
        mask |= 1 << (p - 1)
    return _finite(mask)


def range_set(lo: int, hi: int) -> NatSet:
    """The finite set {lo, ..., hi-1}."""
    lo = max(lo, 1)
    if hi <= lo:
        return EMPTY_SET
    _guard(hi)
    return _finite(_ones(hi - 1) ^ _ones(lo - 1))


def tail_set(m: int) -> NatSet:
    """The cofinite set {m, m+1, ...}."""
    m = max(m, 1)
    _guard(m)
    return NatSet(0, m - 1, 1, 1)


def progression(step: int, offset: int = 0) -> NatSet:
    """Arithmetic progression {p >= 1 : p = offset mod step}."""
    if step < 1:
        raise ValueError("step must be positive")
    _guard(step)
    return NatSet(0, 0, 1 << (offset - 1) % step, step)


# ---------------------------------------------------------------------------
# Elements of the algebra, its closure, and the lattice operations


class _CofFields(NamedTuple):
    tailed: bool
    index_set: NatSet


class CofElem(_CofFields):
    """Canonical element: a tail flag plus the set of pair indices it holds.

    ``index_set`` holds k when the element contains y(k), and a tail t(m)
    counts as every k >= m, so a tailed element's index set is cofinite;
    ``tailed`` says whether the element holds a whole tail.  The flag is the
    gap between the two: (False, N) is sup_k y(k), strictly below
    (True, N) = t(1) = 1.  The pair is unique, so equality of the two
    canonical fields decides element equality, and equal elements hash
    alike.  The element is in the algebra B iff it is tailed or its index
    set is finite.
    """

    __slots__ = ()

    def __new__(cls, tailed: bool, index_set: NatSet):
        if tailed and not index_set.is_cofinite:
            raise ValueError("a tailed element needs a cofinite index set")
        return tuple.__new__(cls, (tailed, index_set))

    @property
    def tail(self) -> int | None:
        """The m of the largest tail t(m) in the element, None without one."""
        return self.index_set.npre + 1 if self.tailed else None

    @property
    def ys(self) -> NatSet:
        """The pair indices outside the tail (all of them without one)."""
        return _finite(self.index_set.pre) if self.tailed else self.index_set


def cof_elem(tail: int | None, ys: NatSet) -> CofElem:
    """The join of t(tail) (none when ``tail`` is None) and y(k) for k in ys."""
    if tail is None:
        return CofElem(False, ys)
    if tail < 1:
        raise ValueError("tail starts at 1")
    return CofElem(True, ys.union(tail_set(tail)))


ZERO = CofElem(False, EMPTY_SET)
ONE = CofElem(True, FULL_SET)


def y(k: int) -> CofElem:
    return CofElem(False, finite_set([k]))


def x(m: int) -> CofElem:
    return cof_elem(m, EMPTY_SET)


def ys_elem(s: NatSet) -> CofElem:
    return CofElem(False, s)


def cof_meet(a: CofElem, b: CofElem) -> CofElem:
    """Lattice meet, exact: both flags and both index sets meet.

    Rewritten over the independent generators y(1), ..., y(m-1), t(m) at a
    tail m past both preperiods (t(k) = y(k) v ... v y(m-1) v t(m)), each
    element is a join of generators, and the meet keeps the shared ones.
    The result is built as a tuple, past ``CofElem.__new__``: it keeps the
    tailed-cofinite invariant by construction, since it is tailed only when
    both operands are, and two cofinite sets meet in a cofinite set.
    """
    s = a.index_set._combine(b.index_set, and_, 0)
    return tuple.__new__(CofElem, (a.tailed and b.tailed, s))


def cof_join(a: CofElem, b: CofElem) -> CofElem:
    """Lattice join, built like ``cof_meet``'s result: a tailed join unions
    a cofinite set, whose one-bit period absorbs the other's."""
    s = a.index_set._combine(b.index_set, or_, 1)
    return tuple.__new__(CofElem, (a.tailed or b.tailed, s))


def cof_leq(a: CofElem, b: CofElem) -> bool:
    return cof_meet(a, b) == a


def in_algebra(e: CofElem) -> bool:
    return e.tailed or e.index_set.is_finite


def closure_membership(e: CofElem) -> str:
    """Either "B" or "Cl(B)\\B" (the element is always in the closure)."""
    return "B" if in_algebra(e) else "Cl(B)\\B"


def has_complement(e: CofElem) -> CofElem | None:
    """The unique complement in the closure, or None.

    A tailless element with infinitely many pair indices meets every tail
    in a nonzero element, so nothing is jointly disjoint from it and large
    enough to join to the top; the complemented elements of the closure
    are therefore exactly the members of B.
    """
    if not in_algebra(e):
        return None
    return CofElem(not e.tailed, e.index_set.complement())


def complement_problems() -> list:
    """(element, note) per failure of "the completion is B itself"; empty if none.

    On ``bounded_elements(6, 7)`` and four infinite joins, a member of B has
    one complement in the probe, and it meets it in 0 and joins it to 1; a
    non-member has none, from ``has_complement`` or in the probe.
    """
    probe = bounded_elements(6, 7)
    infinite = [
        ys_elem(s) for s in (progression(2), progression(2, 1), progression(3), tail_set(4))
    ]
    problems = []
    for e in probe + infinite:
        comp = has_complement(e)
        found = [c for c in probe if cof_meet(e, c) == ZERO and cof_join(e, c) == ONE]
        if not in_algebra(e):
            if comp is not None:
                problems.append((e, "spurious"))
            if found:
                problems.append((e, "closure complement found"))
        elif comp is None:
            problems.append((e, "no complement"))
        else:
            if cof_meet(e, comp) != ZERO or cof_join(e, comp) != ONE:
                problems.append((e, "bad complement"))
            if any(c != comp for c in found):
                problems.append((e, "not unique"))
    return problems


# ---------------------------------------------------------------------------
# Monotone sequences from a closed descriptor family


class PrefixJoins(Frozen):
    """Increasing: term n is the join of y(k) for k in the index set, k <= n."""

    index_set: NatSet

    def term(self, n: int) -> CofElem:
        return ys_elem(self.index_set.intersect(range_set(1, n + 1)))


class TailChain(Frozen):
    """Decreasing: term n is t(start + n - 1)."""

    start: int = 1

    def term(self, n: int) -> CofElem:
        return x(self.start + n - 1)


class ComplementChain(Frozen):
    """Decreasing: complements (in B) of the prefix joins of an index set."""

    index_set: NatSet

    def term(self, n: int) -> CofElem:
        return has_complement(PrefixJoins(self.index_set).term(n))


class EventuallyConstant(Frozen):
    """Explicit monotone prefix, then the last element forever."""

    elems: tuple

    def term(self, n: int) -> CofElem:
        return self.elems[min(n, len(self.elems)) - 1]


def monotone_limit(seq) -> CofElem:
    """Exact monotone limit of a descriptor-family sequence.

    Justified by the character calculus of the sign space: each element
    corresponds to the group of finite sign-products it can measure, the
    limit of a monotone chain corresponds to the union/intersection of
    those groups, and for every descriptor in the family that union or
    intersection is again represented by a (tailed, index set) pair.
    """
    if isinstance(seq, PrefixJoins):
        return ys_elem(seq.index_set)
    if isinstance(seq, TailChain):
        return ZERO
    if isinstance(seq, ComplementChain):
        return CofElem(seq.index_set.is_finite, seq.index_set.complement())
    if isinstance(seq, EventuallyConstant):
        _require_monotone(seq.elems)
        return seq.elems[-1]
    raise UnsupportedSequenceError(f"no limit rule for {type(seq).__name__}")


def _require_monotone(elems) -> bool:
    """Whether an explicit sequence increases (else it decreases)."""
    pairs = list(zip(elems, elems[1:]))
    if all(cof_leq(a, b) for a, b in pairs):
        return True
    if all(cof_leq(b, a) for a, b in pairs):
        return False
    raise UnsupportedSequenceError("explicit sequence is not monotone")


def _increasing_in_algebra(seq):
    """The increasing descriptors whose terms stay inside B."""
    if isinstance(seq, PrefixJoins):
        return True
    if isinstance(seq, EventuallyConstant):
        return _require_monotone(seq.elems) and all(in_algebra(e) for e in seq.elems)
    return False


class CompletionCheck(Record):
    holds: bool
    sup: CofElem
    inf_complements: CofElem
    joined: CofElem


def completion_criterion_check(seq) -> CompletionCheck:
    """Whether sup of the sequence joined with inf of the complements is top.

    Exactly the increasing sequences whose supremum is complemented in the
    closure pass; the prefix joins over an infinite index set famously
    fail, their supremum having no complement.
    """
    if not _increasing_in_algebra(seq):
        raise UnsupportedSequenceError(
            "need an increasing sequence of algebra elements"
        )
    sup = monotone_limit(seq)
    if isinstance(seq, PrefixJoins):
        infc = monotone_limit(ComplementChain(seq.index_set))
    else:
        infc = has_complement(seq.elems[-1])
    joined = cof_join(sup, infc)
    return CompletionCheck(joined == ONE, sup, infc, joined)


class DoubleLimitCheck(Record):
    equal: bool
    joined_limits: CofElem


def double_limit_check(seq) -> DoubleLimitCheck:
    """Compare (lim x_n) v (lim x'_n) with lim_m lim_n (x_m v x'_n).

    The inner limit over n is taken first (a decreasing chain once m is
    fixed), then m grows.  The left side is ``completion_criterion_check``'s
    join, under its guard; the right side is evaluated in closed form, and
    the two are expected to agree for every descriptor in the family.
    """
    lhs = completion_criterion_check(seq).joined
    if isinstance(seq, EventuallyConstant):
        # both sequences are constant from some term on
        return DoubleLimitCheck(True, lhs)
    i = seq.index_set
    if i.is_finite:
        rhs = cof_join(seq.term(i.max_or_zero() + 1), has_complement(ys_elem(i)))
    else:
        # inner limit at level m: join of the prefix with the complement's
        # eventual part, a tailless element; the outer limit is increasing.
        rhs = ys_elem(i.complement().union(i))
    return DoubleLimitCheck(lhs == rhs, lhs)


# ---------------------------------------------------------------------------
# Ultrafilters and atomlessness


class CofUltrafilter(Frozen):
    kind: str  # "principal" | "frechet"
    index: int | None = None

    def contains(self, e: CofElem) -> bool:
        if self.kind == "principal":
            return self.index in e.index_set
        return e.tailed

    def infimum(self) -> CofElem:
        if self.kind == "principal":
            return y(self.index)
        return ZERO


def enumerate_ultrafilters(max_index: int = 8) -> list:
    """The ultrafilters of the algebra: principal at each index, plus the
    tails-only (Frechet) one.  Principal filters are listed up to
    max_index; the family continues in the obvious way."""
    out = [CofUltrafilter("principal", k) for k in range(1, max_index + 1)]
    out.append(CofUltrafilter("frechet"))
    return out


def is_atomless() -> tuple:
    """(False, witness): a principal ultrafilter has a nonzero infimum."""
    witness = CofUltrafilter("principal", 1)
    return witness.infimum() == ZERO, witness


# ---------------------------------------------------------------------------
# Text syntax


_TOKEN = re.compile(
    r"^(?:x(?P<tail>\d+)|y(?P<single>\d+)|Y\((?P<step>\d+)k(?:\+(?P<off>\d+))?\)"
    r"|Y\{(?P<pre>[01]*);(?P<per>[01]+)\}|(?P<zero>0)|(?P<one>1))$"
)


def parse_elem(text: str) -> CofElem:
    """Parse 'x3', 'y1|y4', 'Y(2k)', 'Y{01;10}', or joins of those."""
    out = ZERO
    for token in text.replace(" ", "").split("|"):
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"cannot parse element part {token!r}")
        if m["tail"] is not None:
            part = x(int(m["tail"]))
        elif m["single"] is not None:
            part = y(int(m["single"]))
        elif m["step"] is not None:
            part = ys_elem(progression(int(m["step"]), int(m["off"] or 0)))
        elif m["pre"] is not None:
            part = ys_elem(natset(m["pre"], m["per"]))
        elif m["zero"] is not None:
            part = ZERO
        else:
            part = ONE
        out = cof_join(out, part)
    return out


def format_elem(e: CofElem) -> str:
    if e == ZERO:
        return "0"
    if e == ONE:
        return "1"
    parts = []
    if e.ys.is_finite:
        parts.extend(f"y{k}" for k in e.ys.finite_indices())
    elif not e.ys.is_empty:
        parts.append(f"Y{e.ys}")
    if e.tail is not None:
        parts.append(f"x{e.tail}")
    return "|".join(parts)


def bounded_elements(max_support: int, max_tail: int):
    """All elements with pair indices below max_support and tail <= max_tail,
    plus the tailless ones; the canonical finite probe set for exhaustive
    lattice-law and completion tests."""
    out = set()
    for mask in range(1 << max_support):
        s = _finite(mask)
        out.add(ys_elem(s))
        for m in range(1, max_tail + 1):
            out.add(cof_elem(m, s))
    return sorted(out, key=lambda e: (e.tail or 0, str(e.ys)))
