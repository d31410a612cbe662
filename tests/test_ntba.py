"""Noise-type Boolean algebra construction, validation, restriction."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from conftest import (
    cond_independent_oracle,
    join_oracle,
    meet_oracle,
    rand_ntba_chained,
    scan_family_oracle,
    set_partitions,
)

from noise_lattice import ntba
from noise_lattice.errors import CapacityError, DomainMismatchError, PreconditionError
from noise_lattice.finmeas import coordinate_sign, mk_dyadic, mk_space, product
from noise_lattice.instances import (
    rand_atom_groups,
    rand_space,
    rand_element,
    rand_ntba,
    rand_partition,
)
from noise_lattice.ntba import (
    NTBA,
    FamilyVerdict,
    coarsen,
    mk_coordinate_ntba,
    mk_parity_ntba,
    ntba_from_json,
    ntba_to_json,
    restrict,
    validate_family,
)
from noise_lattice.sigma import (
    discrete,
    independent,
    join,
    lift_partition,
    meet,
    partition,
    sigma_of_rvs,
    trivial,
)


def test_coordinate_ntba_shape():
    B = mk_coordinate_ntba(mk_dyadic(2))
    assert B.n_atoms == 2
    assert len(list(B.elements())) == 4
    assert B.element(range(B.n_atoms)).realize() == discrete(B.space)
    verdict = validate_family(B.space, [e.realize() for e in B.elements()])
    assert verdict.valid


def test_second_ntba_structure_on_same_space():
    s2 = mk_dyadic(2)
    x1 = sigma_of_rvs(s2, [coordinate_sign(s2, 1)])
    prod = sigma_of_rvs(s2, [coordinate_sign(s2, 1) * coordinate_sign(s2, 2)])
    verdict = validate_family(s2, [trivial(s2), x1, prod, discrete(s2)])
    assert verdict.valid
    B = NTBA(s2, [x1, prod])
    assert B.element(range(B.n_atoms)).realize() == discrete(s2)


def verdict_cases():
    """(space, family, reason, witness): one family per verdict of validate_family."""
    s4 = mk_space(["a", "b", "c", "d"], [Fraction(1, 4)] * 4)
    bot, top = trivial(s4), discrete(s4)
    a = partition(s4, [[0, 1], [2, 3]])
    b = partition(s4, [[0, 2], [1, 3]])
    c = partition(s4, [[0, 3], [1, 2]])
    a_again = partition(s4, [[0, 1], [2, 3]])
    p = partition(s4, [[0, 1], [2], [3]])
    q = partition(s4, [[0], [1, 2], [3]])
    r = partition(s4, [[0, 1, 2], [3]])
    return [
        (s4, [a, top], "missing the trivial sigma-field", ()),
        (s4, [bot, a], "missing the discrete sigma-field", ()),
        (s4, [bot, p, q, top], "not closed under meet", (p, q)),
        (s4, [bot, a, r, top], "not closed under join", (a, r)),
        (s4, [bot, a, b, c, top], "distributivity fails", (a, b, c)),
        (s4, [bot, a, a_again, top], "element without complement", (a,)),
        (s4, [bot, a, b, a_again, top, b, bot], None, None),
    ]


def test_validate_family_verdicts_and_witnesses():
    for space, family, reason, witness in verdict_cases():
        verdict = validate_family(space, family)
        assert verdict == FamilyVerdict(reason is None, reason, witness)
        # the witness is made of the first-listed members themselves
        for w in verdict.witness or ():
            assert next(e for e in family if e == w) is w


def test_validate_family_rejects_dependent_complement(uniform3):
    x = partition(uniform3, [[0], [1, 2]])
    y = partition(uniform3, [[0, 1], [2]])
    verdict = validate_family(
        uniform3, [trivial(uniform3), x, y, discrete(uniform3)]
    )
    assert verdict == FamilyVerdict(False, "complement pair not independent", (x, y))


def test_validate_family_needs_closure():
    s2 = mk_dyadic(2)
    x1 = sigma_of_rvs(s2, [coordinate_sign(s2, 1)])
    verdict = validate_family(s2, [trivial(s2), x1, discrete(s2)])
    assert verdict == FamilyVerdict(False, "element without complement", (x1,))


def test_validate_family_accepts_a_generator():
    B = mk_coordinate_ntba(mk_dyadic(2))
    assert validate_family(B.space, (e.realize() for e in B.elements())).valid


def oracle_families():
    """Families for the oracle comparison: valid, broken and oversized."""
    for space, family, _, _ in verdict_cases():
        yield space, family
    s3 = mk_space(["a", "b", "c"], [Fraction(1, 3)] * 3)
    x, y = partition(s3, [[0], [1, 2]]), partition(s3, [[0, 1], [2]])
    yield s3, [trivial(s3), x, y, discrete(s3)]  # dependent complements
    for mode in ("rational", "float"):
        for seed in range(50):
            rng = random.Random(seed)
            B = rand_ntba(rng, 16, mode)
            family = [e.realize() for e in B.elements()]
            yield B.space, family
            if len(family) > 2:
                family_less = list(family)
                del family_less[rng.randrange(1, len(family) - 1)]
                yield B.space, family_less
            yield B.space, family + [rand_partition(rng, B.space)]
    # above 64 members: a valid family of 128, and one of 80 distributive only in part
    B = mk_coordinate_ntba(mk_dyadic(7))
    yield B.space, [e.realize() for e in B.elements()]
    yield m3_times_boolean()


def m3_times_boolean():
    """(space, family): M3 times the 16 elements of a 4-atom algebra, 80 members."""
    m3_space, m3, _, _ = next(c for c in verdict_cases() if c[2] == "distributivity fails")
    B = mk_coordinate_ntba(mk_dyadic(4))
    prod = product(m3_space, B.space)
    return prod.space, [
        join(lift_partition(prod, x, 0), lift_partition(prod, e.realize(), 1))
        for x in m3
        for e in B.elements()
    ]


def test_validate_family_matches_the_scan_oracle():
    verdicts = set()
    for space, family in oracle_families():
        got = validate_family(space, family)
        want = scan_family_oracle(space, family)
        assert got == want
        assert all(g is w for g, w in zip(got.witness or (), want.witness or ()))
        verdicts.add(got.reason)
    assert len(verdicts) == 8  # every branch, valid included


def test_validate_family_scans_every_triple_above_64_members():
    space, family = m3_times_boolean()
    got = validate_family(space, family)
    assert got == scan_family_oracle(space, family)
    # the first failing triple: M3's three middle elements, each with the Boolean zero
    assert got.reason == "distributivity fails"
    assert [family.index(w) for w in got.witness] == [16, 32, 48]


def test_validate_family_refuses_families_above_the_limit(monkeypatch):
    def refuse(x, y):
        raise AssertionError("the pair pass ran")

    B = mk_coordinate_ntba(mk_dyadic(9))
    family = [e.realize() for e in B.elements()][: ntba.MAX_FAMILY + 1]
    monkeypatch.setattr(ntba, "meet", refuse)
    monkeypatch.setattr(ntba, "join", refuse)
    with pytest.raises(CapacityError) as exc:
        validate_family(B.space, family + family)  # counted once per distinct member
    n = ntba.MAX_FAMILY + 1
    assert str(exc.value) == f"{n} family members exceed the guard of {ntba.MAX_FAMILY}"


FOUR_OUTCOME_MEASURES = {
    "uniform": [Fraction(1, 4)] * 4,
    "product": [Fraction(1, 12), Fraction(1, 4), Fraction(1, 6), Fraction(1, 2)],
    "product-float": [1 / 12, 1 / 4, 1 / 6, 1 / 2],
}
# the reasons of validate_family, by the condition of the definition that fails
REASON_CONDITION = {
    "not closed under meet": "closure",
    "not closed under join": "closure",
    "distributivity fails": "distributivity",
    "element without complement": "complement",
    "complement pair not independent": "independence",
}


def definition_failure(members, meet_of, join_of, indep, bot, top):
    """The first condition of the definition a family of field indices fails, or None.

    Conditions in order: closed under meet and join, distributive over
    every triple, then member by member in the listed order: a complement
    in the family, and one independent of the member.
    """
    fam = set(members)
    if any(meet_of[x][y] not in fam or join_of[x][y] not in fam for x in fam for y in fam):
        return "closure"
    for x, y, z in itertools.product(fam, repeat=3):
        if meet_of[x][join_of[y][z]] != join_of[meet_of[x][y]][meet_of[x][z]]:
            return "distributivity"
    for x in members:
        comps = [y for y in fam if meet_of[x][y] == bot and join_of[x][y] == top]
        if not comps:
            return "complement"
        if not any(indep[x][y] for y in comps):
            return "independence"
    return None


def test_validate_family_matches_the_definition_on_every_four_outcome_family():
    """Every family of partitions of four outcomes that holds 0 and 1, up to 8 members.

    The 13 other partitions give 4,096 families, each checked on three
    measures against the definition read off the set-system oracles.
    """
    groupings = list(set_partitions(list(range(4))))
    assert len(groupings) == 15
    for name, probs in FOUR_OUTCOME_MEASURES.items():
        space = mk_space(["a", "b", "c", "d"], probs)
        fields = [partition(space, g) for g in groupings]
        index = {f: i for i, f in enumerate(fields)}
        bot, top = index[trivial(space)], index[discrete(space)]
        meet_of = [[index[meet_oracle(x, y)] for y in fields] for x in fields]
        join_of = [[index[join_oracle(x, y)] for y in fields] for x in fields]
        indep = [[cond_independent_oracle(x, y, fields[bot]) for y in fields] for x in fields]
        others = [i for i in range(15) if i not in (bot, top)]
        families = [
            (bot, *chosen, top)
            for size in range(7)
            for chosen in itertools.combinations(others, size)
        ]
        assert len(families) == 4096
        verdicts = set()
        for members in families:
            want = definition_failure(members, meet_of, join_of, indep, bot, top)
            got = validate_family(space, [fields[i] for i in members])
            assert got.valid == (want is None), (name, members)
            assert REASON_CONDITION.get(got.reason) == want, (name, members, got.reason)
            verdicts.add(want)
        assert verdicts == {None, *REASON_CONDITION.values()}, name


def test_validate_family_computes_each_pair_once(monkeypatch):
    calls = {"meet": 0, "join": 0}

    def counted(name, op):
        def wrapper(x, y):
            calls[name] += 1
            return op(x, y)

        return wrapper

    monkeypatch.setattr(ntba, "meet", counted("meet", ntba.meet))
    monkeypatch.setattr(ntba, "join", counted("join", ntba.join))
    B = mk_coordinate_ntba(mk_dyadic(4))
    family = [e.realize() for e in B.elements()]
    cases = [(B.space, family + family[::-1])]
    cases += [(space, fam) for space, fam, _, _ in verdict_cases()]
    for space, fam in cases:
        calls.update(meet=0, join=0)
        validate_family(space, fam)
        f = len(set(fam))
        assert calls["meet"] <= f * (f - 1) // 2
        assert calls["join"] <= f * (f - 1) // 2


def test_parity_ntba_examples():
    P1 = mk_parity_ntba(1)
    assert P1.n_atoms == 2 and P1.space.size == 4
    assert independent(P1.atoms[0], P1.atoms[1])
    P2 = mk_parity_ntba(2)
    assert P2.n_atoms == 3
    assert len(list(P2.elements())) == 8
    # joining only the pair-sign atoms leaves the sign-flip pairing
    y_only = P2.element([0, 1]).realize()
    assert y_only.n_blocks == 4
    assert all(len(b) == 2 for b in y_only.blocks)
    assert y_only != discrete(P2.space)


def test_atoms_must_be_independent():
    s2 = mk_dyadic(2)
    x1 = sigma_of_rvs(s2, [coordinate_sign(s2, 1)])
    with pytest.raises(ValueError):
        NTBA(s2, [x1, x1])


def test_atoms_must_generate():
    s3 = mk_dyadic(3)
    x1 = sigma_of_rvs(s3, [coordinate_sign(s3, 1)])
    x2 = sigma_of_rvs(s3, [coordinate_sign(s3, 2)])
    with pytest.raises(ValueError):
        NTBA(s3, [x1, x2])


def test_complement_examples():
    P2 = mk_parity_ntba(2)
    assert P2.element(()).complement() == P2.element(range(P2.n_atoms))
    x3_elem = P2.element([2])
    comp = x3_elem.complement()
    assert comp.atomset == frozenset({0, 1})
    e = P2.element([0, 2])
    assert e.complement().complement() == e
    # complement pairs: trivial meet, full join, independent
    p, q = e.realize(), e.complement().realize()
    assert meet(p, q) == trivial(P2.space)
    assert join(p, q) == discrete(P2.space)
    assert independent(p, q)


def test_element_lattice_mirrors_atomsets():
    rng = random.Random(30)
    for _ in range(25):
        B = rand_ntba(rng, 32)
        e1, e2 = rand_element(rng, B), rand_element(rng, B)
        assert meet(e1.realize(), e2.realize()) == e1.meet(e2).realize()
        assert join(e1.realize(), e2.realize()) == e1.join(e2).realize()


def test_generated_subalgebra_atoms_are_nonzero_meets():
    rng = random.Random(31)
    for _ in range(20):
        B = rand_ntba(rng, 32)
        g1, g2 = rand_atom_groups(rng, B), rand_atom_groups(rng, B)
        b1, b2 = coarsen(B, g1), coarsen(B, g2)
        got = {
            meet(a1, a2)
            for a1 in b1.atoms
            for a2 in b2.atoms
            if meet(a1, a2) != trivial(B.space)
        }
        want = {
            B.element(set(x) & set(y)).realize()
            for x in g1
            for y in g2
            if set(x) & set(y)
        }
        assert got == want


def test_restrict_coordinate_to_single_atom():
    B = mk_coordinate_ntba(mk_dyadic(2))
    r = restrict(B.element([0]))
    assert r.algebra.space.size == 2
    assert r.algebra.n_atoms == 1
    assert r.algebra.space.probs == (Fraction(1, 2), Fraction(1, 2))


def test_restrict_full_element_is_isomorphic():
    B = mk_coordinate_ntba(mk_dyadic(2))
    r = restrict(B.element(range(B.n_atoms)))
    assert r.algebra.space.size == B.space.size
    assert [a.blocks for a in r.algebra.atoms] == [a.blocks for a in B.atoms]


def test_restrict_parity_to_pair_atoms():
    P2 = mk_parity_ntba(2)
    r = restrict(P2.element([0, 1]))
    assert r.algebra.space.size == 4
    assert r.algebra.n_atoms == 2


def test_restrict_rejects_empty_element():
    B = mk_coordinate_ntba(mk_dyadic(2))
    with pytest.raises(PreconditionError):
        restrict(B.element(()))


def test_restrict_lift_preserves_inner_products():
    from noise_lattice.finmeas import inner
    from noise_lattice.instances import rand_rv

    rng = random.Random(32)
    B = mk_coordinate_ntba(mk_dyadic(3))
    r = restrict(B.element([0, 2]))
    f = rand_rv(rng, r.algebra.space)
    g = rand_rv(rng, r.algebra.space)
    assert inner(r.lift_rv(f), r.lift_rv(g)) == inner(f, g)


def test_parity_recodes_to_coordinates():
    for n in (1, 2, 3, 4):
        space = mk_dyadic(n + 1)
        index = {o: i for i, o in enumerate(space.outcomes)}
        perm = []
        for o in space.outcomes:
            signs = [1 if c == "+" else -1 for c in o]
            recoded = [signs[i] * signs[i + 1] for i in range(n)] + [signs[n]]
            perm.append(index["".join("+" if s == 1 else "-" for s in recoded)])
        par = mk_parity_ntba(n, space)
        coord = mk_coordinate_ntba(space)
        for k in range(n + 1):
            mapped = partition(
                space, [[perm[i] for i in b] for b in par.atoms[k].blocks]
            )
            assert mapped == coord.atoms[k]


def test_sign_constructors_match_explicit_atoms():
    for n in (1, 2, 3, 4):
        space = mk_dyadic(n)
        xi = [coordinate_sign(space, k) for k in range(1, n + 1)]
        assert list(mk_coordinate_ntba(space).atoms) == [sigma_of_rvs(space, [f]) for f in xi]
        P = mk_parity_ntba(n)
        xi = [coordinate_sign(P.space, k) for k in range(1, n + 2)]
        want = [sigma_of_rvs(P.space, [xi[k] * xi[k + 1]]) for k in range(n)]
        assert list(P.atoms) == want + [sigma_of_rvs(P.space, [xi[n]])]


def test_coordinate_ntba_builds_in_near_linear_time():
    # 2^14 outcomes take about 1.4 s on a 2-core Xeon; a build quadratic in
    # the outcome count takes close to a minute there
    t0 = time.perf_counter()
    B = mk_coordinate_ntba(mk_dyadic(14))
    assert time.perf_counter() - t0 < 10
    assert B.n_atoms == 14


def test_ntba_json_roundtrip():
    B = mk_parity_ntba(2)
    again = ntba_from_json(ntba_to_json(B))
    assert again.space == B.space
    assert [a.blocks for a in again.atoms] == [a.blocks for a in B.atoms]


def test_random_ntbas_fully_independent():
    rng = random.Random(33)
    for _ in range(20):
        B = rand_ntba(rng, 64)
        lookups = [a.labels for a in B.atoms]
        seen = set()
        for i in range(B.space.size):
            key = tuple(lk[i] for lk in lookups)
            assert key not in seen  # joint cells are singletons
            seen.add(key)
        for combo in itertools.product(*(range(a.n_blocks) for a in B.atoms)):
            inter = [
                i
                for i in range(B.space.size)
                if all(lk[i] == bi for lk, bi in zip(lookups, combo))
            ]
            got = sum((B.space.probs[i] for i in inter), Fraction(0))
            want = Fraction(1)
            for a, bi in zip(B.atoms, combo):
                want *= a.masses[bi]
            assert got == want


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_rand_ntba_matches_chained_two_factor_products(mode):
    """One product step gives the chained build's space and atoms, from the same draws."""
    for seed in range(200):
        max_outcomes = (8, 16, 32, 64)[seed % 4]
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        got = rand_ntba(rng, max_outcomes, mode)
        want = rand_ntba_chained(oracle_rng, max_outcomes, mode)
        assert got.space.outcomes == want.space.outcomes
        assert got.space.probs == want.space.probs
        assert got.atoms == want.atoms
        assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_rand_ntba_atoms_are_the_coordinate_fields_of_its_product(mode):
    for seed in range(200):
        B = rand_ntba(random.Random(seed), (8, 16, 32, 64)[seed % 4], mode)
        sizes = [a.n_blocks for a in B.atoms]
        uniform = [mk_space([f"f{j}" for j in range(s)], [Fraction(1, s)] * s) for s in sizes]
        shape = product(*uniform)
        assert B.space.outcomes == shape.space.outcomes
        assert tuple(a.labels for a in B.atoms) == shape.coords


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_lift_partition_reads_the_coordinate_map(mode):
    """On 3- and 4-factor products the lifted blocks are the per-outcome oracle's."""
    rng = random.Random(43)
    for n in (3, 4):
        for _ in range(20):
            factors = [rand_space(rng, 3, mode) for _ in range(n)]
            prod = product(*factors)
            digits = list(itertools.product(*(range(f.size) for f in factors)))
            for k, f in enumerate(factors):
                x = rand_partition(rng, f)
                blocks: dict = {}
                for i, d in enumerate(digits):
                    blocks.setdefault(x.labels[d[k]], []).append(i)
                assert lift_partition(prod, x, k) == partition(prod.space, list(blocks.values()))


def test_lift_partition_rejects_a_field_on_another_factor():
    a, b = mk_dyadic(1), mk_dyadic(2)
    prod = product(a, b, a)
    with pytest.raises(DomainMismatchError):
        lift_partition(prod, discrete(a), 1)
    with pytest.raises(DomainMismatchError):
        lift_partition(prod, discrete(b), 2)


@pytest.mark.parametrize("k", [-1, 3, 4])
def test_coatom_rejects_a_missing_atom(k):
    B = mk_coordinate_ntba(mk_dyadic(3))
    with pytest.raises(ValueError, match=rf"k={k} is not in 0\.\.2: the algebra has 3 atoms"):
        B.coatom(k)
