"""First chaos computation, membership, the up/down round trip."""

import json
import random

import pytest
from conftest import exact_nullspace, membership_oracle, rebind_everywhere

from noise_lattice import chaos, finmeas, sigma
from noise_lattice.chaos import (
    chaos_membership,
    first_chaos,
    up_down_roundtrip,
)
from noise_lattice.cli import main
from noise_lattice.errors import DomainMismatchError
from noise_lattice.finmeas import (
    RV,
    constant,
    coordinate_sign,
    indicator,
    mk_dyadic,
    mk_space,
    norm2,
    span_on,
)
from noise_lattice.instances import rand_element, rand_ntba, rand_rv
from noise_lattice.ntba import NTBA, mk_coordinate_ntba, mk_parity_ntba, ntba_to_json
from noise_lattice.sigma import cond_exp, discrete, join, meet, sigma_of_rvs


def full_intersection_oracle(B):
    """Kernel of the split constraints stacked over all 2^n elements.

    Independent of the implementation route (which uses co-atoms only and
    intersects iteratively).
    """
    space = B.space
    rows = []
    for e in B.elements():
        x, xc = e.realize(), e.complement().realize()
        cols = []
        for i in range(space.size):
            ei = indicator(space, [i])
            img = ei - cond_exp(x, ei) - cond_exp(xc, ei)
            cols.append(img.values)
        # img vectors are columns of the constraint operator; transpose
        rows.extend(
            [cols[j][i] for j in range(space.size)] for i in range(space.size)
        )
    null = exact_nullspace(rows)
    if null is None:
        return span_on(space, [indicator(space, [i]) for i in range(space.size)])
    return span_on(space, [RV(space, tuple(v)) for v in null])


def test_trivial_algebra_first_chaos():
    for space in (mk_dyadic(1), mk_dyadic(2)):
        B = NTBA(space, [discrete(space)])
        cr = first_chaos(B)
        assert cr.h1.dim == space.size - 1
        assert all(b.mean() == 0 for b in cr.h1.basis)
        assert sigma_of_rvs(space, cr.h1.basis) == discrete(space)


def test_coordinate_first_chaos():
    s2 = mk_dyadic(2)
    B = mk_coordinate_ntba(s2)
    cr = first_chaos(B)
    x1, x2 = coordinate_sign(s2, 1), coordinate_sign(s2, 2)
    assert cr.h1.dim == 2
    assert cr.h1.contains(x1) and cr.h1.contains(x2)
    assert not cr.h1.contains(x1 * x2)
    assert sigma_of_rvs(s2, cr.h1.basis) == discrete(s2)


def test_parity_first_chaos():
    P2 = mk_parity_ntba(2)
    cr = first_chaos(P2)
    s = P2.space
    gens = [
        coordinate_sign(s, 1) * coordinate_sign(s, 2),
        coordinate_sign(s, 2) * coordinate_sign(s, 3),
        coordinate_sign(s, 3),
    ]
    assert cr.h1.dim == 3
    for g in gens:
        assert cr.h1.contains(g)
    assert sigma_of_rvs(s, cr.h1.basis) == discrete(s)


def test_first_chaos_matches_full_intersection_oracle():
    rng = random.Random(40)
    for _ in range(15):
        B = rand_ntba(rng, 16)
        got = first_chaos(B).h1
        want = full_intersection_oracle(B)
        assert got.dim == want.dim
        assert want.contains_subspace(got)


def test_parity_h1_dims_grow_linearly():
    for n in range(1, 5):
        assert first_chaos(mk_parity_ntba(n)).h1.dim == n + 1


def test_membership_examples():
    s2 = mk_dyadic(2)
    B = mk_coordinate_ntba(s2)
    x1, x2 = coordinate_sign(s2, 1), coordinate_sign(s2, 2)
    assert chaos_membership(B, x1) is True
    assert chaos_membership(B, x1 * x2) is False
    assert chaos_membership(B, constant(s2, 0)) is True


def test_membership_tri_equivalence_on_random_inputs():
    rng = random.Random(41)
    for _ in range(10):
        B = rand_ntba(rng, 16)
        f = rand_rv(rng, B.space, zero_mean=True)
        member = chaos_membership(B, f)  # raises on any disagreement
        assert (member,) * 3 == membership_oracle(B, f)


def test_membership_flags_match_the_lattice_oracle():
    """The verdict equals each of the meet/join oracle's three conditions."""
    rng = random.Random(47)
    non_members = 0
    for case in range(200):
        B = rand_ntba(rng, 16, mode="float" if case % 2 else "rational")
        for f in first_chaos(B).h1.basis:
            assert (chaos_membership(B, f),) * 3 == membership_oracle(B, f) == (True,) * 3
        f = rand_rv(rng, B.space, zero_mean=True)
        member = chaos_membership(B, f)
        assert (member,) * 3 == membership_oracle(B, f)
        non_members += not member
    assert non_members > 100


def test_membership_projects_each_element_once_and_never_meets_or_joins(monkeypatch):
    rng = random.Random(49)
    cases = []
    for mode in ("rational", "float"):
        for _ in range(10):
            B = rand_ntba(rng, 16, mode=mode)
            cases.append((B, rand_rv(rng, B.space, zero_mean=True)))
            cases.append((B, first_chaos(B).h1.basis[0]))

    def refuse(*args):
        raise AssertionError("a sigma-field meet or join was computed")

    projected = []

    def counted(x, f, cond_exp=sigma.cond_exp):
        projected.append(x)
        return cond_exp(x, f)

    rebind_everywhere(monkeypatch, sigma.meet, refuse)
    rebind_everywhere(monkeypatch, sigma.join, refuse)
    rebind_everywhere(monkeypatch, sigma.cond_exp, counted)
    for B, f in cases:
        projected.clear()
        chaos_membership(B, f)
        assert len(projected) == 1 << B.n_atoms


def test_split_identity_per_element():
    """The split constraint kernel is the two mean-zero parts, per element."""
    rng = random.Random(42)
    for _ in range(10):
        B = rand_ntba(rng, 16)
        space = B.space
        e = rand_element(rng, B)
        x, xc = e.realize(), e.complement().realize()
        rows = []
        for i in range(space.size):
            ei = indicator(space, [i])
            img = ei - cond_exp(x, ei) - cond_exp(xc, ei)
            rows.append(img.values)
        cols = [[rows[j][i] for j in range(space.size)] for i in range(space.size)]
        null = exact_nullspace(cols)
        kdim = space.size if null is None else len(null)
        direct = []
        for part in (x, xc):
            for b in part.blocks:
                ind = indicator(space, b)
                direct.append(ind - constant(space, ind.mean()))
        want = span_on(space, direct)
        assert kdim == want.dim
        if null is not None:
            for v in null:
                assert want.contains(RV(space, tuple(v)))


def test_superadditivity_exact():
    rng = random.Random(43)
    for _ in range(100):
        B = rand_ntba(rng, 32)
        f = rand_rv(rng, B.space)
        x = rand_element(rng, B).realize()
        y = rand_element(rng, B).realize()
        lhs = norm2(cond_exp(x, f)) + norm2(cond_exp(y, f))
        rhs = norm2(cond_exp(join(x, y), f)) + norm2(cond_exp(meet(x, y), f))
        assert lhs <= rhs


def test_chaos_projection_additivity_on_disjoint_elements():
    rng = random.Random(44)
    for _ in range(10):
        B = rand_ntba(rng, 32)
        cr = first_chaos(B)
        if not cr.h1.dim or B.n_atoms < 2:
            continue
        e1 = B.element([0])
        e2 = B.element(range(1, B.n_atoms))
        x, y = e1.realize(), e2.realize()
        for b in cr.h1.basis:
            assert cond_exp(join(x, y), b).values == (
                cond_exp(x, b) + cond_exp(y, b)
            ).values


def test_up_down_examples():
    s3 = mk_dyadic(3)
    B = mk_coordinate_ntba(s3)
    cr = first_chaos(B)
    assert up_down_roundtrip(B.element(range(B.n_atoms)), cr)
    assert up_down_roundtrip(B.element(()), cr)
    e = B.element([0, 2])
    assert up_down_roundtrip(e, cr)
    # the image sigma-field really is sigma(xi_1, xi_3)
    imgs = [cond_exp(e.realize(), b) for b in cr.h1.basis]
    want = sigma_of_rvs(s3, [coordinate_sign(s3, 1), coordinate_sign(s3, 3)])
    assert sigma_of_rvs(s3, imgs) == want


def test_up_down_refuses_the_first_chaos_of_another_algebra():
    space = mk_dyadic(3)
    C, P = mk_coordinate_ntba(space), mk_parity_ntba(2, space)
    assert up_down_roundtrip(C.element({0}), first_chaos(C))
    with pytest.raises(DomainMismatchError):
        up_down_roundtrip(C.element({0}), first_chaos(P))


def test_up_down_all_elements_small_algebras():
    rng = random.Random(45)
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in (1, 2, 3)]
    algebras += [mk_parity_ntba(n) for n in (1, 2)]
    algebras += [rand_ntba(rng, 16) for _ in range(5)]
    for B in algebras:
        cr = first_chaos(B)
        assert sigma_of_rvs(B.space, cr.h1.basis) == discrete(B.space)
        for e in B.elements():
            assert up_down_roundtrip(e, cr)


def test_presentation_order_does_not_change_h1():
    rng = random.Random(46)
    B = rand_ntba(rng, 32)
    order = list(range(B.n_atoms))
    rng.shuffle(order)
    B2 = NTBA(B.space, [B.atoms[i] for i in order])
    a, b = first_chaos(B).h1, first_chaos(B2).h1
    assert a.dim == b.dim
    assert a.contains_subspace(b)


def test_float_mode_first_chaos():
    space = mk_dyadic(2)
    fspace = mk_space(space.outcomes, [float(p) for p in space.probs])
    from noise_lattice.sigma import partition

    atoms = [
        partition(fspace, [[0, 1], [2, 3]]),
        partition(fspace, [[0, 2], [1, 3]]),
    ]
    B = NTBA(fspace, atoms)
    cr = first_chaos(B)
    assert cr.h1.dim == 2
    assert sigma_of_rvs(fspace, cr.h1.basis) == discrete(fspace)


def test_chaos_report_builds_no_basis(tmp_path, capsys, monkeypatch):
    """The report reads the certified block counts; no vector is built or spanned."""

    def refuse(*args, **kwargs):
        raise AssertionError("chaos report built a basis")

    for fn in (first_chaos, chaos.atom_bases, finmeas.span_on):
        rebind_everywhere(monkeypatch, fn, refuse)
    f = tmp_path / "b.json"
    f.write_text(json.dumps(ntba_to_json(mk_parity_ntba(3))))
    assert main(["chaos", "report", str(f), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "dim_h1,classical,black,generated_block_count",
        "4,True,False,16",
    ]
    assert main(["chaos", "report", str(f), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == {
        "dim_h1": 4,
        "classical": True,
        "black": False,
        "generated_blocks": [[i] for i in range(16)],
    }
    assert main(["chaos", "report", str(f), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "  dim_h1: 4\n" in out and out.endswith("passed: True\n")
