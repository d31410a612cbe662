"""Joint eigenspace decomposition, grading, and the related identities."""

import itertools
import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from conftest import cond_exp_oracle, is_basis, kernel_intersection_oracle, rebind_everywhere

from noise_lattice import chaos, checks, spectrum
from noise_lattice.cli import main
from noise_lattice.errors import ConsistencyError, PreconditionError
from noise_lattice.finmeas import constant, inner, mk_dyadic, mk_space, walsh_character
from noise_lattice.instances import rand_ntba
from noise_lattice.ntba import (
    NTBA,
    NTBAElement,
    coarsen,
    mk_coordinate_ntba,
    mk_parity_ntba,
    ntba_from_json,
    ntba_to_json,
)
from noise_lattice.sigma import _group, discrete, partition, sigma_of_rvs, subspace_of, trivial
from noise_lattice.spectrum import (
    SpectralDecomp,
    SpectralPoint,
    _pattern_of,
    certified_dims,
    k_restriction_additivity,
    membership,
    sigma_tower_check,
    spectral_decompose,
    verify_spectral_identities,
)


def test_coordinate_two_atoms():
    s2 = mk_dyadic(2)
    D = spectral_decompose(mk_coordinate_ntba(s2))
    assert sorted(len(p.generator) for p in D.points) == [0, 1, 1, 2]
    assert len(D.points) == 4
    for p in D.points:
        chi = walsh_character(s2, [i + 1 for i in sorted(p.generator)])
        assert p.eigenspace.dim == 1
        assert p.eigenspace.contains(chi)


def test_certified_dims_match_the_built_eigenspaces(tmp_path, capsys):
    """The block-count dims and the built bases check each other, point by point.

    ``chaos report`` reads its dimension off the same block counts, so it is
    held against the built first chaos and level 1 here too.
    """
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in range(1, 8)]
    algebras += [mk_parity_ntba(n) for n in range(1, 8)]
    for mode in ("rational", "float"):
        algebras += [rand_ntba(random.Random(seed), mode=mode) for seed in range(150)]
    golden = Path(__file__).parent / "golden" / "float-perturbed.json"
    algebras.append(ntba_from_json(json.loads(golden.read_text())))
    f = tmp_path / "b.json"
    for B in algebras:
        points, levels = certified_dims(B)
        D = spectral_decompose(B)
        assert points == [(p.generator, p.eigenspace.dim) for p in D.points]
        assert list(levels.items()) == list(D.level_dims().items())
        f.write_text(json.dumps(ntba_to_json(B)))
        assert main(["chaos", "report", str(f), "--format", "csv"]) == 0
        dim_h1 = chaos.first_chaos(B).h1.dim
        assert dim_h1 == levels[1]
        assert capsys.readouterr().out.splitlines()[1] == f"{dim_h1},True,False,{B.space.size}"


def _presentations(shape):
    """Every atom presentation with these block counts on outcomes 0..N-1, N their product.

    Outcome ``perm[j]`` gets the j-th label tuple of the product of the
    ranges, and atom k's blocks group the outcomes by their k-th label.  Each
    presentation is met once per relabelling of blocks and of same-size
    atoms, so atoms are put in order of block count, then of their blocks.
    """
    cells = list(itertools.product(*map(range, shape)))
    found = set()
    for perm in itertools.permutations(range(len(cells))):
        atoms = [
            tuple(sorted(tuple(sorted(o for o, c in zip(perm, cells) if c[k] == d)) for d in range(b)))
            for k, b in enumerate(shape)
        ]
        found.add(tuple(sorted(atoms, key=lambda a: (len(a), a))))
    return sorted(found)


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 4)])
def test_every_uniform_eight_outcome_algebra_of_a_shape_against_the_oracles(shape):
    """First chaos, spectral points and certified dims on all 840 presentations of a shape.

    There are 8!/(3!·2^3) = 840 presentations of shape (2,2,2) and
    8!/(2!·4!) = 840 of shape (2,4), most with outcome orders that are not
    mixed-radix.  For each: the first chaos is the elimination oracle's
    span; a point's vectors are fixed by co-atom k's conditional
    expectation for k outside its generator and sent to 0 for k inside;
    and the built dims are ``certified_dims``'s, in order.
    """
    space = mk_space([str(i) for i in range(8)], [Fraction(1, 8)] * 8)
    presentations = _presentations(shape)
    assert len(presentations) == 840
    for atoms in presentations:
        B = NTBA(space, [partition(space, blocks) for blocks in atoms])
        h1, want = chaos.first_chaos(B).h1, kernel_intersection_oracle(B)
        assert h1.dim == want.dim == sum(b - 1 for b in shape) and want.equals(h1)
        D = spectral_decompose(B)
        coatoms = [B.coatom(k).realize() for k in range(B.n_atoms)]
        for p in D.points:
            for v in p.eigenspace.basis:
                for k, x in enumerate(coatoms):
                    assert cond_exp_oracle(x, v) == ((0,) * 8 if k in p.generator else v.values)
        points, _ = certified_dims(B)
        assert points == [(p.generator, p.eigenspace.dim) for p in D.points]


def test_trivial_algebra_two_points():
    s2 = mk_dyadic(2)
    B = NTBA(s2, [discrete(s2)])
    D = spectral_decompose(B)
    assert len(D.points) == 2
    assert D.level_dims() == {0: 1, 1: 3}
    constants = next(p for p in D.points if not p.generator)
    assert constants.eigenspace.dim == 1


def test_coordinate_three_levels():
    D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(3)))
    assert D.level_dims() == {0: 1, 1: 3, 2: 3, 3: 1}


def test_binomial_level_dims_up_to_five():
    for n in range(1, 6):
        D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(n)))
        assert D.level_dims() == {k: comb(n, k) for k in range(n + 1)}


def test_binomial_level_dims_float_mode():
    n = 8
    space = mk_dyadic(n)
    fspace = mk_space(space.outcomes, [float(p) for p in space.probs])
    D = spectral_decompose(mk_coordinate_ntba(fspace))
    assert D.level_dims() == {k: comb(n, k) for k in range(n + 1)}


def test_parity_profile_matches_coordinates():
    for n in range(1, 5):
        D = spectral_decompose(mk_parity_ntba(n))
        assert D.level_dims() == {k: comb(n + 1, k) for k in range(n + 2)}
        assert len(D.points) == 1 << (n + 1)


def test_eigenspaces_orthogonal_and_complete():
    """Orthogonal points that fill the space, each vector in its eigenspace.

    ``_pattern_of`` reads a vector's eigenspace off the co-atom projections
    directly, so together with orthogonality and the dimension count this
    pins every point without a second decomposition.
    """
    rng = random.Random(50)
    algebras = [rand_ntba(rng, 32) for _ in range(10)]
    algebras += [rand_ntba(rng, 32, mode="float") for _ in range(3)]
    for B in algebras:
        D = spectral_decompose(B)
        assert sum(p.eigenspace.dim for p in D.points) == B.space.size
        coatoms = [B.coatom(k).realize() for k in range(B.n_atoms)]
        for p in D.points:
            for a in p.eigenspace.basis:
                assert _pattern_of(coatoms, a) == p.generator
        # every pair of basis vectors, within one point or across two
        vecs = [a for p in D.points for a in p.eigenspace.basis]
        for i, a in enumerate(vecs):
            for b in vecs[i + 1 :]:
                assert B.space.backend.equal((inner(a, b),), (B.space.backend.zero,))


def test_identities_report():
    D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(2)))
    assert verify_spectral_identities(D) == []
    # the pattern of the xi_1 point is generated by atom 0
    (p,) = [q for q in D.points if q.generator == {0}]
    assert len(p.generator) == 1
    # the spectral set of the bottom element carries only the constants
    bottom = [q for q in D.points if not q.generator]
    assert len(bottom) == 1 and not bottom[0].generator
    s0 = bottom[0].eigenspace
    assert s0.dim == 1 and s0.equals(subspace_of(trivial(D.algebra.space)))


def test_identities_random():
    rng = random.Random(51)
    for _ in range(8):
        B = rand_ntba(rng, 16)
        assert verify_spectral_identities(spectral_decompose(B)) == []


def test_spectral_sets_are_measured_not_read_off_the_generators():
    """Swapped generator labels break only the identity that compares the
    measured spectral sets with the generator rule."""
    D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(2)))
    points = list(D.points)
    (i,) = [j for j, p in enumerate(points) if p.generator == {0}]
    (j,) = [j for j, p in enumerate(points) if p.generator == {1}]
    points[i] = SpectralPoint(points[i].eigenspace, frozenset({1}))
    points[j] = SpectralPoint(points[j].eigenspace, frozenset({0}))
    failures = verify_spectral_identities(SpectralDecomp(D.algebra, points, D.levels))
    assert len(failures) == 2
    assert set(failures) == {
        ("spectral-set-rule", frozenset({0})),
        ("spectral-set-rule", frozenset({1})),
    }


def test_a_realize_that_drops_an_atom_breaks_the_meets_and_filters(monkeypatch):
    D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(2)))
    realize = NTBAElement.realize

    def dropped(e):
        atoms = sorted(e.atomset)
        return realize(NTBAElement(e.algebra, frozenset(atoms[1:])) if len(atoms) == 2 else e)

    monkeypatch.setattr(NTBAElement, "realize", dropped)
    kinds = {f[0] for f in verify_spectral_identities(D)}
    assert {"meet-of-spectral-sets", "filter-upward", "spectral-set-rule"} <= kinds
    assert "spectral-set-subspace" not in kinds


def test_grading_report_and_consistency():
    D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(4)))
    assert D.level_dims() == {k: comb(4, k) for k in range(5)}
    del D.levels[4]
    with pytest.raises(ConsistencyError, match="levels do not fill the space"):
        D.level_dims()


def test_level_one_equals_first_chaos():
    rng = random.Random(52)
    for _ in range(10):
        B = rand_ntba(rng, 32)
        D = spectral_decompose(B)
        h1 = kernel_intersection_oracle(B)
        lvl = D.levels.get(1)
        dim = lvl.dim if lvl else 0
        assert dim == h1.dim
        if lvl:
            assert is_basis(lvl)
            assert h1.contains_subspace(lvl)


def test_k_additivity_examples():
    B = mk_coordinate_ntba(mk_dyadic(2))
    assert k_restriction_additivity(B.element([0]))
    P = mk_parity_ntba(2)
    assert k_restriction_additivity(P.element([0, 1]))
    with pytest.raises(PreconditionError):
        k_restriction_additivity(B.element(()))
    with pytest.raises(PreconditionError):
        k_restriction_additivity(B.element(range(B.n_atoms)))


def test_k_additivity_random():
    rng = random.Random(53)
    done = 0
    while done < 10:
        B = rand_ntba(rng, 32)
        if B.n_atoms < 2:
            continue
        e = B.element([0])
        assert k_restriction_additivity(e)
        done += 1


def test_k_monotone_under_coarsening():
    rng = random.Random(54)
    B = mk_coordinate_ntba(mk_dyadic(3))
    B1 = coarsen(B, [[0, 1], [2]])
    D, D1 = spectral_decompose(B), spectral_decompose(B1)
    for p in D.points:
        v = p.eigenspace.basis[0]
        hits = [q for q in D1.points if q.eigenspace.contains(v)]
        assert len(hits) == 1
        assert len(hits[0].generator) <= len(p.generator)


def test_sigma_tower():
    assert sigma_tower_check(spectral_decompose(mk_coordinate_ntba(mk_dyadic(3))))
    assert sigma_tower_check(spectral_decompose(mk_parity_ntba(3)))
    rng = random.Random(55)
    for _ in range(5):
        assert sigma_tower_check(spectral_decompose(rand_ntba(rng, 32)))


def test_point_order_is_canonical():
    """Points come in ``itertools.product((0, 1), repeat=n)`` order of membership bits."""
    for n in range(1, 8):
        D = spectral_decompose(mk_coordinate_ntba(mk_dyadic(n)))
        want = [
            frozenset(k for k in range(n) if bits[k])
            for bits in itertools.product((0, 1), repeat=n)
        ]
        assert [p.generator for p in D.points] == want
    # rebuilding gives the identical order
    D2 = spectral_decompose(mk_coordinate_ntba(mk_dyadic(7)))
    assert [p.generator for p in D.points] == [p.generator for p in D2.points]


def test_each_eigenspace_holds_the_atom_basis_products_in_order():
    """Point {k_1 < ... < k_m} holds exactly the products of one
    ``chaos.atom_bases`` vector per k_i, k_1 varying slowest, with the
    products of their squared norms: the suites read ``basis[0]``."""
    rng = random.Random(43)
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in range(1, 6)]
    algebras += [rand_ntba(rng, 64) for _ in range(20)]
    for B in algebras:
        bases = chaos.atom_bases(B)
        for p in spectral_decompose(B).points:
            vecs, norms = [constant(B.space, 1)], [B.space.backend.one]
            for k in sorted(p.generator):
                vecs = [u * v for u in vecs for v in bases[k].basis]
                norms = [a * b for a in norms for b in bases[k].norms2]
            assert [b.values for b in p.eigenspace.basis] == [v.values for v in vecs]
            assert list(p.eigenspace.norms2) == norms


def test_membership_holds_the_generator_inside_the_element():
    """Bit x of ``membership(G, n)`` is 1 exactly when G is inside element x's atoms."""
    for n in range(9):
        atomsets = [frozenset(k for k in range(n) if x >> k & 1) for x in range(1 << n)]
        for G in atomsets:
            assert membership(G, n) == [int(G <= atoms) for atoms in atomsets]


def test_a_reversed_membership_fails_spectral_completeness(monkeypatch):
    """``spectral-completeness`` measures the rule that ``spectrum report`` prints:
    rows with their element bits in reverse order, that is with atom k read as
    atom n-1-k, fail it."""

    def reversed_bits(generator, n):
        return membership({n - 1 - k for k in generator}, n)

    assert not checks.suite_spectral_complete(random.Random(1), 20).failures
    monkeypatch.setattr(spectrum, "membership", reversed_bits)
    assert checks.suite_spectral_complete(random.Random(1), 20).failures


def _shuffled_outcomes(B: NTBA, rng) -> NTBA:
    """The same algebra with its outcomes listed in a random order."""
    order = list(range(B.space.size))
    rng.shuffle(order)
    space = mk_space([B.space.outcomes[i] for i in order], [B.space.probs[i] for i in order])
    return NTBA(space, [_group(space, [[a.labels[i] for i in order]]) for a in B.atoms])


def test_json_pattern_matches_the_atomset_oracle(tmp_path, capsys):
    rng = random.Random(56)
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in range(1, 6)]
    algebras += [mk_parity_ntba(n) for n in range(1, 5)]
    B = rand_ntba(rng, 64)
    while B.n_atoms < 3:
        B = rand_ntba(rng, 64)
    algebras.append(_shuffled_outcomes(B, rng))
    f = tmp_path / "b.json"
    for B in algebras:
        f.write_text(json.dumps(ntba_to_json(B)))
        assert main(["spectrum", "report", str(f), "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["results"]["points"]
        D = spectral_decompose(B)
        assert len(points) == len(D.points)
        for got, p in zip(points, D.points):
            assert got["generator_atoms"] == sorted(p.generator)
            assert got["pattern"] == [int(p.generator <= e.atomset) for e in B.elements()]


def test_sign_pairing_sigma_from_levels():
    # level-1 of the parity algebra contains the pair signs; the sigma-field
    # generated by all pair signs alone misses the global sign
    P = mk_parity_ntba(3)
    D = spectral_decompose(P)
    lvl1 = D.levels[1]
    pairing = sigma_of_rvs(P.space, lvl1.basis)
    assert pairing == discrete(P.space)  # xi_4 is an atom, so level 1 generates


# Outcomes b and d weigh 1e-20, so atom 1's centred indicator 1_{a,c} - P({a,c})
# has a squared norm of about 2e-20: within the float tolerance the built route
# drops it, though the certified atoms have two blocks each.
LIGHT_BLOCKS = {
    "space": {"outcomes": ["a", "b", "c", "d"], "probs": [0.5, 1e-20, 0.5, 1e-20]},
    "atoms": [{"blocks": [[0, 1], [2, 3]]}, {"blocks": [[0, 2], [1, 3]]}],
}


def test_report_prints_certified_dims_of_a_float_file_with_light_blocks(tmp_path, capsys):
    f = tmp_path / "b.json"
    f.write_text(json.dumps(LIGHT_BLOCKS))
    assert main(["spectrum", "report", str(f), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "level,dimension\n0,1\n1,2\n2,1\n"
    assert main(["spectrum", "report", str(f), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["levels"] == {"0": 1, "1": 2, "2": 1}
    assert [p["dim"] for p in results["points"]] == [1, 1, 1, 1]


def test_chaos_and_spectrum_reports_agree_on_a_float_file_with_light_blocks(tmp_path, capsys):
    f = tmp_path / "b.json"
    f.write_text(json.dumps(LIGHT_BLOCKS))
    assert main(["chaos", "report", str(f), "--format", "json"]) == 0
    chaos_results = json.loads(capsys.readouterr().out)["results"]
    assert main(["spectrum", "report", str(f), "--format", "json"]) == 0
    spectrum_results = json.loads(capsys.readouterr().out)["results"]
    assert chaos_results["dim_h1"] == spectrum_results["levels"]["1"] == 2
    assert chaos_results["classical"] is spectrum_results["classical"] is True
    assert chaos_results["black"] is False
    assert chaos_results["generated_blocks"] == [[0], [1], [2], [3]]
    assert main(["chaos", "report", str(f), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "dim_h1,classical,black,generated_block_count\n2,True,False,4\n"


def test_report_builds_no_eigenspace(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("spectrum report built a basis")

    rebind_everywhere(monkeypatch, spectral_decompose, refuse)
    rebind_everywhere(monkeypatch, chaos.atom_bases, refuse)
    f = tmp_path / "b.json"
    f.write_text(json.dumps(ntba_to_json(mk_parity_ntba(3))))
    want = {k: comb(4, k) for k in range(5)}
    assert main(["spectrum", "report", str(f), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["level,dimension"] + [f"{k},{d}" for k, d in want.items()]
    assert main(["spectrum", "report", str(f), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["levels"] == {str(k): d for k, d in want.items()}
    assert main(["spectrum", "report", str(f), "--format", "text"]) == 0
    assert "passed: True" in capsys.readouterr().out
