"""Joint eigenspace decomposition, grading, and the related identities."""

import itertools
import json
import random
from math import comb
from pathlib import Path

import pytest
from conftest import is_basis, kernel_intersection_oracle, rebind_everywhere

from noise_lattice import chaos
from noise_lattice.cli import main
from noise_lattice.errors import ConsistencyError, PreconditionError
from noise_lattice.finmeas import inner, mk_dyadic, mk_space, walsh_character
from noise_lattice.instances import rand_ntba
from noise_lattice.ntba import (
    NTBA,
    coarsen,
    mk_coordinate_ntba,
    mk_parity_ntba,
    ntba_from_json,
    ntba_to_json,
)
from noise_lattice.sigma import _group, discrete, sigma_of_rvs, subspace_of, trivial
from noise_lattice.spectrum import (
    _pattern_of,
    certified_dims,
    k_restriction_additivity,
    sigma_tower_check,
    spectral_decompose,
    verify_spectral_identities,
)


def test_coordinate_two_atoms():
    s2 = mk_dyadic(2)
    D = spectral_decompose(mk_coordinate_ntba(s2))
    assert sorted(p.k for p in D.points) == [0, 1, 1, 2]
    assert len(D.points) == 4
    for p in D.points:
        chi = walsh_character(s2, [i + 1 for i in sorted(p.generator)])
        assert p.eigenspace.dim == 1
        assert p.eigenspace.contains(chi)


def test_certified_dims_match_the_built_eigenspaces():
    """The block-count dims and the built bases check each other, point by point."""
    algebras = [mk_coordinate_ntba(mk_dyadic(n)) for n in range(1, 8)]
    algebras += [mk_parity_ntba(n) for n in range(1, 8)]
    for mode in ("rational", "float"):
        algebras += [rand_ntba(random.Random(seed), mode=mode) for seed in range(150)]
    golden = Path(__file__).parent / "golden" / "float-perturbed.json"
    algebras.append(ntba_from_json(json.loads(golden.read_text())))
    for B in algebras:
        points, levels = certified_dims(B)
        D = spectral_decompose(B)
        assert points == [(p.generator, p.eigenspace.dim) for p in D.points]
        assert list(levels.items()) == list(D.level_dims().items())


def test_trivial_algebra_two_points():
    s2 = mk_dyadic(2)
    B = NTBA(s2, [discrete(s2)])
    D = spectral_decompose(B)
    assert len(D.points) == 2
    assert D.level_dims() == {0: 1, 1: 3}
    constants = next(p for p in D.points if p.k == 0)
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
    rep = verify_spectral_identities(D)
    assert rep.ok
    # the pattern of the xi_1 point is generated by atom 0
    (p,) = [q for q in D.points if q.generator == {0}]
    assert p.k == 1
    # the spectral set of the bottom element carries only the constants
    bottom = [q for q in D.points if q.in_spectral_set(frozenset())]
    assert len(bottom) == 1 and bottom[0].k == 0
    s0 = bottom[0].eigenspace
    assert s0.dim == 1 and s0.equals(subspace_of(trivial(D.algebra.space)))


def test_identities_random():
    rng = random.Random(51)
    for _ in range(8):
        B = rand_ntba(rng, 16)
        assert verify_spectral_identities(spectral_decompose(B)).ok


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
    assert k_restriction_additivity(B, B.element([0]))
    P = mk_parity_ntba(2)
    assert k_restriction_additivity(P, P.element([0, 1]))
    with pytest.raises(PreconditionError):
        k_restriction_additivity(B, B.zero())
    with pytest.raises(PreconditionError):
        k_restriction_additivity(B, B.one())


def test_k_additivity_random():
    rng = random.Random(53)
    done = 0
    while done < 10:
        B = rand_ntba(rng, 32)
        if B.n_atoms < 2:
            continue
        e = B.element([0])
        assert k_restriction_additivity(B, e)
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
        assert hits[0].k <= p.k


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
