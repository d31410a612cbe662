"""CLI surfaces: formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import rebind_everywhere
from test_run_all import skewed_independence
from test_spectrum import LIGHT_BLOCKS

from noise_lattice import checks, cli, spectrum
from noise_lattice import cofinite as cf
from noise_lattice import randsup as rs
from noise_lattice.cli import MAX_PATTERN_ATOMS, UsageError, _load, build_parser, main
from noise_lattice.cofinite import MAX_BITS
from noise_lattice.errors import NoiseLatticeError
from noise_lattice.finmeas import mk_dyadic, mk_space, space_from_json
from noise_lattice.instances import rand_ntba
from noise_lattice.ntba import (
    NTBA,
    NTBAElement,
    mk_coordinate_ntba,
    mk_parity_ntba,
    ntba_from_json,
    ntba_to_json,
    validate_family,
)
from noise_lattice.sigma import independent, partition, partition_from_json, partition_to_json

RUN = [sys.executable, "-m", "noise_lattice.cli"]
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kw):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, **kw
    )


def test_space_dyadic(capsys):
    assert main(["space", "dyadic", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcomes"] == ["++", "+-", "-+", "--"]
    assert out["probs"] == ["1/4"] * 4


def test_space_float_mode(capsys):
    assert main(["--mode", "float", "space", "dyadic", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["probs"] == [0.5, 0.5]


def test_space_load_roundtrip(tmp_path, capsys):
    main(["space", "dyadic", "2"])
    blob = capsys.readouterr().out
    p = tmp_path / "space.json"
    p.write_text(blob)
    assert main(["space", "load", str(p)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(blob)


def test_sigma_commands(tmp_path, capsys):
    main(["space", "dyadic", "2"])
    space_blob = capsys.readouterr().out
    (tmp_path / "space.json").write_text(space_blob)
    (tmp_path / "x.json").write_text(json.dumps({"blocks": [[0, 1], [2, 3]]}))
    (tmp_path / "y.json").write_text(json.dumps({"blocks": [[0, 2], [1, 3]]}))
    args = [str(tmp_path / "space.json"), str(tmp_path / "x.json"), str(tmp_path / "y.json")]
    assert main(["sigma", "meet", *args]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == [[0, 1, 2, 3]]
    assert main(["sigma", "join", *args]) == 0
    assert json.loads(capsys.readouterr().out)["blocks"] == [[0], [1], [2], [3]]
    assert main(["sigma", "indep", *args]) == 0
    assert json.loads(capsys.readouterr().out)["independent"] is True
    assert main(["sigma", "commutes", *args]) == 0
    assert json.loads(capsys.readouterr().out)["commutes"] is True


def test_ntba_validate_and_restrict(tmp_path, capsys):
    assert main(["ntba", "parity", "2"]) == 0
    blob = capsys.readouterr().out
    f = tmp_path / "ntba.json"
    f.write_text(blob)
    assert main(["ntba", "validate", str(f)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert main(["ntba", "restrict", str(f), "0,1"]) == 0
    restricted = json.loads(capsys.readouterr().out)
    assert len(restricted["space"]["outcomes"]) == 4
    assert len(restricted["atoms"]) == 2


def test_ntba_validate_on_64_elements(tmp_path, capsys):
    assert main(["ntba", "coords", "6"]) == 0
    f = tmp_path / "coords6.json"
    f.write_text(capsys.readouterr().out)
    assert main(["ntba", "validate", str(f)]) == 0
    assert capsys.readouterr().out == '{"reason": null, "valid": true}\n'


def test_ntba_validate_rejects_bad_input(tmp_path, capsys):
    bad = {
        "space": {"outcomes": ["a", "b", "c"], "probs": ["1/3", "1/3", "1/3"]},
        "atoms": [{"blocks": [[0], [1, 2]]}, {"blocks": [[0, 1], [2]]}],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    assert main(["ntba", "validate", str(f)]) == 1
    assert json.loads(capsys.readouterr().out)["valid"] is False


def _dyadic(n: int, mode: str):
    space = mk_dyadic(n)
    return space if mode == "rational" else mk_space(space.outcomes, [float(p) for p in space.probs])


def _perturbed_float(rng) -> dict:
    """A float presentation of 3 or 4 atoms, each probability moved by up to 1e-9.

    The offsets of a random product algebra's probabilities sum to zero,
    so the space stays valid; the atoms then often fail the product law
    within the float tolerance, sometimes pass it, and sometimes pass it
    while a complement pair, whose blocks add up several offsets, fails.
    """
    B = rand_ntba(rng, 64, mode="float")
    while B.n_atoms < 3:
        B = rand_ntba(rng, 64, mode="float")
    offsets = [rng.uniform(-1e-9, 1e-9) for _ in B.space.probs]
    mean = sum(offsets) / len(offsets)
    probs = [p + d - mean for p, d in zip(B.space.probs, offsets)]
    return {
        "space": {"outcomes": list(B.space.outcomes), "probs": probs},
        "atoms": [partition_to_json(a) for a in B.atoms],
    }


def _family_audit_output(obj: dict):
    """The (stdout, exit code) that ``validate_family`` on the realized family implies."""
    space = space_from_json(obj["space"])
    try:
        algebra = NTBA(space, [partition_from_json(space, a) for a in obj["atoms"]])
    except ValueError as exc:
        return json.dumps({"valid": False, "reason": str(exc)}, sort_keys=True) + "\n", 1
    verdict = validate_family(space, [e.realize() for e in algebra.elements()])
    payload = {"valid": verdict.valid, "reason": verdict.reason}
    return json.dumps(payload, sort_keys=True) + "\n", 0 if verdict.valid else 1


def test_ntba_validate_matches_the_family_audit(tmp_path, capsys):
    presentations = [
        ntba_to_json(build)
        for mode in ("rational", "float")
        for n in range(1, 8)
        for build in (
            mk_coordinate_ntba(_dyadic(n, mode)),
            mk_parity_ntba(n, _dyadic(n + 1, mode)),
        )
    ]
    rng = random.Random(3)
    presentations += [
        ntba_to_json(rand_ntba(rng, 64, mode=("rational", "float")[i % 2])) for i in range(40)
    ]
    presentations += [_perturbed_float(rng) for _ in range(80)]
    f = tmp_path / "b.json"
    reasons = set()
    for obj in presentations:
        f.write_text(json.dumps(obj))
        code = main(["ntba", "validate", str(f)])
        out = capsys.readouterr().out
        assert (out, code) == _family_audit_output(obj)
        reasons.add(json.loads(out)["reason"].split(" at ")[0] if code else None)
    assert reasons == {
        None,
        "atoms are not mutually independent",
        "complement pair not independent",
    }


def test_ntba_validate_never_audits_the_family(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("validate_family was called")

    rebind_everywhere(monkeypatch, validate_family, refuse)
    golden = Path(__file__).parent / "golden"
    f = tmp_path / "p3.json"
    f.write_text(json.dumps(ntba_to_json(mk_parity_ntba(3))))
    for path, code, out in (
        (f, 0, '{"reason": null, "valid": true}\n'),
        (golden / "float2.json", 0, '{"reason": null, "valid": true}\n'),
        (
            golden / "float-perturbed.json",
            1,
            '{"reason": "complement pair not independent", "valid": false}\n',
        ),
    ):
        assert main(["ntba", "validate", str(path)]) == code
        assert capsys.readouterr().out == out


def test_rational_validate_reads_no_complement_pair(tmp_path, capsys, monkeypatch):
    """An exact product law of the atoms passes to every grouping of them."""

    def refuse(*args):
        raise AssertionError("independent was called")

    rebind_everywhere(monkeypatch, independent, refuse)
    f = tmp_path / "b.json"
    for n in range(1, 7):
        for build in (mk_coordinate_ntba(mk_dyadic(n)), mk_parity_ntba(n)):
            f.write_text(json.dumps(ntba_to_json(build)))
            assert main(["ntba", "validate", str(f)]) == 0
            assert capsys.readouterr().out == '{"reason": null, "valid": true}\n'


def test_float_validate_stops_at_the_first_dependent_pair(capsys, monkeypatch):
    path = GOLDEN / "float-perturbed.json"
    algebra = ntba_from_json(json.loads(path.read_text()))
    elements = list(algebra.elements())
    first = next(
        i
        for i, e in enumerate(elements[: len(elements) // 2])
        if not independent(e.realize(), elements[-1 - i].realize())
    )
    calls = []
    realize = NTBAElement.realize
    monkeypatch.setattr(NTBAElement, "realize", lambda e: calls.append(e) or realize(e))
    assert main(["ntba", "validate", str(path)]) == 1
    capsys.readouterr()
    assert len(calls) == 2 * (first + 1) < len(elements)


def _relabelled(obj: dict, outcome_order, atom_order) -> dict:
    """The presentation with outcome i listed at outcome_order.index(i) and the atoms reordered."""
    space = obj["space"]
    new_index = {old: new for new, old in enumerate(outcome_order)}
    return {
        "space": {
            "outcomes": [space["outcomes"][i] for i in outcome_order],
            "probs": [space["probs"][i] for i in outcome_order],
        },
        "atoms": [
            {"blocks": [[new_index[i] for i in b] for b in obj["atoms"][k]["blocks"]]}
            for k in atom_order
        ],
    }


def _relabelling_inputs(rng) -> list:
    """``ntba coords``/``parity`` up to 5 in both modes, 20 random files, the perturbed golden."""
    presentations = [
        ntba_to_json(build)
        for mode in ("rational", "float")
        for n in range(1, 6)
        for build in (
            mk_coordinate_ntba(_dyadic(n, mode)),
            mk_parity_ntba(n, _dyadic(n + 1, mode)),
        )
    ]
    presentations += [
        ntba_to_json(rand_ntba(rng, 64, mode=("rational", "float")[i % 2])) for i in range(20)
    ]
    presentations.append(json.loads((GOLDEN / "float-perturbed.json").read_text()))
    return presentations


def test_ntba_validate_is_invariant_under_relabelling(tmp_path, capsys):
    rng = random.Random(5)
    presentations = _relabelling_inputs(rng)
    f = tmp_path / "b.json"

    def validate(obj):
        f.write_text(json.dumps(obj))
        code = main(["ntba", "validate", str(f)])
        return capsys.readouterr().out, code

    codes = set()
    for obj in presentations:
        want = validate(obj)
        outcomes = list(range(len(obj["space"]["outcomes"])))
        atoms = list(range(len(obj["atoms"])))
        shuffled_outcomes, shuffled_atoms = outcomes[:], atoms[:]
        rng.shuffle(shuffled_outcomes)
        rng.shuffle(shuffled_atoms)
        assert validate(_relabelled(obj, shuffled_outcomes, atoms)) == want
        assert validate(_relabelled(obj, outcomes, shuffled_atoms)) == want
        codes.add(want[1])
    assert codes == {0, 1}


def test_reports_are_invariant_under_relabelling(tmp_path, capsys):
    """Permuting the outcomes keeps both reports' results.  Permuting the atoms
    keeps the chaos results and the levels, and permutes the points' generators
    (and the element bitmasks that index each pattern) by the same permutation."""
    rng = random.Random(6)
    presentations = _relabelling_inputs(rng) + [LIGHT_BLOCKS]
    f = tmp_path / "b.json"

    def report(kind, obj):
        f.write_text(json.dumps(obj))
        assert main([kind, "report", str(f), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    for obj in presentations:
        chaos, spectrum = report("chaos", obj), report("spectrum", obj)
        outcomes = list(range(len(obj["space"]["outcomes"])))
        atoms = list(range(len(obj["atoms"])))
        shuffled_outcomes, shuffled_atoms = outcomes[:], atoms[:]
        rng.shuffle(shuffled_outcomes)
        rng.shuffle(shuffled_atoms)
        moved = _relabelled(obj, shuffled_outcomes, atoms)
        assert report("chaos", moved) == chaos
        assert report("spectrum", moved) == spectrum

        moved = _relabelled(obj, outcomes, shuffled_atoms)
        assert report("chaos", moved) == chaos
        got = report("spectrum", moved)
        assert got["levels"] == spectrum["levels"] and got["classical"] is True
        new_atom = {old: new for new, old in enumerate(shuffled_atoms)}
        want = {}
        for point in spectrum["points"]:
            gen = sorted(new_atom[k] for k in point["generator_atoms"])
            pattern = [None] * len(point["pattern"])
            for mask, bit in enumerate(point["pattern"]):
                pattern[sum(1 << new_atom[k] for k in atoms if mask >> k & 1)] = bit
            want[tuple(gen)] = {**point, "generator_atoms": gen, "pattern": pattern}
        assert {tuple(p["generator_atoms"]): p for p in got["points"]} == want


def _by_outcome_ids(restricted: dict):
    """A restricted algebra with each quotient outcome read as the set of its outcome ids."""
    names = [frozenset(o.split("|")) for o in restricted["space"]["outcomes"]]
    probs = dict(zip(names, restricted["space"]["probs"]))
    atoms = [{frozenset(names[i] for i in b) for b in a["blocks"]} for a in restricted["atoms"]]
    return probs, atoms


def test_restrict_is_invariant_under_relabelling(tmp_path, capsys):
    """Permuting the outcomes maps the restricted algebra through the permutation:
    the same quotient outcomes as sets of ids, masses and atoms.  Permuting the
    atoms restricts to the same algebra for the permuted atom set, its atoms
    listed in the new index order."""
    rng = random.Random(7)
    f = tmp_path / "b.json"

    def restrict(obj, atomset):
        f.write_text(json.dumps(obj))
        assert main(["ntba", "restrict", str(f), ",".join(map(str, sorted(atomset)))]) == 0
        return json.loads(capsys.readouterr().out)

    for obj in _relabelling_inputs(rng):
        outcomes = list(range(len(obj["space"]["outcomes"])))
        atoms = list(range(len(obj["atoms"])))
        chosen = set(rng.sample(atoms, rng.randint(1, len(atoms))))
        want = restrict(obj, chosen)
        shuffled_outcomes, shuffled_atoms = outcomes[:], atoms[:]
        rng.shuffle(shuffled_outcomes)
        rng.shuffle(shuffled_atoms)

        want_probs, want_atoms = _by_outcome_ids(want)
        probs, got_atoms = _by_outcome_ids(restrict(_relabelled(obj, shuffled_outcomes, atoms), chosen))
        assert got_atoms == want_atoms
        assert probs.keys() == want_probs.keys()
        for ids, p in want_probs.items():
            # a float mass is summed in the new outcome order
            assert probs[ids] == (p if isinstance(p, str) else pytest.approx(p, rel=1e-12))

        new_atom = {old: new for new, old in enumerate(shuffled_atoms)}
        moved = restrict(_relabelled(obj, outcomes, shuffled_atoms), {new_atom[k] for k in chosen})
        position = {k: i for i, k in enumerate(sorted(chosen))}
        assert moved == {
            "space": want["space"],
            "atoms": [want["atoms"][position[k]] for k in sorted(chosen, key=new_atom.get)],
        }


def test_float_image_of_a_dyadic_file_keeps_verdicts_and_dims(tmp_path, capsys):
    """``ntba coords``/``parity`` (n <= 5) with each probability written as a float."""
    f = tmp_path / "b.json"

    def run(obj):
        f.write_text(json.dumps(obj))
        code = main(["ntba", "validate", str(f)])
        validated = capsys.readouterr().out, code
        reports = []
        for kind in ("chaos", "spectrum"):
            assert main([kind, "report", str(f), "--format", "json"]) == 0
            reports.append(json.loads(capsys.readouterr().out)["results"])
        return validated, reports

    for n in range(1, 6):
        for build in (mk_coordinate_ntba(mk_dyadic(n)), mk_parity_ntba(n)):
            obj = ntba_to_json(build)
            probs = [float(Fraction(p)) for p in obj["space"]["probs"]]
            image = {**obj, "space": {**obj["space"], "probs": probs}}
            assert run(image) == run(obj)


def test_reports_accept_a_float_file_that_validate_rejects(capsys):
    """The reports need the atoms certified; only validate adds the complement pass."""
    path = str(Path(__file__).parent / "golden" / "float-perturbed.json")
    for argv in (
        ["chaos", "report", path],
        ["spectrum", "report", path],
        ["ntba", "restrict", path, "0"],
    ):
        assert main(argv) == 0, argv
    assert main(["ntba", "validate", path]) == 1
    capsys.readouterr()


def test_spectrum_pattern_guard(tmp_path, capsys, monkeypatch):
    """The 4^n-entry pattern is refused past n = 12 atoms before any row is built;
    the levels alone are not."""

    def unbuilt(generator, n):
        raise AssertionError("a pattern row was built past the guard")

    monkeypatch.setattr(cli, "membership", unbuilt)
    f = tmp_path / "b.json"
    f.write_text(json.dumps(ntba_to_json(mk_coordinate_ntba(mk_dyadic(13)))))
    for fmt in ("json", "text"):
        assert main(["spectrum", "report", str(f), "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capacity error: ") and err.count("\n") == 1, err
        assert f"n <= {MAX_PATTERN_ATOMS}" in err and "13 atoms" in err, err
    assert main(["spectrum", "report", str(f), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["level,dimension"] + [f"{k},{comb(13, k)}" for k in range(14)]


def test_dyadic_guard_names_the_size(capsys):
    assert main(["ntba", "coords", "21"]) == 3
    err = capsys.readouterr().err
    assert "n <= 20" in err and "got 21" in err, err


def test_restrict_refuses_colliding_quotient_outcomes(tmp_path, capsys):
    """Block names join outcome ids with "|"; two blocks with one name are a usage error."""
    f = tmp_path / "b.json"

    def restrict_0(outcomes):
        space = mk_space(outcomes, [Fraction(1, 4)] * 4)
        atoms = [partition(space, [[0, 2], [1, 3]]), partition(space, [[0, 1], [2, 3]])]
        f.write_text(json.dumps(ntba_to_json(NTBA(space, atoms))))
        return main(["ntba", "restrict", str(f), "0"])

    assert restrict_0(["a", "a|b", "b|c", "c"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ") and err.count("\n") == 1, err
    assert "quotient outcome 'a|b|c'" in err, err
    assert restrict_0(["a|x", "b", "c", "d|y"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "atoms": [{"blocks": [[0], [1]]}],
        "space": {"outcomes": ["a|x|c", "b|d|y"], "probs": ["1/2", "1/2"]},
    }


def test_chaos_report_json(tmp_path, capsys):
    main(["ntba", "coords", "2"])
    f = tmp_path / "b.json"
    f.write_text(capsys.readouterr().out)
    assert main(["chaos", "report", str(f), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["dim_h1"] == 2
    assert rep["results"]["classical"] is True
    assert rep["results"]["black"] is False
    assert rep["results"]["generated_blocks"] == [[0], [1], [2], [3]]


def test_spectrum_report_csv(tmp_path, capsys):
    main(["ntba", "coords", "3"])
    f = tmp_path / "b.json"
    f.write_text(capsys.readouterr().out)
    assert main(["spectrum", "report", str(f), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,dimension"
    assert lines[1:] == ["0,1", "1,3", "2,3", "3,1"]


def test_cofinite_eval(capsys):
    assert main(["cofinite", "eval", "y2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"complement": "y1|x3", "element": "y2", "membership": "B"}
    assert main(["cofinite", "eval", "Y(2k)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership"] == "Cl(B)\\B"
    assert out["complement"] is None


def test_cofinite_eval_bad_elements(capsys):
    for text in ("Y(0k)", "x0", "y0", "", "y1||y2"):
        assert main(["cofinite", "eval", text]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    over = MAX_BITS + 1
    for text in (f"x{over}", f"y{MAX_BITS}", f"Y({over}k)", "Y(1999k)|Y(2003k+1)"):
        assert main(["cofinite", "eval", text]) == 3, text
        err = capsys.readouterr().err
        assert err.startswith("capacity error: ") and str(MAX_BITS) in err, err


def test_join_with_a_cofinite_set_guards_only_the_preperiod(capsys):
    # a tail decides every position past its start, so the join with a long
    # period needs the tail's bits plus one; the element printed is a
    # finite index set with its tail, about 4.7 MB of text
    assert main(["cofinite", "eval", "Y(524288k)|x600000"]) == 0
    out = capsys.readouterr().out.encode()
    digest = "d2a83c96c2187b4f1de6edc48e48810b74297c9c6f57edf3443aca99258ded01"
    assert hashlib.sha256(out).hexdigest() == digest
    assert json.loads(out)["membership"] == "B"
    assert main(["cofinite", "eval", f"x{MAX_BITS + 1}"]) == 3


def test_cofinite_demo(capsys):
    assert main(["cofinite", "demo", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    res = rep["results"]
    assert res["completion_equals_algebra"] is True
    assert res["atomless"] is False
    assert res["increasing_limit_criterion"]["prefix_joins_all"]["holds"] is False
    assert res["increasing_limit_criterion"]["prefix_joins_all"]["sup"] == "Y{;1}"
    assert rep["passed"] is True


def test_demo_dossier(capsys):
    assert main(["demo", "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    res = rep["results"]
    assert res["parity_h1_dims"] == {str(n): n + 1 for n in range(1, 7)}
    assert res["sign_pairing_blocks_n3"] == {"count": 8, "sizes": [2]}
    assert res["completion_verdict"] == "B itself"
    assert rep["passed"] is True


def test_a_wrong_complement_fails_both_dossiers_and_the_contract(monkeypatch, capsys):
    """Both dossiers print the verdict of the route ``check all`` runs."""
    complement = cf.has_complement

    def wrong(e):
        return cf.ONE if e == cf.y(1) else complement(e)

    rebind_everywhere(monkeypatch, complement, wrong)
    assert main(["cofinite", "demo", "--format", "json"]) == 1
    assert '"completion_equals_algebra":false' in capsys.readouterr().out
    assert main(["demo"]) == 1
    assert "completion_verdict: larger than B" in capsys.readouterr().out
    suite = checks.suite_cofinite_complements(random.Random(0), 1)
    assert suite.failures == [
        {"elem": "y1", "note": "bad complement"},
        {"elem": "y1", "note": "not unique"},  # x2 complements y1 too
    ]


@pytest.mark.parametrize("golden, args", [
    ("mixed2.chaos.txt", ["chaos", "report", "mixed2.json"]),
    ("float2.chaos.json", ["chaos", "report", "float2.json", "--format", "json"]),
    ("mixed3.spectrum.csv", ["spectrum", "report", "mixed3.json", "--format", "csv"]),
    ("coords4.spectrum.csv", ["spectrum", "report", "coords4.json", "--format", "csv"]),
])
def test_level_reports_walk_no_point(monkeypatch, capsys, golden, args):
    """``chaos report`` and the csv levels read ``certified_levels`` alone."""

    def refuse(*args):
        raise AssertionError("certified_dims was called")

    rebind_everywhere(monkeypatch, spectrum.certified_dims, refuse)
    assert main(args[:2] + [str(GOLDEN / args[2])] + args[3:]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_randsup_run(capsys):
    code = main(
        ["randsup", "run", "--ps", "0.1,0.1,0.1", "--trials", "2000",
         "--seed", "42", "--format", "json"]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["bound"] == pytest.approx(0.3)
    assert rep["results"]["exact"] == pytest.approx(0.271)
    assert rep["seed"] == 42


def test_check_all_is_deterministic_and_passes(capsys):
    code = main(["check", "all", "--seed", "9", "--cases", "3"])
    assert code == 0
    out1 = capsys.readouterr().out
    main(["check", "all", "--seed", "9", "--cases", "3"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["passed"] is True
    assert all(s["passed"] for s in rep["results"])


def test_check_fault_injection(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(checks, "SUITES", [*checks.SUITES, (skewed_independence, 1)])
    code = main(["check", "all", "--seed", "9", "--cases", "2"])
    assert code == 1
    rep = json.loads(capsys.readouterr().out)
    bad = [s for s in rep["results"] if not s["passed"]]
    assert [s["suite"] for s in bad] == ["skewed-independence"]
    witness = bad[0]["failures"][0]
    assert "space" in witness and "x" in witness and "y" in witness


def test_nonpositive_case_counts_are_usage_errors(capsys):
    for cases in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "all", "--seed", "1", "--cases", cases])
        assert exc.value.code == 2, cases
        err = capsys.readouterr().err
        assert "argument --cases: must be at least 1" in err and "Traceback" not in err, err
    with pytest.raises(ValueError, match="at least 1"):
        checks.run_all(1, 0)


def test_exit_codes_via_subprocess():
    r = subprocess.run(
        RUN + ["space", "dyadic", "21"], capture_output=True, text=True
    )
    assert r.returncode == 3  # capacity guard
    r = subprocess.run(RUN + ["nonsense"], capture_output=True, text=True)
    assert r.returncode == 2  # usage error
    r = subprocess.run(
        RUN + ["space", "load", "/does/not/exist.json"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 2


def test_malformed_input_files_are_usage_errors(tmp_path, capsys):
    files = {
        "space.json": {"outcomes": ["a", "b"], "probs": ["1/2", "1/2"]},
        "good.json": {"blocks": [[0], [1]]},
        "empty.json": {"blocks": [[], [0, 1]]},
        "outside.json": {"blocks": [[0], [5]]},
        "nokey.json": {"parts": [[0, 1]]},
        "badsum.json": {"outcomes": ["a", "b"], "probs": ["1/2", "1/3"]},
    }
    files["emptyatom.json"] = {"space": files["space.json"], "atoms": [files["empty.json"]]}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    (tmp_path / "broken.json").write_text("{not json")
    f = {name: str(tmp_path / name) for name in [*files, "broken.json"]}
    for argv in (
        ["sigma", "meet", f["space.json"], f["good.json"], f["outside.json"]],
        ["sigma", "meet", f["space.json"], f["good.json"], f["nokey.json"]],
        ["sigma", "meet", f["badsum.json"], f["good.json"], f["good.json"]],
        ["sigma", "meet", f["broken.json"], f["good.json"], f["good.json"]],
        ["chaos", "report", f["broken.json"]],
        ["ntba", "validate", f["nokey.json"]],
        ["sigma", "meet", f["space.json"], f["good.json"], f["empty.json"]],
        ["ntba", "validate", f["emptyatom.json"]],
        ["chaos", "report", str(tmp_path)],
        ["sigma", "meet", str(tmp_path), f["good.json"], f["good.json"]],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err


_SPACE2 = {"outcomes": ["a", "b"], "probs": ["1/2", "1/2"]}
_ATOM2 = {"blocks": [[0], [1]]}

# a malformed FILE, the commands that read it, and the shape the message names
MALFORMED_SHAPES = {
    "algebra-list": (
        [_SPACE2, [_ATOM2]],
        [["chaos", "report", "FILE"], ["ntba", "validate", "FILE"]],
        "an algebra must be an object with a space and an atoms list",
    ),
    "atoms-string": (
        {"space": _SPACE2, "atoms": "x"},
        [["spectrum", "report", "FILE"], ["ntba", "validate", "FILE"]],
        "atoms must be a list of objects with a blocks list",
    ),
    "atoms-of-ints": (
        {"space": _SPACE2, "atoms": [1]},
        [["chaos", "report", "FILE"], ["ntba", "restrict", "FILE", "0"]],
        "atoms must be a list of objects with a blocks list",
    ),
    "blocks-int": (
        {"space": _SPACE2, "atoms": [{"blocks": 5}]},
        [["chaos", "report", "FILE"], ["ntba", "validate", "FILE"]],
        "blocks must be a list of lists of outcome indices",
    ),
    "block-int": (
        {"space": _SPACE2, "atoms": [{"blocks": [[0], 1]}]},
        [["spectrum", "report", "FILE"], ["ntba", "validate", "FILE"]],
        "blocks must be a list of lists of outcome indices",
    ),
    "probs-int": (
        {"space": {"outcomes": ["a", "b"], "probs": 5}, "atoms": [_ATOM2]},
        [["chaos", "report", "FILE"], ["ntba", "validate", "FILE"]],
        "probs must be a list of probabilities",
    ),
    "space-file-list": (
        [_SPACE2],
        [["space", "load", "FILE"]],
        "a space must be an object with outcomes and probs lists",
    ),
    "partition-file-list": (
        [[0], [1]],
        [["sigma", "meet", "SPACE", "ATOM", "FILE"]],
        "a partition must be an object with a blocks list",
    ),
}


@pytest.mark.parametrize("shape", MALFORMED_SHAPES)
def test_a_malformed_shape_gets_one_line_naming_the_expected_shape(tmp_path, capsys, shape):
    obj, commands, message = MALFORMED_SHAPES[shape]
    paths = {"FILE": tmp_path / f"{shape}.json", "SPACE": tmp_path / "space.json",
             "ATOM": tmp_path / "atom.json"}
    for name, content in (("FILE", obj), ("SPACE", _SPACE2), ("ATOM", _ATOM2)):
        paths[name].write_text(json.dumps(content))
    for command in commands:
        argv = [str(paths.get(a, a)) for a in command]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {paths['FILE']}: {message}\n"


def test_mixed_probability_file_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "mixed.json"
    f.write_text(json.dumps({"outcomes": ["a", "b"], "probs": ["1/2", 0.5]}))
    assert main(["space", "load", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert "all Fractions or all floats" in captured.err


# files with two faults, each with the one message the checks give first
TWO_FAULTS = {
    "duplicate-and-mixed": (["a", "a"], ["1/2", 0.5], "outcome identifiers must be unique"),
    "length-and-duplicate": (["a", "a", "b"], ["1/2", "1/2"], "outcomes and probs must have equal length"),
    "boolean-and-length": (["a"], [True, "1/2"], "probabilities must be numbers, not booleans"),
    "literal-and-duplicate": (["a", "a"], ["x", "1/2"], "Invalid literal for Fraction: 'x'"),
    "literal-and-length": (["a"], ["x", "1/2"], "outcomes and probs must have equal length"),
    "mixed-and-negative": (["a", "b"], [-0.5, "3/2"], "probabilities must be all Fractions or all floats"),
    "negative-and-sum": (["a", "b"], ["-1/2", "1/4"], "probabilities must be strictly positive"),
    "nan-and-negative": (["a", "b", "c"], [float("nan"), -1.0, 0.5], "probabilities must be strictly positive"),
    "sum": (["a", "b"], ["1/2", "1/4"], "probabilities sum to 3/4, not 1"),
    "sum-float": (["a", "b"], [0.5, 0.25], "probabilities sum to 0.75, not 1"),
}


@pytest.mark.parametrize("case", TWO_FAULTS)
def test_a_probability_file_with_two_faults_names_the_first(tmp_path, capsys, case):
    outcomes, probs, message = TWO_FAULTS[case]
    f = tmp_path / f"{case}.json"
    f.write_text(json.dumps({"outcomes": outcomes, "probs": probs}))
    assert main(["space", "load", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {f}: {message}\n"


def test_a_huge_probability_exponent_is_refused_before_it_is_read(tmp_path):
    """``Fraction("1e30000000")`` alone takes close to a minute; the loader
    refuses the exponent first, in one line that names the probability."""
    f = tmp_path / "exponent.json"
    f.write_text(json.dumps({"outcomes": ["a", "b"], "probs": ["1e30000000", "1/2"]}))
    r = run_cli("space", "load", str(f), timeout=10)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == f"usage error: {f}: probability '1e30000000' has an exponent beyond 4300\n"


def test_no_probability_file_ends_in_the_int_string_limit(tmp_path, capsys):
    """A numerator or denominator past 4,300 digits, read or summed, is one
    usage line of the library's own, never Python's integer-string limit."""
    files = {
        "exponent": ["1e4300", "1/2"],
        "negative-exponent": ["1e-4300", "1/2"],
        "mantissa": ["0." + "1" * 4400, "1/2"],
        "denominator": ["1/" + "7" * 4301, "1/2"],
        "sum": [f"1/{10**2200 + 1}", f"1/{10**2200 + 3}"],
        "valid": ["1e-4300", "0." + "9" * 4300],
    }
    for name, probs in files.items():
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps({"outcomes": ["a", "b"], "probs": probs}))
        assert main(["space", "load", str(f)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: {f}: ") and captured.err.count("\n") == 1
        assert "set_int_max_str_digits" not in captured.err, name


def test_deeply_nested_file_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    for argv in (["chaos", "report", str(f)], ["space", "load", str(f)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {f}: the input is nested too deeply\n"


def test_boolean_probability_is_a_usage_error(tmp_path, capsys):
    space = {"outcomes": ["a"], "probs": [True]}
    algebra = {
        "space": {"outcomes": ["a", "b"], "probs": [True, "0"]},
        "atoms": [{"blocks": [[0], [1]]}],
    }
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "algebra.json").write_text(json.dumps(algebra))
    for argv in (
        ["space", "load", str(tmp_path / "space.json")],
        ["chaos", "report", str(tmp_path / "algebra.json")],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
        assert "not booleans" in captured.err


def test_randsup_atoms_past_the_level_guard_exit_3(monkeypatch, capsys):
    drawn = []  # atom counts of the (BLOCK, n) arrays asked for; none is drawn

    def record(n_atoms, p, rng):
        drawn.append(n_atoms)
        raise AssertionError(f"asked for a {rs.BLOCK} x {n_atoms} draw")

    monkeypatch.setattr(rs, "sample_element", record)
    argv = ["randsup", "run", "--ps", "0.1", "--trials", "10"]
    assert main(argv + ["--atoms", str(rs.MAX_LEVEL_ATOMS + 1)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and err.count("\n") == 1, err
    assert str(rs.MAX_LEVEL_ATOMS) in err
    assert drawn == []
    with pytest.raises(AssertionError):
        main(argv + ["--atoms", str(rs.MAX_LEVEL_ATOMS)])
    assert drawn == [rs.MAX_LEVEL_ATOMS]


def test_bad_command_line_values_are_usage_errors(tmp_path, capsys):
    main(["ntba", "coords", "2"])
    f = tmp_path / "b.json"
    f.write_text(capsys.readouterr().out)
    for argv in (
        ["randsup", "run", "--ps", "0.1", "--atoms", "4,3"],
        ["randsup", "run", "--ps", "0.1,0.2", "--atoms", "4,3"],
        ["ntba", "restrict", str(f), "7"],
        ["ntba", "restrict", str(f), "x"],
        ["randsup", "run", "--ps", "0.5,1.5"],
        ["ntba", "restrict", str(f), ""],
        ["randsup", "run", "--ps", "0.6,0.6"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
    for argv in (
        ["randsup", "run", "--ps", "abc"],
        ["randsup", "run", "--ps", "0.1", "--atoms", "x"],
        ["randsup", "run", "--ps", "0.1", "--trials", "5", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err
    for bad in ("0", "-1", "4,0"):
        with pytest.raises(SystemExit) as exc:
            main(["randsup", "run", "--ps", "0.1", "--atoms", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --atoms: must be at least 1, got" in err, err
        assert "at every level" not in err


def test_nonpositive_sizes_are_usage_errors(capsys):
    for argv in (
        ["space", "dyadic", "0"],
        ["space", "dyadic", "-3"],
        ["ntba", "coords", "0"],
        ["ntba", "parity", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "argument n: must be at least 1" in err and "Traceback" not in err, err


def test_zero_denominator_in_input_files_is_a_usage_error(tmp_path, capsys):
    space = {"outcomes": ["a", "b"], "probs": ["1/0", "1/2"]}
    algebra = {"space": space, "atoms": [{"blocks": [[0], [1]]}]}
    (tmp_path / "space.json").write_text(json.dumps(space))
    (tmp_path / "algebra.json").write_text(json.dumps(algebra))
    (tmp_path / "x.json").write_text(json.dumps({"blocks": [[0], [1]]}))
    s, b, x = (str(tmp_path / n) for n in ("space.json", "algebra.json", "x.json"))
    for argv in (
        ["space", "load", s],
        ["sigma", "meet", s, x, x],
        ["ntba", "validate", b],
        ["ntba", "restrict", b, "0"],
        ["chaos", "report", b],
        ["spectrum", "report", b],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err


def test_outcome_ids_that_are_not_strings_are_usage_errors(tmp_path, capsys):
    good = ntba_to_json(mk_coordinate_ntba(mk_dyadic(2)))
    for outcomes in ([1, 2, 3, 4], "abcd"):
        space = dict(good["space"], outcomes=outcomes)
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "algebra.json").write_text(json.dumps(dict(good, space=space)))
        s, b = str(tmp_path / "space.json"), str(tmp_path / "algebra.json")
        for argv in (
            ["space", "load", s],
            ["chaos", "report", b],
            ["ntba", "restrict", b, "0"],
        ):
            assert main(argv) == 2, (outcomes, argv)
            err = capsys.readouterr().err
            assert err.startswith("usage error: ") and err.count("\n") == 1, err
            assert err.endswith(": outcomes must be a list of strings\n"), err


def test_closed_stdout_exits_one_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            RUN + ["check", "all", "--cases", "1", "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_randsup_rejects_zero_trials(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["randsup", "run", "--ps", "0.1", "--trials", "0"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_report_json_roundtrip(capsys):
    main(["check", "all", "--seed", "1", "--cases", "1"])
    blob = capsys.readouterr().out
    rep = json.loads(blob)
    assert json.loads(json.dumps(rep)) == rep


# arbitrary JSON, weighted towards the shapes the loaders read
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.integers(-(2**1100), 2**1100)
    | st.floats()
    | st.text(alphabet="0123456789/-.e ab", max_size=6)
    | st.sampled_from(["1/2", "1/3", "1/0", "0/1", "-1/2", "1e400", "nan", "inf"])
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["outcomes", "probs", "space", "atoms", "blocks", "x"]), inner, max_size=3
    ),
    max_leaves=12,
)
space_objs = json_values | st.fixed_dictionaries(
    {"outcomes": st.lists(json_scalars, max_size=4), "probs": st.lists(json_scalars, max_size=4)}
)
blocks = st.lists(st.lists(st.integers(-1, 4) | json_scalars, max_size=4), max_size=4)
ntba_objs = json_values | st.fixed_dictionaries(
    {
        "space": space_objs,
        "atoms": st.lists(st.fixed_dictionaries({"blocks": blocks}) | json_values, max_size=3),
    }
)


@given(st.sampled_from([space_from_json, ntba_from_json]), space_objs | ntba_objs)
@example(space_from_json, {"outcomes": ["a", "b"], "probs": ["1/0", "1/2"]})
@example(space_from_json, {"outcomes": ["a", "b"], "probs": [0.5, 2**1100]})
@example(space_from_json, {"outcomes": ["a", "b"], "probs": [0.5, "1e400"]})
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_input_files_parse_or_raise_a_reported_error(parse, obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        path.write_text(json.dumps(obj))
        try:
            _load(str(path), parse)
        except (UsageError, NoiseLatticeError):
            pass


# the arguments after the subcommand path of every command that takes --format
FORMAT_INPUTS = {
    ("chaos",): ["report", str(GOLDEN / "coords4.json")],
    ("spectrum",): ["report", str(GOLDEN / "coords4.json")],
    ("cofinite", "demo"): [],
    ("randsup", "run"): ["--ps", "0.3,0.2", "--trials", "200"],
    ("check",): ["all", "--cases", "1"],
    ("demo",): [],
}


def _actions(parser, path=()):
    """(subcommand path, action) for every action of ``parser`` and of each parser under it."""
    for action in parser._actions:
        yield path, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _actions(sub, path + (name,))


def test_no_option_is_hidden_from_help(capsys):
    hidden = [(path, a.dest) for path, a in _actions(build_parser()) if a.help == argparse.SUPPRESS]
    assert hidden == []
    with pytest.raises(SystemExit) as exc:
        main(["check", "all", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


def test_every_format_choice_changes_the_output(capsys):
    found = {path: a.choices for path, a in _actions(build_parser()) if "--format" in a.option_strings}
    assert set(found) == set(FORMAT_INPUTS), "each --format command needs an input here"
    for path, choices in found.items():
        outputs = {}
        for choice in choices:
            main([*path, *FORMAT_INPUTS[path], "--format", choice])
            outputs[choice] = capsys.readouterr().out
        assert len(set(outputs.values())) == len(choices), (path, outputs)
