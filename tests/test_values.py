"""The library's records and values behave as the dataclasses they replaced.

Each class under ``src/noise_lattice`` that was a dataclass now derives
from ``errors.Record`` (results) or ``errors.Frozen`` (hashed, immutable
values), so that no command loads ``dataclasses``.  Here each one is held
to a dataclass twin with the old declaration, built from the same field
values: ``==`` and ``!=`` between any two samples, of one class or two,
``hash`` and ``repr`` agree.  A class that only stores its fields has no
``__init__`` of its own but ``Record``'s, built from its annotations: it
refuses too few or too many values, as its twin does, stores a left-out
default in the instance as if it were given, and refuses a field without
a default after one with.  Values also survive a pickle round trip,
with the same backend object, so a loaded copy works beside its original;
they refuse assignment and keep their derived attributes.  The one deliberate
difference, a one-outcome rational space against its float twin, is
``test_finmeas.py::test_one_outcome_spaces_of_two_modes_differ``.
"""

import ast
import itertools
import pickle
from dataclasses import MISSING, field, fields, make_dataclass
from pathlib import Path

import pytest

import noise_lattice
from noise_lattice import cofinite as cf
from noise_lattice import linalg
from noise_lattice.chaos import ChaosResult, first_chaos
from noise_lattice.checks import SuiteResult
from noise_lattice.errors import Frozen, Record, derived
from noise_lattice.finmeas import (
    RV,
    ProbSpace,
    SpaceProduct,
    constant,
    indicator,
    inner,
    mk_dyadic,
    mk_space,
    product,
)
from noise_lattice.ntba import (
    FamilyVerdict,
    NTBAElement,
    Restriction,
    mk_coordinate_ntba,
    mk_parity_ntba,
    restrict,
    validate_family,
)
from noise_lattice.randsup import SampleConfig, UnionBoundReport, union_bound_report
from noise_lattice.sigma import SigmaField, discrete, partition, trivial
from noise_lattice.spectrum import SpectralDecomp, SpectralPoint, spectral_decompose

FROZEN = {"frozen": True}
RECORD = {}

# class -> (dataclass options, fields as make_dataclass takes them), as declared before
DECLARED = {
    ProbSpace: (FROZEN, ["outcomes", "weights", "total",
                         ("backend", object, field(init=False, repr=False, compare=False))]),
    RV: (FROZEN, ["space", "vec"]),
    SpaceProduct: (FROZEN, ["factors", "space", "coords"]),
    SigmaField: (FROZEN, [("space", object, field(hash=False)), "labels"]),
    NTBAElement: (FROZEN, ["algebra", "atomset"]),
    cf.PrefixJoins: (FROZEN, ["index_set"]),
    cf.TailChain: (FROZEN, [("start", int, field(default=1))]),
    cf.ComplementChain: (FROZEN, ["index_set"]),
    cf.EventuallyConstant: (FROZEN, ["elems"]),
    cf.CofUltrafilter: (FROZEN, ["kind", ("index", object, field(default=None))]),
    SampleConfig: (FROZEN, ["atom_counts", "ps", "seed", "trials"]),
    FamilyVerdict: (RECORD, ["valid", ("reason", object, field(default=None)),
                             ("witness", object, field(default=None))]),
    Restriction: (RECORD, ["algebra", "quotient", "atom_indices"]),
    SpectralPoint: (RECORD, ["eigenspace", "generator"]),
    SpectralDecomp: (RECORD, ["algebra", "points", "levels"]),
    ChaosResult: (RECORD, ["h1", "algebra"]),
    SuiteResult: (RECORD, ["name", "cases", ("failures", list, field(default_factory=list))]),
    cf.CompletionCheck: (RECORD, ["holds", "sup", "inf_complements", "joined"]),
    cf.DoubleLimitCheck: (RECORD, ["equal", "joined_limits"]),
    UnionBoundReport: (RECORD, ["estimate", "exact", "bound", "sigma",
                                "within_three_sigma", "below_bound"]),
}

TWINS = {
    cls: make_dataclass(cls.__name__, declared, **options)
    for cls, (options, declared) in DECLARED.items()
}


def _twin(x):
    """The dataclass twin of x, built from x's field values."""
    twin = TWINS[type(x)]
    names = [f if isinstance(f, str) else f[0] for f in DECLARED[type(x)][1]]
    init = [n for n in names if n != "backend"]
    return twin(*[getattr(x, n) for n in init])


def _samples() -> list:
    """Equal but distinct instances, and unequal ones, of every class."""
    half = mk_space(["a", "b"], ["1/3", "2/3"])
    floats = mk_space(["a", "b"], [0.25, 0.75])
    dyadic = mk_dyadic(2)
    other = mk_space(["w", "x", "y", "z"], ["1/8", "1/8", "1/4", "1/2"])
    coords, parity = mk_coordinate_ntba(dyadic), mk_parity_ntba(1)
    decomp = spectral_decompose(coords)
    point = decomp.points[0]
    cfg = SampleConfig((2, 3), (0.1, 0.2), seed=3, trials=50)
    return [
        half, ProbSpace(("a", "b"), (2, 4), 6), floats, dyadic, mk_dyadic(2), other,
        constant(half, 1), constant(half, 1), indicator(half, [0]), constant(floats, 1),
        product(half, dyadic), product(half, dyadic), product(dyadic, half),
        discrete(dyadic), partition(dyadic, [[3], [2], [1], [0]]), trivial(dyadic),
        discrete(other),
        coords.element({0}), coords.element([0]), coords.element({1}), parity.element({0}),
        cf.PrefixJoins(cf.FULL_SET), cf.PrefixJoins(cf.progression(2)),
        cf.PrefixJoins(cf.progression(2)), cf.ComplementChain(cf.progression(2)),
        cf.TailChain(), cf.TailChain(1), cf.TailChain(3),
        cf.EventuallyConstant((cf.y(1), cf.y(2))), cf.EventuallyConstant((cf.y(1),)),
        cf.CofUltrafilter("frechet"), cf.CofUltrafilter("principal", 2),
        cf.CofUltrafilter("principal", 2),
        cfg, SampleConfig((2, 3), (0.1, 0.2), seed=3, trials=50),
        SampleConfig((2, 3), (0.1, 0.2), seed=4, trials=50),
        FamilyVerdict(True), FamilyVerdict(True), FamilyVerdict(False, "no", (1,)),
        validate_family(dyadic, [trivial(dyadic), discrete(dyadic)]),
        restrict(coords.element({0})), restrict(coords.element({0})),
        point, decomp.points[1], SpectralPoint(point.eigenspace, point.generator),
        decomp, SpectralDecomp(decomp.algebra, list(decomp.points), decomp.levels),
        first_chaos(coords), ChaosResult(first_chaos(coords).h1, coords),
        SuiteResult("s", 2), SuiteResult("s", 2, []), SuiteResult("s", 2, [{"case": 0}]),
        cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET)),
        cf.completion_criterion_check(cf.PrefixJoins(cf.FULL_SET)),
        cf.double_limit_check(cf.PrefixJoins(cf.progression(2))),
        cf.double_limit_check(cf.PrefixJoins(cf.progression(2))),
        union_bound_report(cfg), union_bound_report(cfg),
    ]


SAMPLES = _samples()


def test_every_converted_class_has_samples():
    assert set(DECLARED) == {type(x) for x in SAMPLES}


# the classes whose __init__ does work of its own: converts, validates or copies
OWN_INIT = {ProbSpace, RV, SigmaField, SampleConfig, SuiteResult}


def _parameters(cls) -> tuple:
    """(required, defaults) of the positional values cls's twin takes."""
    params = [f for f in fields(TWINS[cls]) if f.init]
    defaults = [f.default for f in params if f.default is not MISSING]
    return len(params) - len(defaults), defaults


def test_a_record_that_only_stores_its_fields_takes_them_as_its_twin_does():
    shared = [cls for cls in DECLARED if cls.__init__ is Record.__init__]
    assert set(DECLARED) - set(shared) == OWN_INIT
    for cls in shared:
        required, defaults = _parameters(cls)
        for n in range(required + len(defaults) + 2):
            values = tuple(range(n))
            if required <= n <= required + len(defaults):
                assert vars(cls(*values)) == vars(TWINS[cls](*values)), (cls, n)
            else:
                for build in (cls, TWINS[cls]):
                    with pytest.raises(TypeError):
                        build(*values)


def test_a_left_out_default_is_stored_as_if_given():
    defaulted = set()
    for cls in DECLARED:
        required, defaults = _parameters(cls)
        if cls.__init__ is Record.__init__ and defaults:
            values = tuple(range(required))
            short, full = cls(*values), cls(*values, *defaults)
            assert vars(short) == vars(full) == vars(TWINS[cls](*values))
            assert pickle.dumps(short) == pickle.dumps(full)
            defaulted.add(cls)
    assert defaulted == {cf.TailChain, cf.CofUltrafilter, FamilyVerdict}


def test_a_field_without_a_default_after_one_with_is_refused():
    with pytest.raises(TypeError):
        make_dataclass("Late", [("early", int, field(default=0)), "late"])
    with pytest.raises(TypeError):

        class Late(Record):
            early: int = 0
            late: int


def _stores_only_parameters(init: ast.FunctionDef) -> bool:
    """Whether each statement of init, past a docstring, stores parameters
    unchanged: ``self.x = x``, ``self.__dict__[k] = x`` or
    ``self.__dict__.update(...)`` of parameters."""
    self_name, *params = [a.arg for a in init.args.args]

    def param(node):
        return isinstance(node, ast.Name) and node.id in params

    def on_self(node, attr=None):
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self_name
            and attr in (None, node.attr)
        )

    for i, stmt in enumerate(init.body):
        value = getattr(stmt, "value", None)
        if i == 0 and isinstance(stmt, ast.Expr) and isinstance(value, ast.Constant):
            continue
        if isinstance(stmt, ast.Assign) and param(value):
            targets = [t.value if isinstance(t, ast.Subscript) else t for t in stmt.targets]
            if all(on_self(t) for t in targets):
                continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "update"
            and on_self(value.func.value, "__dict__")
            and all(param(v) for v in value.args + [k.value for k in value.keywords])
        ):
            continue
        return False
    return True


def test_no_record_in_the_library_has_a_constructor_that_only_stores():
    src = Path(noise_lattice.__file__).parent
    classes = {
        f"{path.name}:{node.lineno} {node.name}": node
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    records, grown = {"Record"}, True
    while grown:
        more = {
            node.name
            for node in classes.values()
            if any(isinstance(b, ast.Name) and b.id in records for b in node.bases)
        }
        grown, records = not more <= records, records | more
    assert {"Frozen", "NTBAElement", "SuiteResult"} <= records
    storing = [
        where
        for where, node in classes.items()
        if node.name in records
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
        and _stores_only_parameters(item)
    ]
    assert not storing, f"records whose __init__ only stores its fields: {storing}"


def test_equality_matches_the_dataclass_twin():
    twins = [_twin(x) for x in SAMPLES]
    for (x, tx), (y, ty) in itertools.product(zip(SAMPLES, twins), repeat=2):
        assert (x == y) is (tx == ty), (x, y)
        assert (x != y) is (tx != ty), (x, y)


def test_equal_fields_of_another_class_or_a_tuple_are_unequal():
    s = cf.progression(2)
    assert cf.PrefixJoins(s) != cf.ComplementChain(s)
    for x in SAMPLES:
        fields = tuple(vars(_twin(x)).values())
        assert x != fields and fields != x


def test_hash_and_repr_match_the_dataclass_twin():
    for x in SAMPLES:
        twin = _twin(x)
        assert repr(x) == repr(twin)
        if isinstance(x, Frozen):
            assert hash(x) == hash(twin)
        else:
            for obj in (x, twin):
                with pytest.raises(TypeError):
                    hash(obj)


def test_values_survive_a_pickle_round_trip():
    for x in SAMPLES:
        if isinstance(x, Frozen) and not isinstance(x, NTBAElement):
            again = pickle.loads(pickle.dumps(x))
            assert again == x and hash(again) == hash(x) and repr(again) == repr(x)
    # an algebra compares by identity, so an element comes back in its loaded algebra
    e = mk_coordinate_ntba(mk_dyadic(2)).element({0})
    again, algebra = pickle.loads(pickle.dumps((e, e.algebra)))
    assert again == algebra.element(e.atomset) and again != e
    result = SuiteResult("s", 2, [{"case": 0}])
    assert pickle.loads(pickle.dumps(result)) == result


def _spaces_in(x) -> list:
    """The spaces a sample holds in its fields, itself if it is one."""
    if isinstance(x, ProbSpace):
        return [x]
    fields = [getattr(x, name) for name in x._fields]
    return [f for f in fields if isinstance(f, ProbSpace)]


def test_a_loaded_value_keeps_its_backend_and_works_beside_the_original():
    for backend in (linalg.EXACT, linalg.FLOAT):
        assert pickle.loads(pickle.dumps(backend)) is backend
    for x in SAMPLES:
        if isinstance(x, Frozen):
            again = pickle.loads(pickle.dumps(x))
            for s, t in zip(_spaces_in(x), _spaces_in(again)):
                assert t.backend is s.backend
                both = product(s, t)  # a DomainMismatchError if the backends differ
                assert both.space.backend is s.backend
                f, g = indicator(s, [0]), indicator(t, [0])
                assert (f + g).space.backend is s.backend
                assert f - g == constant(s, 0) and inner(f, g) == inner(f, f)
    algebra = mk_coordinate_ntba(mk_dyadic(2))
    copy = pickle.loads(pickle.dumps(algebra))
    got, want = restrict(copy.element({0})), restrict(algebra.element({0}))
    assert got.algebra.space == want.algebra.space and got.algebra.atoms == want.algebra.atoms
    assert got.algebra.space.backend is want.algebra.space.backend
    assert product(got.algebra.space, want.algebra.space).space.size == 4


class _Counted(Frozen):
    """A value whose derived attribute counts how often it is computed."""

    n: int

    def __init__(self, n):
        self.__dict__.update(n=n, calls=[])

    @derived
    def double(self):
        self.calls.append(None)
        return 2 * self.n


def test_a_derived_attribute_is_computed_once_and_kept_in_the_instance():
    x = _Counted(3)
    assert x.double == 6 and x.double == 6 and len(x.calls) == 1
    assert vars(x)["double"] == 6 and isinstance(_Counted.double, derived)
    with pytest.raises(AttributeError):
        x.double = 7
    assert x.double == 6 and x == _Counted(3) and hash(x) == hash(_Counted(3))
    assert repr(x) == "_Counted(n=3)"


def test_values_refuse_assignment_and_keep_cached_properties():
    for x in SAMPLES:
        if isinstance(x, Frozen):
            name = next(iter(vars(x)))
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    space = mk_space(["a", "b"], ["1/3", "2/3"])
    sigma = partition(space, [[1], [0]])
    assert space.probs is space.probs and sigma.blocks is sigma.blocks
    for name in ("n_blocks", "blocks", "weights", "masses"):
        with pytest.raises(AttributeError):
            setattr(sigma, name, None)
    with pytest.raises(AttributeError):
        space.probs = None
    again = pickle.loads(pickle.dumps(sigma))
    assert vars(again)["blocks"] == sigma.blocks and vars(again.space)["probs"] == space.probs
    assert again.masses == sigma.masses and again.n_blocks == 2
