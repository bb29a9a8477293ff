"""The contracts of the package's records (endotransfer.record).

Each record keeps what its dataclass gave: a constructor taking its fields
positionally or by keyword, with their defaults, and refusing a missing,
unknown or repeated argument with a TypeError; equality with records of
its own class only, on the field tuple; the hash of that tuple; the checks
and reductions its __init__ makes; and, for every frozen record, refusal of
attribute assignment.  Fields are bound by Record.__init__ alone, and no
record defines an __init__ that only binds them.  The CLI imports one
dataclass only.  The reference a-datum of the tests (oracles.ADatum) is a
Record too and keeps the same contract.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MemberDescriptorType

import pytest

import endotransfer
from endotransfer.cohomology import (
    CohomologyClass,
    CohomologyError,
    DualComponentCharacter,
    H1Group,
    QuotientTorus,
    RealTorus,
    TorusPoint,
    h1,
    quotient_torus_lattice,
)
from endotransfer.distributions import (
    EllipticScenario,
    IdentityReport,
    KernelValue,
    PairTable,
)
from endotransfer.endoscopy import (
    Diagram,
    EllipticElement,
    EndoscopicDatum,
    EndoscopyError,
    build_endoscopic_datum,
)
from endotransfer.lattice import row_table
from endotransfer.realform import DimensionProfile, EighthRoot, RealFormGrading
from endotransfer.record import Record
from endotransfer.rootdata import RootDatum, WeylElement, build_root_datum
from endotransfer.scenario import Scenario, builtin_scenario_path, load_builtin, parse_scenario
from endotransfer.tits import TitsElement
from endotransfer.verify import ParsedRecord, PairRecord
from oracles import ADatum

A1 = build_root_datum("A1")
S = WeylElement(((-1,),), (0,))
TORUS = RealTorus(1, ((-1,),))
GROUP = h1(TORUS)
QUOTIENT = quotient_torus_lattice(TORUS, [(Fraction(1, 2),)])
DATUM = build_endoscopic_datum(A1, [-1])
X = EllipticElement((Fraction(1),))
ROWS = row_table([((1,),), ((-1,),)])
REPORT = IdentityReport(1j, 1j, 0.0, 0.0, True)
SCENARIO_FIELDS = dict(
    name="a1", g_type="A1", form_scale=Fraction(1), grading_g=[1], s_character=[-1],
    grading_h=[], base_x_h=(Fraction(1),), base_x_g=(Fraction(1),), extras_h=[],
    lines={"form_scale": 3, "[grading_g]": 4},
)

# (class, keyword arguments, the fields the record then holds, in order).
CASES = [
    (RealTorus, dict(lattice_rank=1, involution=((-1,),)), (1, ((-1,),))),
    (TorusPoint, dict(phases=(Fraction(5, 4),)), ((1,), 4)),
    (
        H1Group,
        dict(
            torus=TORUS, kernel_basis=GROUP.kernel_basis, _to_kernel=GROUP._to_kernel,
            _relations=GROUP._relations, _free=GROUP._free,
        ),
        (TORUS, GROUP.kernel_basis, GROUP._to_kernel, GROUP._relations, GROUP._free),
    ),
    (CohomologyClass, dict(torus=TORUS, group=GROUP, coordinates=(1,)), (TORUS, GROUP, (1,))),
    (DualComponentCharacter, dict(torus=TORUS, numerators=(1,), denominator=2), (TORUS, (1,), 2)),
    (
        QuotientTorus,
        dict(torus=QUOTIENT.torus, rows=QUOTIENT.rows, denominator=QUOTIENT.denominator),
        (QUOTIENT.torus, QUOTIENT.rows, QUOTIENT.denominator),
    ),
    (KernelValue, dict(value=1j, terms=((S, 1j),)), (1j, ((S, 1j),))),
    (
        IdentityReport,
        dict(lhs=1j, rhs=1j, abs_error=0.0, termwise_max=0.0, passed=True),
        (1j, 1j, 0.0, 0.0, True),
    ),
    (
        EndoscopicDatum,
        dict(
            g_datum=A1, s_simple_signs=(-1,), xhat_s=(Fraction(1, 2),), h_roots=(), h_datum=DATUM.h_datum
        ),
        (A1, (-1,), (Fraction(1, 2),), (), DATUM.h_datum),
    ),
    (EllipticElement, dict(coords=(Fraction(1),)), ((Fraction(1),),)),
    (ADatum, dict(ratios=(((2,), Fraction(3)),)), ((((2,), Fraction(3)),),)),
    (Diagram, dict(datum=DATUM, w=S, x_h=X, x_g=X), (DATUM, S, X, X)),
    (
        PairTable,
        dict(inverse=(0, 1), g_rows=ROWS, h_rows=(), g_law=((0, 1),)),
        ((0, 1), ROWS, (), ((0, 1),)),
    ),
    (EighthRoot, dict(k=11), (3,)),
    (RealFormGrading, dict(datum=A1, grade={(2,): 1, (-2,): 1}), (A1, {(2,): 1, (-2,): 1})),
    (
        DimensionProfile,
        dict(dim_g=3, dim_t=1, dim_k=1, dim_g_over_t=2, dim_g_over_k=2),
        (3, 1, 1, 2, 2),
    ),
    (
        RootDatum,
        dict(
            rank=1, cartan_label="A1", simple_roots=((2,),), simple_coroots=((1,),),
            roots=((-2,), (2,)), coroots=((-1,), (1,)), invariant_form=((Fraction(2),),),
            coefficients={(2,): (1,), (-2,): (-1,)}, reflections=((1, 0),),
        ),
        (1, "A1", ((2,),), ((1,),), ((-2,), (2,)), ((-1,), (1,)), ((Fraction(2),),)),
    ),
    (TitsElement, dict(eps=(3, -1), w=S), ((1, 1), S)),
    (
        PairRecord,
        dict(index=0, x_h=(1.0,), x_g=(2.0,), report=REPORT),
        (0, (1.0,), (2.0,), REPORT),
    ),
    (
        ParsedRecord,
        dict(index=0, x_h=(1.0,), x_g=(2.0,), lhs=1j, rhs=1j, abs_error=0.0, termwise_max=0.0),
        (0, (1.0,), (2.0,), 1j, 1j, 0.0, 0.0),
    ),
    (Scenario, SCENARIO_FIELDS, tuple(SCENARIO_FIELDS.values())),
]

IDS = [cls.__name__ for cls, _, _ in CASES]
FROZEN = [case for case in CASES if case[0] is not Scenario]


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_constructor_keywords_positions_and_defaults(cls, kwargs, fields):
    by_name = cls(**kwargs)
    assert _fields(by_name) == fields
    assert cls(*kwargs.values()) == by_name


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_constructor_mixes_positions_and_keywords(cls, kwargs, fields):
    items = list(kwargs.items())
    values = [value for _, value in items]
    for k in range(len(items) + 1):
        assert cls(*values[:k], **dict(items[k:])) == cls(*values)


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_constructor_refuses_what_a_dataclass_refuses(cls, kwargs, fields):
    (_, value), *rest = kwargs.items()
    with pytest.raises(TypeError):
        cls(**dict(rest))  # the first field missing
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(value, **kwargs)  # the first field by position and by keyword
    with pytest.raises(TypeError):
        cls(*range(len(cls._fields) + 1))


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_equality_and_hash_of_the_field_tuple(cls, kwargs, fields):
    record, twin = cls(**kwargs), cls(**kwargs)
    assert record == twin and not record != twin
    # Equal only to a record of the same class: not to the bare tuple, nor
    # to a subclass holding the same fields.
    assert record != fields
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert record != subclass(**kwargs)
    if cls is Scenario:
        with pytest.raises(TypeError):
            hash(record)
        return
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("cls, kwargs, fields", CASES, ids=IDS)
def test_repr_names_the_fields(cls, kwargs, fields):
    record = cls(**kwargs)
    if cls is EighthRoot:
        assert repr(record) == "exp(i*pi*3/4)"
        return
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, fields))
    assert repr(record) == f"{cls.__qualname__}({inner})"


@pytest.mark.parametrize("cls, kwargs, fields", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_records_refuse_assignment(cls, kwargs, fields):
    record = cls(**kwargs)
    for name, value in zip(record._fields, fields):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert _fields(record) == fields


def test_weyl_element_is_its_matrix():
    longer = WeylElement(S.matrix, (0, 0, 0))
    assert longer == S and hash(longer) == hash(S.matrix)
    assert {S: 1}[longer] == 1


def test_scenarios_do_not_share_extras():
    """Two scenarios parsed from one text share neither their extras nor
    their line maps, and a scenario's fields may be assigned."""
    text = builtin_scenario_path("sl2xsl2_mixed").read_text(encoding="utf-8")
    a, b = parse_scenario(text), parse_scenario(text)
    assert a.extras_h == [] and a.extras_h is not b.extras_h
    a.extras_h.append((0,))
    assert b.extras_h == []
    assert a.lines == b.lines and a.lines is not b.lines
    assert a.lines["form_scale"] == text.splitlines().index("form_scale = 1") + 1
    a.lines = {}
    assert a.lines == {} and b.lines["form_scale"]


def test_elliptic_scenario_default_scale_and_caches():
    built = load_builtin("sl2_endoscopy")
    sc = EllipticScenario(name="copy", engine=built.engine, g_side=built.g_side, h_side=built.h_side)
    assert sc.form_scale == Fraction(1)
    # The cached pair table lives in the instance; it is not a field.
    assert sc.table is sc.table
    assert sc == EllipticScenario("copy", built.engine, built.g_side, built.h_side, Fraction(1))
    sc.name = "renamed"
    assert sc.name == "renamed"
    with pytest.raises(TypeError):
        hash(sc)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ADatum((((2,), Fraction(0)),)), EndoscopyError),
        (lambda: RealTorus(2, ((-1,),)), CohomologyError),
        (lambda: RealTorus(1, ((2,),)), CohomologyError),
        (lambda: DualComponentCharacter(TORUS, (1,), 4), CohomologyError),
    ],
    ids=["adatum-zero-ratio", "torus-size", "torus-not-involution", "kappa-not-fixed"],
)
def test_init_checks_raise(build, error):
    with pytest.raises(error):
        build()


def test_reductions_in_init():
    assert EighthRoot(-1).k == 7 and EighthRoot(16) == EighthRoot(0)
    assert TitsElement((2, -3), S).eps == (0, 1)
    assert TorusPoint.over((3, 6), 4).numerators == (3, 2)
    assert TorusPoint((Fraction(5, 4), Fraction(-1, 2))) == TorusPoint.over((1, 2), 4)


def test_caches_are_not_fields():
    a, b = RealTorus(1, ((-1,),)), RealTorus(1, ((-1,),))
    assert a.one_minus_sigma((3,)) == (6,)
    assert a == b and hash(a) == hash(b)


def test_cli_import_makes_one_dataclass():
    """verify.RunReport stays a dataclass because the benchmark shortens a
    report with dataclasses.replace; every other record is a Record, whose
    class creation generates no code."""
    code = (
        "import dataclasses, sys\n"
        "import endotransfer.cli\n"
        "found = sorted(\n"
        "    f'{name}.{attr}' for name, module in list(sys.modules.items())\n"
        "    if name.startswith('endotransfer') for attr, value in vars(module).items()\n"
        "    if isinstance(value, type) and value.__module__ == name and dataclasses.is_dataclass(value)\n"
        ")\n"
        "print(' '.join(found))\n"
    )
    env = dict(os.environ)
    src = str(Path(endotransfer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["endotransfer.verify.RunReport"]


def _slot_records():
    """(class, the ClassDef of its source) for every Record subclass in the
    package whose fields are slots; a record whose fields live in its
    __dict__ (EllipticScenario) binds them itself."""
    out = []
    for path in sorted(Path(endotransfer.__file__).resolve().parent.glob("*.py")):
        module = importlib.import_module(f"endotransfer.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if (
                inspect.isclass(cls) and issubclass(cls, Record) and cls is not Record
                and all(isinstance(getattr(cls, name, None), MemberDescriptorType) for name in cls._fields)
            ):
                out.append((cls, node))
    return out


def _bound_value(node, fields):
    """The value node binds to one of the fields itself, with
    set_attribute(self, "field", value), object.__setattr__ alike, or
    self.field = value; None for any other node."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if (
            name in ("set_attribute", "__setattr__") and len(node.args) == 3
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in fields
        ):
            return node.args[2]
    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self" and target.attr in fields
        ):
            return node.value
    return None


def _binds_only(init: ast.FunctionDef, fields) -> bool:
    """Whether init, past a docstring, does nothing but pass its parameters
    unchanged to the fields: by binding them itself, or by calling some
    __init__ with parameters alone."""
    params = {arg.arg for arg in init.args.args + init.args.kwonlyargs}
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]

    def is_parameter(value) -> bool:
        return isinstance(value, ast.Name) and value.id in params

    def binds(stmt) -> bool:
        node = stmt.value if isinstance(stmt, ast.Expr) else stmt
        value = _bound_value(node, fields)
        if value is not None:
            return is_parameter(value)
        return (
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__init__"
            and all(map(is_parameter, node.args + [keyword.value for keyword in node.keywords]))
        )

    return bool(body) and all(map(binds, body))


def test_no_record_defines_an_init_that_only_binds_its_fields():
    found = [
        cls.__name__
        for cls, node in _slot_records()
        for init in node.body
        if isinstance(init, ast.FunctionDef) and init.name == "__init__" and _binds_only(init, cls._fields)
    ]
    assert not found, f"Record.__init__ binds these fields already: {found}"


def test_record_init_binds_every_field():
    found = [
        f"{cls.__name__}:{stmt.lineno}"
        for cls, node in _slot_records()
        for stmt in ast.walk(node)
        if _bound_value(stmt, cls._fields) is not None
    ]
    assert not found, f"fields bound outside Record.__init__: {found}"
