"""The record classes: construction, equality, hashing, immutability, repr."""

from __future__ import annotations

import inspect

import pytest

from lch.chalg import (
    AssertEqualStep,
    AssertUnitStep,
    CertDirectives,
    Certificate,
    CertReport,
    CombStep,
    Directive,
    DiffStep,
    NoRepVerdict,
    RelationSet,
    SubstStep,
)
from lch.dga import DGA, TorusLabeling
from lch.freealg import F2, ZT, GradedPresentation, GradingError, NcPoly, parse
from lch.plat import GradingTable, PlatWord, Traversal
from lch.reps import MatRepAssignment, RRelationCheck, RRelationReport, TruncatedOp

P = parse("x1 + x2", F2)
PRES = GradedPresentation(("x1", "x2"), {"x1": 0, "x2": 1})
G = DGA(PRES, {"x1": NcPoly.zero(F2), "x2": NcPoly.one(F2)})
REPORT = CertReport(True, {"d_x1": P}, ("d_x1",))
CHECK = RRelationCheck("(1+ba)c", 31, True)

# (class, its fields in constructor order, field values, whether assigning a
# field raises); the values are already in the form the constructor stores,
# so they read back unchanged.  DGA, GradedPresentation and CertReport are
# immutable too, but accepted assignment while they were dataclasses
RECORDS = [
    (PlatWord, "strand_count letters", (4, (1, 3)), True),
    (Traversal, "crossing_signs down_cusps up_cusps potential drift",
     ({"x1": 1}, 2, 2, {"x1": 0}, 0), True),
    (GradingTable, "grading modulus", ({"x1": 0}, 0), True),
    (GradedPresentation, "generators grading ring modulus",
     (("x1", "x2"), {"x1": 0, "x2": 1}, ZT, 2), False),
    (DGA, "presentation differential", (PRES, {"x1": P, "x2": P}), False),
    (TorusLabeling, "x y z", ({(1, 2): "x1"}, {(1, 2): "x2"}, {1: "x3"}), True),
    (RelationSet, "source relations", (G, (("r", P),)), True),
    (DiffStep, "name expr", ("s", P), True),
    (CombStep, "name terms", ("s", ((P, "r", P),)), True),
    (SubstStep, "name source rules", ("s", "r", (("x1", P),)), True),
    (AssertUnitStep, "name", ("s",), True),
    (AssertEqualStep, "name expr", ("s", P), True),
    (Certificate, "steps lines", ((AssertUnitStep("s"),), (3,)), True),
    (CertDirectives, "entries", ((Directive(1, "assume", "r", P),),), True),
    (CertReport, "ok table registered failure failed_index residual",
     (False, {"d_x1": P}, ("d_x1",), "no", 1, P), False),
    (NoRepVerdict, "ok detail report", (True, "derived", REPORT), True),
    (MatRepAssignment, "n images", (2, {"x1": (1, 2)}), True),
    (TruncatedOp, "N rows slope offset", (2, (1, 2), 1, 0), True),
    (RRelationCheck, "name checked_upto ok", ("(1+ba)c", 31, True), True),
    (RRelationReport, "ok checks", (True, (CHECK,)), True),
]


@pytest.mark.parametrize("cls, fields, values, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_compare_hash_and_print_by_class(cls, fields, values, frozen):
    names = fields.split()
    assert list(inspect.signature(cls).parameters) == names
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert [getattr(a, n) for n in names] == list(values)
    assert a == b and not a != b
    # only a record of the same class is equal: never the plain tuple of its
    # fields, nor a record of another class with the same fields (DiffStep
    # and AssertEqualStep hold the same values here)
    others = [values, *(c(*v) for c, _, v, _ in RECORDS if c is not cls)]
    for other in others:
        assert a != other and not a == other
        assert other != a and not other == a
    try:
        h = hash(a)
    except TypeError:  # a field holds a dict or an NcPoly
        pytest.raises(TypeError, hash, b)
    else:
        assert hash(b) == h
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, names[0], values[0])


def test_certificate_equality_ignores_lines():
    steps = (AssertUnitStep("s"),)
    a, b = Certificate(steps, (1,)), Certificate(steps, (7,))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Certificate((AssertUnitStep("t"),), (1,))


def test_graded_presentation_stores_its_generators_as_a_tuple():
    assert GradedPresentation(["x1"], {"x1": 0}).generators == ("x1",)


@pytest.mark.parametrize("build, error, message", [
    (lambda: PlatWord(3, ()), ValueError, "strand count must be even and >= 2, got 3"),
    (lambda: PlatWord(4, (1, 4)), ValueError, "letter 4 out of range 1..3"),
    (lambda: GradedPresentation(("x1",), {"x1": 0}, "Q"), ValueError, "unknown ring 'Q'"),
    (lambda: GradedPresentation(("x1", "x1"), {"x1": 0}), ValueError,
     "duplicate generator names"),
    (lambda: GradedPresentation(("1x",), {"1x": 0}), ValueError, "bad generator name '1x'"),
    (lambda: GradedPresentation(("x1",), {"x1": 0, "x2": 0}), ValueError,
     "grading for unknown generators ['x2']"),
    (lambda: GradedPresentation(("x1", "x2"), {"x1": 0}), ValueError,
     "no grading for generators ['x2']"),
    (lambda: GradedPresentation(("x1",), {"x1": 0}, ZT, 3), GradingError,
     "signs need a Z or even-modulus grading"),
    (lambda: MatRepAssignment(2, {"x1": (1,)}), ValueError, "image of x1 is not 2x2"),
    (lambda: MatRepAssignment(2, {"x1": (1, 4)}), ValueError, "image of x1 is not 2x2"),
    (lambda: TruncatedOp(2, (1,), 1, 0), ValueError, "row count disagrees with truncation size"),
    (lambda: TruncatedOp(2, (1, 2), 0, 0), ValueError, "growth bound must be monotone"),
    (lambda: TruncatedOp(2, (1, 2), 1, -1), ValueError, "growth bound must be monotone"),
    (lambda: TruncatedOp(2, (1, 4), 1, 0), ValueError,
     "a row is not a bitmask over 2 coordinates"),
    (lambda: TruncatedOp(2, (-1, 2), 1, 0), ValueError,
     "a row is not a bitmask over 2 coordinates"),
    (lambda: RelationSet(G, (("r", P), ("r", P))), ValueError, "duplicate relation name 'r'"),
    (lambda: RelationSet(G, (("r", parse("x1", ZT)),)), ValueError,
     "relation 'r' ring mismatch"),
    (lambda: RelationSet(G, (("r", parse("x3.x1", F2)),)), ValueError,
     "relation 'r' uses unknown generators ['x3']"),
])
def test_validating_records_keep_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message
