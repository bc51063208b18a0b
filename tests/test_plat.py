"""Plat parsing, front traversal, classical invariants, and gradings."""

from __future__ import annotations

import itertools
import math
import re

import pytest
from hypothesis import given, settings

from lch import refdata
from lch.dga import torus_front
from lch.plat import (
    Event,
    FrontDiagram,
    build_front,
    classical_invariants,
    maslov_grading,
    parse_plat,
)
from plat_strategies import (
    braid_permutation,
    closure_is_knot,
    front_of,
    knot_completions,
    knot_plats,
    knot_word,
    small_plats,
)


@pytest.fixture(scope="module")
def k1():
    return refdata.k1_front()


@pytest.fixture(scope="module")
def k2():
    return refdata.k2_front()


# ---- parsing ----

def test_parse_plat_basic():
    w = parse_plat("2,2,2", 4)
    assert w.letters == (2, 2, 2) and w.strand_count == 4


def test_parse_plat_empty_word():
    assert parse_plat("", 2).letters == ()


def test_parse_plat_whitespace():
    assert parse_plat(" 2 , 1 ", 4).letters == (2, 1)


def test_parse_plat_rejects_odd_strands():
    with pytest.raises(ValueError):
        parse_plat("1", 3)


def test_parse_plat_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        parse_plat("4", 4)
    with pytest.raises(ValueError):
        parse_plat("0", 4)


def test_parse_plat_rejects_garbage():
    with pytest.raises(ValueError):
        parse_plat("2,x", 4)


# ---- front construction ----

def test_build_front_rejects_links():
    # two parallel unknots
    with pytest.raises(ValueError, match="components"):
        build_front(parse_plat("", 4))


def test_build_front_link_message_counts_components():
    # three parallel unknots
    with pytest.raises(ValueError) as err:
        build_front(parse_plat("", 6))
    assert str(err.value) == "closure has 3 components, need a knot"


def test_unknot_front_has_one_generator():
    front = build_front(parse_plat("", 2))
    assert front.generator_names == ("x1",)


def test_trefoil_front_generators():
    front = build_front(parse_plat("2,2,2", 4))
    assert front.generator_names == ("x1", "x2", "x3", "x4", "x5")
    assert front.cusp_names == ("x4", "x5")


def test_k1_front_counts(k1):
    assert len(k1.generator_names) == 23
    assert len(k1.cusp_names) == 4


def test_k2_front_counts(k2):
    assert len(k2.generator_names) == 25
    assert len(k2.cusp_names) == 3


def test_base_cusp_defaults_to_last(k2):
    assert k2.base_cusp == "x25"


def test_base_cusp_override():
    front = build_front(parse_plat("2,2,2", 4), base_cusp="x4")
    assert front.base_cusp == "x4"


def test_base_cusp_must_be_a_right_cusp():
    with pytest.raises(ValueError, match="cusp"):
        build_front(parse_plat("2,2,2", 4), base_cusp="x1")


# ---- classical invariants ----

def test_trefoil_invariants():
    assert classical_invariants(build_front(parse_plat("2,2,2", 4))) == (1, 0)


def test_unknot_invariants():
    assert classical_invariants(build_front(parse_plat("", 2))) == (-1, 0)


def test_k1_invariants(k1):
    assert classical_invariants(k1) == (-1, 0)


def test_k2_invariants(k2):
    assert classical_invariants(k2) == (-1, 0)


@pytest.mark.parametrize("p,q", refdata.TORUS_ACCEPTANCE_PAIRS)
def test_torus_tb(p, q):
    from lch.dga import torus_front

    front, _ = torus_front(p, q)
    tb, _ = classical_invariants(front)
    assert tb == -p * q


# ---- gradings ----

def test_trefoil_grading():
    table = maslov_grading(build_front(parse_plat("2,2,2", 4)))
    assert table.modulus == 0
    assert table.grading == {"x1": 0, "x2": 0, "x3": 0, "x4": 1, "x5": 1}


def test_k1_odd_grading_set(k1):
    table = maslov_grading(k1)
    assert table.modulus == 0
    odd = {g for g, d in table.grading.items() if d % 2 == 1}
    assert odd == {"x2", "x3", "x5", "x9", "x11", "x12", "x13", "x15",
                   "x20", "x21", "x22", "x23"}


def test_k2_cusps_have_degree_one(k2):
    table = maslov_grading(k2)
    assert all(table.grading[c] == 1 for c in k2.cusp_names)


def test_grading_rejects_links():
    # bypassing build_front leaves a two-component closure in place
    events = [("L", (1, 2)), ("L", (3, 4)), ("R", (1, 2)), ("R", (3, 4))]
    with pytest.raises(ValueError):
        maslov_grading(FrontDiagram(4, events))


def _loop(c, d):
    return [("L", (c, d)), ("X", (c, d)), ("R", (c, d))]


@pytest.mark.parametrize("n_slots,events,base,message", [
    # slot 0 would index the sweep's per-slot rows from the end
    (2, _loop(0, 1), None, "slot 0 below 1"),
    (2, _loop(1, 3), None, "slot 3 beyond n_slots=2"),
    (4, [("L", (2, 3)), ("L", (1, 4))], None,
     "Event(kind='L', slots=(1, 4), name=None) straddles live slots [2, 3]"),
    (2, [("L", (1, 2)), ("L", (1, 2))], None,
     "Event(kind='L', slots=(1, 2), name=None) opens already-live slots"),
    (2, [("X", (1, 2))], None,
     "Event(kind='X', slots=(1, 2), name='x1') touches dead slots"),
    (4, [("L", (1, 2)), ("L", (3, 4)), ("R", (3, 4))], None,
     "slots [1, 2] never close"),
    # a caller's names, missing or repeated, are refused: the front names its own
    (2, [("L", (1, 2)), Event("X", (1, 2), None)], None,
     "events are (kind, slots) pairs, got Event(kind='X', slots=(1, 2), name=None): "
     "FrontDiagram names crossings and right cusps itself"),
    (2, [("L", (1, 2)), ("X", (1, 2)), Event("R", (1, 2), "x1")], None,
     "events are (kind, slots) pairs, got Event(kind='R', slots=(1, 2), name='x1'): "
     "FrontDiagram names crossings and right cusps itself"),
    (2, _loop(1, 2), "x1", "base point cusp 'x1' is not a right cusp"),
    # the kind is checked first, then the slot order, then the live slots
    (2, [("L", (1, 2)), ("Y", (2, 1))], None, "unknown event kind 'Y'"),
    (2, [("L", (1, 2)), ("X", (2, 1))], None,
     "event slots must be (upper, lower), got (2, 1)"),
], ids=["below-1", "beyond-n", "straddle", "reopen", "dead", "unclosed",
        "unnamed", "repeated-name", "base-cusp", "unknown-kind", "slot-order"])
def test_front_diagram_validation_messages(n_slots, events, base, message):
    with pytest.raises(ValueError) as err:
        FrontDiagram(n_slots, events, base_cusp=base)
    assert str(err.value) == message


def test_front_diagram_names_generators_in_event_order():
    # crossings and right cusps share one count, even where they interleave
    front = FrontDiagram(4, [("L", (1, 2)), ("L", (3, 4)), ("X", (2, 3)), ("R", (1, 2)),
                             ("X", (3, 4)), ("R", (3, 4))])
    assert [ev.name for ev in front.events] == [None, None, "x1", "x2", "x3", "x4"]
    assert (front.crossing_names, front.cusp_names) == (("x1", "x3"), ("x2", "x4"))
    assert front.generator_names == ("x1", "x3", "x2", "x4")
    assert front.base_cusp == "x4"


# ---- random plats ----

@settings(max_examples=150, deadline=None)
@given(small_plats)
def test_build_front_accepts_exactly_the_knot_closures(sw):
    strands, letters = sw
    try:
        front_of(sw)
    except ValueError as exc:
        assert re.fullmatch(r"closure has \d+ components, need a knot", str(exc))
        accepted = False
    else:
        accepted = True
    assert accepted == closure_is_knot(braid_permutation(strands, letters))


@pytest.mark.parametrize("strands,max_length", [(2, 8), (4, 6), (6, 4)])
def test_knot_words_are_the_words_build_front_accepts(strands, max_length):
    # knot_plats decodes indices below knot_completions; short words are
    # few enough to list every one and build its front
    start = tuple(range(strands))
    for length in range(max_length + 1):
        accepted = []
        for word in itertools.product(range(1, strands), repeat=length):
            try:
                front_of((strands, word))
            except ValueError:
                continue
            accepted.append(list(word))
        decoded = [knot_word(strands, length, i)[1]
                   for i in range(knot_completions(start, length))]
        assert decoded == accepted


@settings(max_examples=150, deadline=None)
@given(knot_plats)
def test_random_plat_invariants_consistent(sw):
    _, letters = sw
    front = front_of(sw)
    tb, r = classical_invariants(front)
    table = maslov_grading(front)
    # cusp degrees are 1 mod the grading modulus, and tb + 1 counts crossings
    # minus twice the negative ones, so tb has the parity of the crossing count
    m = table.modulus
    assert all(table.grading[c] == (1 % m if m else 1) for c in front.cusp_names)
    assert (tb + len(front.cusp_names)) % 2 == len(letters) % 2
    assert m % 2 == 0


_TORUS_PAIRS = [(p, q) for p in range(3, 15) for q in range(p + 1, 16) if math.gcd(p, q) == 1]


def _assert_turns_balance_in_parity(front):
    # up + down cusp turns is twice the number of left cusps, so the drift
    # (up - down) and the imbalance (down - up) are even: a ZT grading never
    # meets an odd modulus, and r = (down - up)/2 is exact
    tr = front.traversal
    assert tr.up_cusps + tr.down_cusps == 2 * sum(e.kind == "L" for e in front.events)
    assert tr.drift % 2 == 0 and (tr.down_cusps - tr.up_cusps) % 2 == 0


@settings(max_examples=200, deadline=None)
@given(knot_plats)
def test_drift_and_cusp_imbalance_are_even_on_plats(sw):
    _assert_turns_balance_in_parity(front_of(sw))


@pytest.mark.parametrize("p, q", _TORUS_PAIRS)
def test_drift_and_cusp_imbalance_are_even_on_torus_fronts(p, q):
    _assert_turns_balance_in_parity(torus_front(p, q)[0])
