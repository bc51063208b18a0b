"""The piece walk of `lch.plat` against two independent oracles.

The segment walk in `oracles` walks the closure one (column, slot) segment
at a time; the piece walk must give the same signs, cusp counts, drift and
crossing potentials, and refuse the same links with the same message.  The
Jones polynomial in `jones` ties the walk's crossing signs to a smooth
invariant and checks the knot type of the study knots and the torus ladder.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from jones import divide, jones_polynomial, writhe
from lch import refdata
from lch.dga import torus_front
from lch.plat import Event, FrontDiagram, build_front, classical_invariants, maslov_grading, parse_plat
from oracles import segment_walk
from plat_strategies import front_of, knot_plats, small_plats

FIXED_FRONTS = {
    "k1": refdata.k1_front,
    "k2": refdata.k2_front,
    "m9_42": lambda: build_front(parse_plat(refdata.M942_WORD, refdata.M942_STRANDS)),
    **{f"T({p},-{q})": (lambda p=p, q=q: torus_front(p, q)[0])
       for p, q in refdata.TORUS_ACCEPTANCE_PAIRS + ((7, 9),)},
}


def plat_events(strands: int, letters) -> tuple[Event, ...]:
    """A plat's events as the module docstring of `lch.plat` lays them out;
    `FrontDiagram` names them and checks the live slots, not the closure."""
    cusps = [(2 * i - 1, 2 * i) for i in range(1, strands // 2 + 1)]
    events = ([("L", c) for c in cusps] + [("X", (k, k + 1)) for k in letters]
              + [("R", c) for c in cusps])
    return FrontDiagram(strands, events).events


def refusal(build) -> str | None:
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


def assert_walks_agree(front):
    walk = segment_walk(front.events, front.n_slots)
    tr = front.traversal
    assert tr.crossing_signs == walk.crossing_signs
    assert (tr.down_cusps, tr.up_cusps, tr.drift) == (walk.down_cusps, walk.up_cusps, walk.drift)
    tb = sum(walk.crossing_signs.values()) - len(front.cusp_names)
    assert classical_invariants(front) == (tb, (walk.down_cusps - walk.up_cusps) // 2)
    m = abs(walk.drift)
    expected = {name: g % m if m else g for name, g in walk.potential.items()}
    expected.update({name: 1 % m if m else 1 for name in front.cusp_names})
    table = maslov_grading(front)
    assert (table.grading, table.modulus) == (expected, m)


@settings(max_examples=150, deadline=None)
@given(knot_plats)
def test_piece_walk_matches_segment_walk_on_random_knots(sw):
    assert_walks_agree(front_of(sw))


@pytest.mark.parametrize("name", FIXED_FRONTS)
def test_piece_walk_matches_segment_walk_on_fixed_knots(name):
    assert_walks_agree(FIXED_FRONTS[name]())


@settings(max_examples=150, deadline=None)
@given(small_plats)
def test_piece_walk_refuses_the_links_the_segment_walk_refuses(sw):
    strands, letters = sw
    expected = refusal(lambda: segment_walk(plat_events(strands, letters), strands))
    assert refusal(lambda: front_of(sw)) == expected


@settings(max_examples=100, deadline=None)
@given(knot_plats)
def test_oracle_writhe_is_tb_plus_right_cusps_on_random_knots(sw):
    front = front_of(sw)
    assert writhe(front.events) == classical_invariants(front)[0] + len(front.cusp_names)


@pytest.mark.parametrize("name", FIXED_FRONTS)
def test_oracle_writhe_is_tb_plus_right_cusps_on_fixed_knots(name):
    front = FIXED_FRONTS[name]()
    assert writhe(front.events) == classical_invariants(front)[0] + len(front.cusp_names)


# ---- the Jones polynomial ----

def test_jones_of_the_right_handed_trefoil():
    front = build_front(parse_plat("2,2,2", 4))
    assert jones_polynomial(front.events) == {1: 1, 3: 1, 4: -1}


@pytest.mark.parametrize("name", ["k1", "k2"])
def test_jones_of_the_study_knots_is_that_of_t25(name):
    # 10_132 is the classical knot with the Jones polynomial of 5_1 = T(2,5)
    front = FIXED_FRONTS[name]()
    assert jones_polynomial(front.events) == {2: 1, 4: 1, 5: -1, 6: 1, 7: -1}


def test_jones_of_m942_as_computed():
    # pinned as this sweep computes it; no knot table is at hand to compare with
    front = build_front(parse_plat(refdata.M942_WORD, refdata.M942_STRANDS))
    assert jones_polynomial(front.events) == {-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1}


@pytest.mark.parametrize("p,q", refdata.TORUS_ACCEPTANCE_PAIRS)
def test_jones_of_the_torus_ladder_matches_the_torus_formula(p, q):
    # V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
    # and T(p,-q) is its mirror, t -> 1/t
    shift = (p - 1) * (q - 1) // 2
    numerator: dict[int, int] = {}
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        numerator[shift + e] = numerator.get(shift + e, 0) + c
    positive = divide(numerator, {0: 1, 2: -1})
    front, _ = torus_front(p, q)
    assert jones_polynomial(front.events) == {-e: c for e, c in positive.items()}
