"""Disk-sweep differentials, reference-table equality, and serialization."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from lch import refdata
from lch.dga import (
    DGA,
    apply_diag,
    check_d_squared,
    check_homogeneous,
    compute_dga,
    deserialize,
    dga_diag_equivalent,
    serialize,
    specialize_dga,
    torus_dga,
    torus_front,
)
from lch.freealg import F2, ZT, NcPoly, parse
from lch.plat import build_front, parse_plat
from plat_strategies import front_of, knot_plats


@pytest.fixture(scope="module")
def k1_zt():
    return compute_dga(refdata.k1_front(), ZT)


@pytest.fixture(scope="module")
def k2_f2():
    return compute_dga(refdata.k2_front(), F2)


# ---- small frozen fronts ----

def test_unknot_differential():
    g = compute_dga(build_front(parse_plat("", 2)), ZT)
    assert g.d("x1") == parse("1 + t^-1*1", ZT)


def test_unknot_differential_vanishes_mod_two():
    g = compute_dga(build_front(parse_plat("", 2)), F2)
    assert g.d("x1").is_zero()


def test_trefoil_differential_zt():
    g = compute_dga(build_front(parse_plat("2,2,2", 4)), ZT)
    assert g.d("x1").is_zero() and g.d("x2").is_zero() and g.d("x3").is_zero()
    assert g.d("x4") == parse("1 + x1 + x3 + x1.x2.x3", ZT)
    assert g.d("x5") == parse("t^-1*1 - x1 - x3 - x3.x2.x1", ZT)


def test_trefoil_differential_f2():
    g = compute_dga(build_front(parse_plat("2,2,2", 4)), F2)
    assert g.d("x4") == parse("1 + x1 + x3 + x1.x2.x3", F2)
    assert g.d("x5") == parse("1 + x1 + x3 + x3.x2.x1", F2)


def test_trefoil_d_squared_and_homogeneity():
    g = compute_dga(build_front(parse_plat("2,2,2", 4)), ZT)
    assert check_d_squared(g) is None
    assert check_homogeneous(g) is None


# ---- the 25-generator reference table ----

def test_k2_matches_reference_exactly(k2_f2):
    ref = refdata.k2_reference_dga()
    assert k2_f2.presentation.generators == ref.presentation.generators
    assert k2_f2.presentation.grading == ref.presentation.grading
    for g in ref.presentation.generators:
        assert k2_f2.d(g) == ref.d(g), g


def test_k2_d_squared_and_homogeneity(k2_f2):
    assert check_d_squared(k2_f2) is None
    assert check_homogeneous(k2_f2) is None


# ---- the 23-generator reference table ----

def test_k1_d_squared_over_laurent(k1_zt):
    assert check_d_squared(k1_zt) is None


def test_k1_homogeneous(k1_zt):
    assert check_homogeneous(k1_zt) is None


def test_k1_specializes_to_reference_mod_two(k1_zt):
    ours = specialize_dga(k1_zt)
    ref = specialize_dga(refdata.k1_reference_dga())
    for g in ref.presentation.generators:
        assert ours.d(g) == ref.d(g), g


def test_k1_diag_equivalent_to_reference(k1_zt):
    ref = refdata.k1_reference_dga()
    witness = dga_diag_equivalent(k1_zt, ref)
    assert witness is not None
    eps, tau = witness
    moved = apply_diag(k1_zt, eps, tau)
    for g in ref.presentation.generators:
        assert moved.d(g) == ref.d(g), g


@pytest.mark.parametrize("tau", ["t", "t^-1", "-t", "-t^-1"])
def test_diag_equivalence_recovers_sign_changes(k1_zt, tau):
    rng = random.Random(9)
    eps = {g: rng.choice((1, -1)) for g in k1_zt.presentation.generators}
    assert -1 in eps.values()
    moved = apply_diag(k1_zt, eps, tau)
    witness = dga_diag_equivalent(k1_zt, moved)
    assert witness is not None
    assert apply_diag(k1_zt, *witness).differential == moved.differential


def test_diag_equivalence_rejects_one_flipped_sign(k1_zt):
    # d(x11) holds 1, x2.x5, x7.x4 and x7.x4.x2.x5: the signs of the last
    # three fix the sign of the constant term, so negating it alone leaves
    # no consistent sign vector for any tau
    terms = dict(k1_zt.d("x11").terms)
    terms[()] = {e: -c for e, c in terms[()].items()}
    flipped = DGA(k1_zt.presentation,
                  dict(k1_zt.differential) | {"x11": NcPoly(ZT, terms)})
    assert dga_diag_equivalent(k1_zt, flipped) is None


def test_diag_equivalence_rejects_different_supports(k1_zt):
    ref = refdata.k1_reference_dga()
    broken = DGA(ref.presentation,
                 dict(ref.differential) | {"x2": parse("x3", ZT)})
    assert dga_diag_equivalent(k1_zt, broken) is None


def test_diag_equivalence_needs_laurent_ring(k2_f2):
    with pytest.raises(ValueError):
        dga_diag_equivalent(k2_f2, k2_f2)


# ---- torus fronts ----

@pytest.mark.parametrize("p,q", refdata.TORUS_ACCEPTANCE_PAIRS)
def test_torus_dga_shape(p, q):
    front, g, lab = torus_dga(p, q)
    assert len(lab.x) == p * (p - 1) // 2
    assert len(lab.z) == q
    assert len(g.presentation.generators) == q * (p - 1) + q
    assert check_d_squared(g) is None


def test_torus_front_rejects_bad_parameters():
    with pytest.raises(ValueError):
        torus_front(3, 3)
    with pytest.raises(ValueError):
        torus_front(2, 5)
    with pytest.raises(ValueError):
        torus_front(3, 6)


def test_torus_cusp_differential_has_unit_term():
    _, g, lab = torus_dga(3, 4)
    for z in lab.z.values():
        assert g.d(z).constant_coef() == {0: 1}


# ---- serialization ----

def test_serialize_round_trip_trefoil():
    g = compute_dga(build_front(parse_plat("2,2,2", 4)), ZT)
    again = deserialize(serialize(g))
    assert again.presentation.generators == g.presentation.generators
    assert again.presentation.grading == g.presentation.grading
    assert all(again.d(x) == g.d(x) for x in g.presentation.generators)


def test_serialize_round_trip_k2(k2_f2):
    again = deserialize(serialize(k2_f2))
    assert all(again.d(x) == k2_f2.d(x) for x in k2_f2.presentation.generators)


def test_serialize_is_stable(k2_f2):
    assert serialize(k2_f2) == serialize(deserialize(serialize(k2_f2)))


def test_deserialize_rejects_missing_ring():
    with pytest.raises(ValueError, match="ring"):
        deserialize("gen x1 0\n")


def test_deserialize_rejects_unknown_ring():
    with pytest.raises(ValueError, match="unknown ring"):
        deserialize("ring GF3\n")


def test_deserialize_rejects_duplicate_generator():
    with pytest.raises(ValueError, match="duplicate"):
        deserialize("ring F2\ngen x1 0\ngen x1 1\n")


@pytest.mark.parametrize("text,why", [
    ("ring F2\ngen x1 1\nd x1 = 1\nd x1 = x1\n", "line 4: duplicate differential for x1"),
    ("ring ZT\nmod 2\nmod 4\ngen x1 1\n", "line 3: duplicate mod line"),
])
def test_deserialize_rejects_repeated_lines(text, why):
    with pytest.raises(ValueError, match=why):
        deserialize(text)


def test_deserialize_rejects_unknown_generator_in_diff():
    with pytest.raises(ValueError, match="unknown generator"):
        deserialize("ring F2\ngen x1 0\nd x1 = x2\n")


def test_deserialize_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        deserialize("ring F2\ngen x1 0\nwhat x1\n")


def test_deserialize_skips_comments_and_blanks():
    g = deserialize("# header\nring F2\n\ngen x1 2  # trailing\n")
    assert g.presentation.degree_of("x1") == 2


# ---- random plats: the structural laws ----

@settings(max_examples=100, deadline=None)
@given(knot_plats)
def test_random_plat_d_squared_zero(sw):
    front = front_of(sw)
    g = compute_dga(front, ZT)
    assert check_d_squared(g) is None


@settings(max_examples=100, deadline=None)
@given(knot_plats)
def test_random_plat_homogeneous_degree_minus_one(sw):
    front = front_of(sw)
    g = compute_dga(front, ZT)
    assert check_homogeneous(g) is None


@settings(max_examples=60, deadline=None)
@given(knot_plats)
def test_random_plat_specialize_commutes(sw):
    front = front_of(sw)
    direct = compute_dga(front, F2)
    via_zt = specialize_dga(compute_dga(front, ZT))
    assert all(direct.d(x) == via_zt.d(x) for x in direct.presentation.generators)


@settings(max_examples=40, deadline=None)
@given(knot_plats)
def test_random_plat_serialization_round_trips(sw):
    front = front_of(sw)
    g = compute_dga(front, ZT)
    again = deserialize(serialize(g))
    assert serialize(again) == serialize(g)
