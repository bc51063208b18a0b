"""Disk-sweep differentials, reference-table equality, and serialization."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, reject, settings, strategies as st

from lch import dga as dga_module, refdata
from lch.dga import (
    DGA,
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
from lch.freealg import F2, ZT, Coef, NcPoly, Word, parse
from lch.plat import build_front, maslov_grading, parse_plat
from lch.reps import torus_rep, verify_matrix_rep
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

def apply_diag(dga: DGA, eps: dict[str, int], tau: str) -> DGA:
    """Apply x_i -> eps_i x_i and t -> tau to every differential.

    tau is one of t, t^-1, -t, -t^-1, so t^e goes to s^e t^(dexp e) with
    s = +-1; written independently of the equivalence search it checks.
    """
    s = -1 if tau.startswith("-") else 1
    dexp = -1 if tau.endswith("t^-1") else 1
    out: dict[str, NcPoly] = {}
    for g, p in dga.differential.items():
        acc: dict[Word, Coef] = {}
        for w, coef in p.terms.items():
            sign = eps[g]
            for letter in w:
                sign *= eps[letter]
            slot = acc.setdefault(w, {})
            for e, c in coef.items():
                slot[dexp * e] = slot.get(dexp * e, 0) + sign * s ** (e % 2) * c
        out[g] = NcPoly(ZT, acc)
    return DGA(dga.presentation, out)


def test_k1_d_squared_over_laurent(k1_zt):
    assert check_d_squared(k1_zt) is None


def test_k1_homogeneous(k1_zt):
    assert check_homogeneous(k1_zt) is None


def test_check_homogeneous_reports_the_first_word_off_degree_mod_the_modulus():
    # mod 4, d x2 wants degree 1 (1 and 5 both are) and d x3 wants 6 = 2:
    # x2 and x1^6 are, x1^3 is the first that is not; with no modulus x1^5
    # in d x2 is already off
    table = ("gen x1 1\ngen x2 2\ngen x3 7\nd x2 = x1 + x1.x1.x1.x1.x1\n"
             "d x3 = x2 + x1.x1.x1.x1.x1.x1 + x1.x1.x1 + x1\n")
    assert check_homogeneous(deserialize("ring F2\nmod 4\n" + table)) == (
        "x3", ("x1", "x1", "x1"))
    assert check_homogeneous(deserialize("ring F2\n" + table)) == ("x2", ("x1",) * 5)


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
        assert g.d(z).terms.get(()) == {0: 1}


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


@pytest.mark.parametrize("body,why", [
    ("x2 + x1 y", "bad factor 'x1 y' in 'x2 + x1 y'"),
    ("x2 + t*x1", "t is not allowed over F2"),
])
def test_deserialize_reads_the_polynomial_before_its_generators(body, why):
    with pytest.raises(ValueError) as err:
        deserialize(f"ring F2\ngen x1 0\nd x1 = {body}\n")
    assert str(err.value) == f"line 3: {why}"


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


# ---- exactness of the event-filed sweep ----

# full sha256 of serialize(compute_dga(torus_front(p, q), ring)); the first
# 16 hex digits are the benchmark's pins
TORUS_DIGESTS = {
    (5, 8, F2): "586b65386f51887404cf8ab82c1391c1bc72d77f4a547aff50121dfce45d8b00",
    (5, 8, ZT): "f960f3ad6c6000ecfd96006ffeafdbaed49b5cb51e9ce5651e8d5d3137562156",
    (7, 9, F2): "95fd2bace5addbda183a6dc4b874fdedfa1c3646edafe816e557be5642624d41",
    (7, 9, ZT): "54c93f235424a98dc8177293ee24bd76d6ee6a73ece0d059c3a1157c738695b1",
    (9, 11, F2): "dd0ba3b293b43ad6e136c713cca6b29534c889e8762626b96a2299103e20f495",
    (9, 11, ZT): "1db706eb973c33b0a176667c090dbf14879e715c8e0e174ac41c5b722172ca26",
    (11, 13, F2): "43b8e8cda96097a77937cee67b4a8b3435ec313dda744e451acbb1544e3c0741",
    (11, 13, ZT): "f71e353315a22fc7c3fefea0e7fe0025f47d54a86e4c7b02050fef6a192d23bd",
    (13, 15, F2): "947a5c6748fc8513ebd0ea24128ab84ab436a7f2f168b0822edd4c858c7a65ea",
    (13, 15, ZT): "d30f5835478aa5aaaf2388a9e925e01fda1f53c3ab738b4933c00fa293053fb7",
}


@pytest.mark.parametrize("p,q,ring", sorted(TORUS_DIGESTS, key=str))
def test_torus_ladder_serialization_is_pinned(p, q, ring):
    text = serialize(compute_dga(torus_front(p, q)[0], ring))
    assert hashlib.sha256(text.encode()).hexdigest() == TORUS_DIGESTS[(p, q, ring)]


def test_torus_labelings_and_tables_are_pinned():
    # one sha256 over every coprime 3 <= p < q <= 15: the labeling, which
    # reads its names back from the front, then serialize on both rings;
    # recorded when build_front and torus_front still named the generators
    digest = hashlib.sha256()
    for p in range(3, 16):
        for q in range(p + 1, 16):
            if math.gcd(p, q) == 1:
                front, lab = torus_front(p, q)
                digest.update(repr((p, q, sorted(lab.x.items()), sorted(lab.y.items()),
                                    sorted(lab.z.items()))).encode())
                for ring in (F2, ZT):
                    digest.update(serialize(compute_dga(front, ring)).encode())
    assert digest.hexdigest() == "fde560f46d8ac26212eadc740e3ea8965187e2fb18fa38a293ccf3f3b8f1e8d3"


def test_torus_rep_verifies_on_every_pinned_pair():
    # every coprime 3 <= p < q <= 15, as the pin above enumerates
    for p in range(3, 16):
        for q in range(p + 1, 16):
            if math.gcd(p, q) == 1:
                _, g, lab = torus_dga(p, q)
                assert verify_matrix_rep(g, torus_rep(p, q, lab)), (p, q)


# ---- the front's reflection z -> -z ----

STUDY_PLATS = {
    "k1": (refdata.K1_STRANDS, refdata.K1_WORD),
    "k2": (refdata.K2_STRANDS, refdata.K2_WORD),
    "m942": (refdata.M942_STRANDS, refdata.M942_WORD),
    "trefoil": (4, "2,2,2"),
}


def _assert_flip_reverses_words(strands: int, letters, ring: str) -> None:
    """Reflecting a plat front in z -> -z sends letter k to strands - k.
    Crossings keep their names, right cusps j and n + 1 - j swap, and the
    base point moves with its cusp.  The reflected DGA's differential of a
    generator is then the original's with every word reversed and renamed:
    exactly over F2, and over ZT up to a diagonal equivalence once a word w
    takes the Koszul sign (-1)^(sum over i < j of |w_i| |w_j|)."""
    front = build_front(parse_plat(",".join(map(str, letters)), strands))
    crossings, cusps = front.crossing_names, front.cusp_names
    rename = dict(zip(crossings + cusps, crossings + cusps[::-1]))
    flipped = build_front(parse_plat(",".join(str(strands - k) for k in letters), strands),
                          base_cusp=rename[front.base_cusp])
    try:
        g, h = compute_dga(front, ring), compute_dga(flipped, ring)
    except RuntimeError:  # the sweep's cap refused one of them
        reject()
    degree = g.presentation.grading
    assert h.presentation.grading == {rename[x]: d for x, d in degree.items()}

    def reversed_renamed(p: NcPoly) -> NcPoly:
        terms = {}
        for w, coef in p.terms.items():
            koszul = sum(degree[a] * degree[b] for a, b in itertools.combinations(w, 2))
            sign = -1 if ring == ZT and koszul % 2 else 1
            terms[tuple(rename[x] for x in reversed(w))] = {e: sign * c for e, c in coef.items()}
        return NcPoly(ring, terms)

    want = {rename[x]: reversed_renamed(g.d(x)) for x in g.presentation.generators}
    if ring == F2:
        assert h.differential == want
    else:
        assert dga_diag_equivalent(h, DGA(h.presentation, want)) is not None


@settings(max_examples=100, deadline=None)
@given(knot_plats, st.sampled_from([F2, ZT]))
def test_random_plat_flip_reverses_every_word(sw, ring):
    _assert_flip_reverses_words(*sw, ring)


@pytest.mark.parametrize("ring", [F2, ZT])
@pytest.mark.parametrize("name", sorted(STUDY_PLATS))
def test_study_front_flip_reverses_every_word(name, ring):
    strands, word = STUDY_PLATS[name]
    _assert_flip_reverses_words(strands, [int(k) for k in word.split(",")], ring)


SWEEP_CAP = re.compile(r"disk sweep for \S+ exceeded \d+ states per slice")


def _refusal(front, ring):
    """The sweep-cap message of compute_dga, or None where it accepts."""
    try:
        compute_dga(front, ring)
    except RuntimeError as exc:
        assert type(exc) is RuntimeError and SWEEP_CAP.fullmatch(str(exc))
        return str(exc)
    return None


@pytest.mark.parametrize("word,strands,message", [
    ("2,2,2,1,3,1,1,1,3,1,3,3,2,3", 4, "disk sweep for x11 exceeded 144 states per slice"),
    # 232 words after x17, 193 of them on pairs a generator east reads: one over
    ("2,2,3,1,1,1,1,1,1,2,2,2,3,1,1,3,3,2,2,3", 4,
     "disk sweep for x17 exceeded 192 states per slice"),
    ("1,4,1,2,2,2,4,2,2,2,4,5,2,4,2,2,4,4", 6, "disk sweep for x15 exceeded 288 states per slice"),
    ("4,2,2,4,4,4,5,4,4,4,1,5,4,1,1,5,3,1,1,2", 6,
     "disk sweep for x19 exceeded 312 states per slice"),
])
def test_sweep_refusal_message_is_pinned(word, strands, message):
    front = build_front(parse_plat(word, strands))
    for ring in (F2, ZT):
        assert _refusal(front, ring) == message


def test_sweep_at_exactly_the_cap_is_kept():
    # 128 words after x12 of the first front, with nothing to prune; 233
    # after x14 of the second, exactly 144 of them on pairs a generator to
    # the east reads
    for word, cap in (("2,1,1,1,1,1,3,3,2,2,2,2", 128), ("3,3,3,2,2,2,2,2,2,2,2,2,2,2", 144)):
        front = build_front(parse_plat(word, 4))
        assert 2 * len(front.events) * front.n_slots == cap
        _assert_matches_column_sweep(front, accepted=True)


def test_sweep_needs_its_pruning(monkeypatch):
    # the second front above, with a table that keeps every pair: its 233
    # words after x14 stay, and the pass is refused
    front = build_front(parse_plat("3,3,3,2,2,2,2,2,2,2,2,2,2,2", 4))
    every = set(itertools.combinations(range(1, front.n_slots + 1), 2))
    monkeypatch.setattr(dga_module, "_needed_pairs", lambda f: [every] * len(f.events))
    for ring in (F2, ZT):
        assert _refusal(front, ring) == "disk sweep for x14 exceeded 144 states per slice"


def test_worst_case_plat_is_pinned():
    # pins the output of a long front; the pass never holds more than the
    # cap of 320 words, so it prunes nothing (the test above needs pruning)
    word = "3,3,3,1,1,1,3,3,3,3,3,3,3,3,3,1,1,1,1,3,3,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2"
    front = build_front(parse_plat(word, 4))
    assert front.base_cusp == "x38"
    for ring in (F2, ZT):
        g = compute_dga(front, ring)
        assert check_d_squared(g) is None
        one = NcPoly.one(ring)
        base = parse("t^-1", ZT) if ring == ZT else one
        want = {"x1": one, "x4": one, "x37": one, "x38": base}
        for name in front.generator_names:
            assert g.d(name) == want.get(name, NcPoly.zero(ring)), (ring, name)


def _column_sweep(front, j, ring, parity):
    """Independent oracle: carry every partial disk across every event west of j."""
    ev = front.events[j]
    acc: dict[Word, Coef] = {}
    states = [(ev.slots[0], ev.slots[1], (), (), 1)]
    for k in range(j - 1, -1, -1):
        e = front.events[k]
        a, b = e.slots
        new_states = []
        for st in states:
            u, l, up, lo, sg = st
            if e.kind == "X":
                if a == u and b == l:
                    continue
                if b == u:
                    new_states.append((a, l, up, lo, sg))
                    csg = -sg if ring == ZT and parity[e.name] == 0 else sg
                    new_states.append((u, l, up + (e.name,), lo, csg))
                elif a == u:
                    new_states.append((b, l, up, lo, sg))
                elif a == l:
                    new_states.append((u, b, up, lo, sg))
                    new_states.append((u, l, up, lo + (e.name,), sg))
                elif b == l:
                    new_states.append((u, a, up, lo, sg))
                else:
                    new_states.append(st)
            elif e.kind == "L":
                if a == u and b == l:
                    coef = acc.setdefault(up + tuple(reversed(lo)), {})
                    coef[0] = coef.get(0, 0) + sg
                elif not {a, b} & {u, l}:
                    new_states.append(st)
            else:
                new_states.append(st)
        states = new_states
    assert not states
    return NcPoly(ring, acc)


def _column_sweep_differential(front, ring):
    parity = {g: v % 2 for g, v in maslov_grading(front).grading.items()}
    diff = {}
    for j, e in enumerate(front.events):
        if e.kind == "L":
            continue
        poly = _column_sweep(front, j, ring, parity)
        if e.kind == "R":
            base = ring == ZT and e.name == front.base_cusp
            poly = poly + (parse("t^-1", ZT) if base else NcPoly.one(ring))
        diff[e.name] = poly
    return diff


def _assert_matches_column_sweep(front, accepted=False):
    """compute_dga equals the uncapped oracle on both rings wherever it
    accepts, and refuses on both rings alike; `accepted` demands acceptance."""
    refusals = {_refusal(front, ring) for ring in (F2, ZT)}
    assert len(refusals) == 1
    if refusals != {None}:
        assert not accepted
        return
    for ring in (F2, ZT):
        assert compute_dga(front, ring).differential == _column_sweep_differential(front, ring)


@settings(max_examples=100, deadline=None)
@given(knot_plats)
def test_random_plat_matches_column_sweep(sw):
    _assert_matches_column_sweep(front_of(sw))


def test_longer_plats_match_column_sweep():
    # longer words than knot_plats draws, where most events pass a partial
    # disk by
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        strands = rng.choice((4, 6, 8))
        word = ",".join(str(rng.randint(1, strands - 1)) for _ in range(rng.randint(9, 18)))
        try:
            front = build_front(parse_plat(word, strands))
        except ValueError:
            continue
        _assert_matches_column_sweep(front)
        checked += 1


@pytest.mark.parametrize("word,strands", [
    # refused under a cap of events times slots on partial disks per generator
    ("3,1,1,3,3,3,1,3,2,3,1", 4),
    ("3,3,3,1,1,1,3,1,1,2", 4),
    ("2,2,3,3,3,1,1,3,1,1,2,3,3", 4),
    ("4,1,2,4,1,5,2,4,4,4,4,4,5", 6),
    ("3,3,1,2,2,2,4,1,4,4,2,2", 6),
    ("6,7,3,7,7,2,3,6,3,4,6,6,6,6", 8),
    ("7,4,2,3,4,1,4,6,1,6,6,6,6,4,1,1,7", 8),
    ("1,1,1,1,1,3,1,1,2", 4),
    # exactly at that cap
    ("3,5,1,5,2,4,1,2,4,1,4,5,2,2,1", 6),
])
def test_former_refusals_match_column_sweep(word, strands):
    _assert_matches_column_sweep(build_front(parse_plat(word, strands)), accepted=True)


@settings(max_examples=100, deadline=None)
@given(knot_plats)
def test_random_plat_refusal_is_ring_independent(sw):
    front = front_of(sw)
    assert _refusal(front, F2) == _refusal(front, ZT)


def test_bench_style_plat_refusal_is_ring_independent():
    # 6 to 24 letters on 4, 6 or 8 strands, as the bench draws them, and as
    # runs of 1 to 5 equal letters, which overflow more often
    rng = random.Random(24)
    checked = refused = 0
    while checked < 300:
        strands = rng.choice((4, 6, 8))
        length = rng.randint(6, 24)
        letters: list[int] = []
        while len(letters) < length:
            run = rng.randint(1, 5) if checked % 2 else 1
            letters += [rng.randint(1, strands - 1)] * run
        word = ",".join(map(str, letters[:length]))
        try:
            front = build_front(parse_plat(word, strands))
        except ValueError:
            continue
        message = _refusal(front, F2)
        assert _refusal(front, ZT) == message, word
        refused += message is not None
        checked += 1
    assert refused  # some of them do overflow
