"""Augmentations, matrix representations, and the truncated operator action."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lch import refdata
from lch import reps as reps_module
from lch.chalg import RelationSet
from lch.dga import DGA, compute_dga, deserialize, torus_dga
from lch.freealg import F2, ZT, GradedPresentation, NcPoly, parse
from lch.plat import build_front, parse_plat
from lch.reps import (
    MatRepAssignment,
    TruncatedOp,
    build_R_truncated,
    check_R_relations,
    decode_matrix,
    deserialize_rep,
    encode_matrix,
    evaluate_poly,
    find_augmentations,
    mat2_presentation_check,
    mat_add,
    mat_identity,
    mat_mul,
    mat_zero,
    search_matrix_rep,
    serialize_rep,
    torus_rep,
    verify_matrix_rep,
    verify_R_relations,
    _search,
)
from oracles import exhaustive_augmentations
from plat_strategies import front_of, knot_plats


@pytest.fixture(scope="module")
def trefoil():
    return compute_dga(build_front(parse_plat("2,2,2", 4)), F2)


@pytest.fixture(scope="module")
def k2():
    return compute_dga(refdata.k2_front(), F2)


@pytest.fixture(scope="module")
def m942():
    return compute_dga(refdata.m942_front(), F2)


# ---- matrix arithmetic ----

def test_mat_identity_neutral():
    m = (3, 1, 7)
    assert mat_mul(m, mat_identity(3)) == m
    assert mat_mul(mat_identity(3), m) == m


def test_mat_mul_matches_by_hand():
    a = (2, 0)  # upper right
    b = (0, 1)  # lower left
    assert mat_mul(a, b) == (1, 0)
    assert mat_mul(b, a) == (0, 2)
    assert mat_add(mat_mul(a, b), mat_mul(b, a)) == mat_identity(2)


@given(st.integers(0, 511), st.integers(0, 511), st.integers(0, 511))
def test_mat_mul_associative(x, y, z):
    a, b, c = (decode_matrix(v, 3) for v in (x, y, z))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@given(st.integers(1, 3), st.data())
def test_encode_decode_round_trip(n, data):
    code = data.draw(st.integers(0, (1 << (n * n)) - 1))
    assert encode_matrix(decode_matrix(code, n), n) == code


def _entrywise_product(x: int, y: int, n: int) -> int:
    """The code of the product of the matrices coded x and y, entry by entry:
    entry (i, j), at bit i*n + j, is the parity of sum_k x_ik y_kj."""
    code = 0
    for i in range(n):
        for j in range(n):
            bit = 0
            for k in range(n):
                bit ^= (x >> (i * n + k)) & (y >> (k * n + j)) & 1
            code |= bit << (i * n + j)
    return code


@given(st.integers(1, 6), st.data())
def test_mat_mul_matches_entrywise_product(n, data):
    x, y = (data.draw(st.integers(0, (1 << (n * n)) - 1)) for _ in range(2))
    product = mat_mul(decode_matrix(x, n), decode_matrix(y, n))
    assert encode_matrix(product, n) == _entrywise_product(x, y, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_table_matches_entrywise_product(n):
    # the search's table is built from mat_mul, so it is checked against a
    # product that shares no code with it: every pair at n <= 2, a seeded
    # sample at n = 3
    table = reps_module._product_table(n)
    count = 1 << (n * n)
    assert len(table) == count and all(len(row) == count for row in table)
    if n < 3:
        pairs = list(itertools.product(range(count), repeat=2))
    else:
        rng = random.Random(19)
        pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(4000)]
    for x, y in pairs:
        assert table[x][y] == _entrywise_product(x, y, n), (x, y)


def test_evaluate_poly_unit_is_identity(trefoil):
    images = {g: mat_zero(2) for g in trefoil.presentation.generators}
    assert evaluate_poly(NcPoly.one(F2), images, 2) == mat_identity(2)


def test_evaluate_poly_needs_all_images():
    with pytest.raises(ValueError, match="no image"):
        evaluate_poly(parse("x1", F2), {}, 2)


def test_evaluate_poly_rejects_laurent_ring():
    with pytest.raises(ValueError, match="F2"):
        evaluate_poly(NcPoly.one(ZT), {}, 2)


# ---- augmentations ----

def test_trefoil_augmentations_nonempty(trefoil):
    augs = find_augmentations(trefoil)
    assert augs
    assert augs == exhaustive_augmentations(trefoil)


def test_trefoil_graded_augmentations(trefoil):
    graded = find_augmentations(trefoil, graded=True)
    crossings = [tuple(a[f"x{i}"] for i in (1, 2, 3)) for a in graded]
    assert sorted(crossings) == [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    assert all(a["x4"] == 0 and a["x5"] == 0 for a in graded)


def test_augmentations_verify_as_one_dim_reps(trefoil):
    for aug in find_augmentations(trefoil):
        rho = MatRepAssignment(1, {g: (v,) for g, v in aug.items()})
        assert verify_matrix_rep(trefoil, rho)


def test_k2_has_no_augmentations(k2):
    assert find_augmentations(k2) == []


def test_torus_3_4_has_no_augmentations():
    _, g, _ = torus_dga(3, 4)
    assert find_augmentations(g) == []


def test_unknot_augmentations():
    g = compute_dga(build_front(parse_plat("", 2)), F2)
    # over F2 the cusp differential 1 + t^-1 collapses to zero, so both
    # assignments survive
    assert find_augmentations(g) == [{"x1": 0}, {"x1": 1}]


def test_m942_augmentations_match_oracle():
    g = compute_dga(refdata.m942_front(), F2)
    assert find_augmentations(g) == exhaustive_augmentations(g)


@settings(max_examples=60, deadline=None)
@given(knot_plats)
def test_random_plat_augmentations_match_oracle(sw):
    g = compute_dga(front_of(sw), F2)
    oracle = exhaustive_augmentations(g)
    assert find_augmentations(g) == oracle
    # graded augmentations are the maps that vanish off degree 0
    pres = g.presentation
    graded = [eps for eps in oracle
              if all(pres.degree_of(x) == 0 for x, v in eps.items() if v)]
    assert find_augmentations(g, graded=True) == graded


_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"  # of "[]"

# sha256 of repr(find_augmentations(g, graded)), recorded before levels kept
# their zeros; ungraded T(7,-9) and the larger torus knots do not finish
_AUG_DIGESTS = [
    ("T(5,-8)", lambda: torus_dga(5, 8)[1], False, _EMPTY),
    *[(f"T({p},-{q})", lambda p=p, q=q: torus_dga(p, q)[1], True, _EMPTY)
      for p, q in ((5, 8), (7, 9), (9, 11), (11, 13), (13, 15))],
    *[(name, make, graded, _EMPTY) for name, make in (
        ("k1", lambda: compute_dga(refdata.k1_front(), F2)),
        ("k2", lambda: compute_dga(refdata.k2_front(), F2)),
        ("m942", lambda: compute_dga(refdata.m942_front(), F2)))
      for graded in (False, True)],
    ("trefoil", lambda: compute_dga(build_front(parse_plat("2,2,2", 4)), F2), False,
     "ec24a46bbef0f1c9a44b000e16b5332d4710c0500ed5c5a470300fb5b4039c23"),
    ("trefoil", lambda: compute_dga(build_front(parse_plat("2,2,2", 4)), F2), True,
     "c08fa5ce32eb9ccf07b2c9ebcfdf231005324d1afc56c8c36a291b1b13659644"),
    ("2,2,2,2,2", lambda: compute_dga(build_front(parse_plat("2,2,2,2,2", 4)), F2), False,
     "a30079660e2223a475417ea6739c20ced0d40dc4cb16bdd3fe5596c998c96107"),
    ("2,2,2,2,2", lambda: compute_dga(build_front(parse_plat("2,2,2,2,2", 4)), F2), True,
     "d11f29a021e700659e36f90a478e81ba26adc6306c22bbcd8143c97d9f0376f1"),
]


@pytest.mark.parametrize("make,graded,digest", [c[1:] for c in _AUG_DIGESTS],
                         ids=[f"{c[0]}-{'graded' if c[2] else 'ungraded'}" for c in _AUG_DIGESTS])
def test_augmentations_are_pinned(make, graded, digest):
    found = find_augmentations(make(), graded=graded)
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


# the node counts of the ungraded T(5,-q) walks, recorded before the search
# kept its images in one int; every one of them finds nothing
@pytest.mark.parametrize("q,nodes", [(6, 18_800), (7, 49_328), (8, 66_736),
                                     (9, 91_312), (11, 91_312), (12, 91_312)])
def test_ungraded_torus_walks_are_pinned(q, nodes):
    assert reps_module._augmentations(torus_dga(5, q)[1], False, 10 ** 8) == ([], "exhausted", nodes)


def test_augmentation_budget_stops_inconclusive():
    g = torus_dga(7, 9)[1]
    assert reps_module._augmentations(g, False, 10 ** 5) == ([], "budget", 10 ** 5)
    trefoil = compute_dga(build_front(parse_plat("2,2,2", 4)), F2)
    every, reason, nodes = reps_module._augmentations(trefoil, False, 10 ** 8)
    assert (every, reason) == (find_augmentations(trefoil), "exhausted")
    # a budget short of the whole space keeps the solutions found before it ran out
    found, reason, _ = reps_module._augmentations(trefoil, False, nodes - 1)
    assert reason == "budget" and found == every[:len(found)] and len(found) < len(every)


def test_exhaustive_oracle_refuses_large_inputs(k2):
    with pytest.raises(ValueError, match="brute force"):
        exhaustive_augmentations(k2)


def _graded_dga(degrees, differentials):
    pres = GradedPresentation(tuple(degrees), dict(degrees), F2)
    return DGA(pres, {x: parse(differentials.get(x, "0"), F2) for x in degrees})


@pytest.mark.parametrize("degree", [2, 0])
def test_graded_pinning_reads_degrees_mod_the_modulus(degree):
    # deserialize keeps degree 2 as written; mod 2 it is 0, so x1 is free
    g = deserialize(f"ring F2\nmod 2\ngen x1 {degree}\ngen x2 1\nd x2 = 1 + x1\n")
    found = find_augmentations(g, graded=True)
    assert found == exhaustive_augmentations(g, graded=True) == [{"x1": 1, "x2": 0}]


def test_graded_pinning_to_the_constant_one_leaves_nothing():
    # x2 and x3 have nonzero degree, so pinning turns d x1 = 1 + x2.x3 into 1
    g = _graded_dga({"x1": 1, "x2": 1, "x3": -1}, {"x1": "1 + x2.x3"})
    assert reps_module._augmentations(g, True, 10 ** 8) == ([], "exhausted", 0)
    assert exhaustive_augmentations(g, graded=True) == []
    assert find_augmentations(g) == exhaustive_augmentations(g) != []


def test_graded_pinning_drops_a_relation_whose_words_are_all_pinned():
    # pinning x2 and x3 removes every word of d x4 = x2.x3, which ungraded
    # rules out x2 = x3 = 1; graded, only d x5 = 1 + x1 is left
    degrees = {"x1": 0, "x2": 1, "x3": -1, "x4": 1, "x5": 1}
    g = _graded_dga(degrees, {"x4": "x2.x3", "x5": "1 + x1"})
    without = _graded_dga(degrees, {"x5": "1 + x1"})
    assert (reps_module._augmentations(g, True, 10 ** 8)
            == reps_module._augmentations(without, True, 10 ** 8))
    assert find_augmentations(g, graded=True) == exhaustive_augmentations(g, graded=True) == [
        {"x1": 1, "x2": 0, "x3": 0, "x4": 0, "x5": 0}]
    assert find_augmentations(g) == exhaustive_augmentations(g) != exhaustive_augmentations(without)


# ---- matrix representation search ----

def test_search_dim_one_agrees_with_augmentations(trefoil):
    hit = search_matrix_rep(trefoil, 1)
    first = find_augmentations(trefoil)[0]
    assert hit is not None
    assert hit.images == {g: (v,) for g, v in first.items()}


def test_search_trefoil_dim_two_finds_and_verifies(trefoil):
    rho = search_matrix_rep(trefoil, 2)
    assert rho is not None
    assert verify_matrix_rep(trefoil, rho)


def test_search_is_deterministic(trefoil):
    a = search_matrix_rep(trefoil, 2)
    b = search_matrix_rep(trefoil, 2)
    assert a.images == b.images


def test_search_budget_exhaustion_is_inconclusive(k2):
    assert search_matrix_rep(k2, 2, budget=50_000) is None
    # k2 has no finite-dimensional representation at all, so a search that
    # ran out of space would also return None; it must stop on the budget
    assert _search(k2, 2, 50_000)[1:] == ("budget", 50_000)


def _one_relation(text):
    pres = GradedPresentation(("x1", "x2"))
    return RelationSet(pres, (("r", parse(text, F2)),))


@pytest.mark.parametrize("target,n", [
    ("trefoil", 6),
    # relations that are not linear in the generator they close at, x2 and x1
    (_one_relation("x2.x2 + x1 + 1"), 4),
    (_one_relation("x1.x1 + x1 + 1"), 4),
    # linear in x2, but above n = 3 nothing is solved
    (_one_relation("x1.x2 + x2.x1 + 1"), 4),
])
def test_search_budget_bounds_work_above_table(target, n, request, monkeypatch):
    # above n = 3 every level is enumerated one candidate at a time, so a
    # small budget stops the search after a few matrix products
    if isinstance(target, str):
        target = request.getfixturevalue(target)
    products = []
    real = reps_module.mat_mul
    monkeypatch.setattr(reps_module, "mat_mul",
                        lambda a, b: products.append(a) or real(a, b))
    # a solved level would tabulate all 2^(n^2) candidates on every visit
    monkeypatch.setattr(reps_module, "_subset_xor",
                        lambda base, units: pytest.fail("solved a level above n = 3"))
    assert _search(target, n, 10) == (None, "budget", 10)
    _, rels = reps_module._constraints(target)
    letters = sum(len(w) for r in rels for w in r.terms)
    assert 0 < len(products) <= 10 * letters


def _bits(rho):
    return " ".join(ln.split(" = ")[1] for ln in serialize_rep(rho).splitlines()[1:])


# first hits and node counts of plain enumeration, recorded before any level
# was solved instead of enumerated
_PINNED_SEARCHES = [
    ("T(3,-4)", lambda: torus_dga(3, 4)[1], 2, 60_180,
     "0100 0100 0010 0100 0010 0100 0010 0010" + " 0000" * 4),
    ("T(3,-5)", lambda: torus_dga(3, 5)[1], 2, 101_181,
     "0100 0100 0010 0100 0010 0100 0010 0100 0010 0010" + " 0000" * 5),
    ("T(3,-7)", lambda: torus_dga(3, 7)[1], 2, 797_583,
     "0100 0100 0010 0100 0010 0100 0010 0100 0010 0100 0010 0100 0010 0010"
     + " 0000" * 7),
    ("T(3,-8)", lambda: torus_dga(3, 8)[1], 2, 3_025_848,
     "0100 0100 0010 0100 0010 0100 0010 0100 0010 0100 0010 0100 0010 0100 0010 0010"
     + " 0000" * 8),
    ("2,2,2", lambda: compute_dga(build_front(parse_plat("2,2,2", 4)), F2), 3, 278,
     "000000000 000000000 100010001 000000000 000000000"),
    ("2,2,2,2,2", lambda: compute_dga(build_front(parse_plat("2,2,2,2,2", 4)), F2), 3, 280,
     "000000000 000000000 000000000 000000000 100010001 000000000 000000000"),
    # above n = 3 there is no product table
    ("2,2,2 n=4", lambda: compute_dga(build_front(parse_plat("2,2,2", 4)), F2), 4, 33_830,
     " ".join(["0" * 16] * 2 + ["1000010000100001"] + ["0" * 16] * 2)),
]


@pytest.mark.parametrize("make,n,nodes,bits", [p[1:] for p in _PINNED_SEARCHES],
                         ids=[p[0] for p in _PINNED_SEARCHES])
def test_search_matches_plain_enumeration(make, n, nodes, bits):
    g = make()
    rho, reason, count = _search(g, n, 10 ** 8)
    assert (reason, count) == ("found", nodes)
    assert _bits(rho) == bits and verify_matrix_rep(g, rho)
    # a budget of exactly the hit's node count still finds it; one less stops
    assert _search(g, n, nodes)[1:] == ("found", nodes)
    assert _search(g, n, nodes - 1)[1:] == ("budget", nodes - 1)


def _enumeration_oracle(rs, n):
    """First hit and node count of plain depth-first enumeration, by brute force.

    A prefix of codes is tried exactly when every relation supported on its
    parent prefix vanishes there and it does not come after the hit.
    """
    gens = rs.presentation.generators
    rels = [v for _, v in rs.relations]
    tops = [max((gens.index(x) for x in r.generators()), default=-1) for r in rels]
    mats = [decode_matrix(c, n) for c in range(1 << (n * n))]

    def passes(prefix):
        images = dict(zip(gens, (mats[c] for c in prefix)))
        return all(evaluate_poly(r, images, n) == mat_zero(n)
                   for r, top in zip(rels, tops) if top < len(prefix))

    codes = range(len(mats))
    hit = next((a for a in itertools.product(codes, repeat=len(gens)) if passes(a)), None)
    nodes = sum(1 for i in range(len(gens)) for p in itertools.product(codes, repeat=i + 1)
                if passes(p[:-1]) and (hit is None or p <= hit[:i + 1]))
    return hit, nodes


@pytest.mark.parametrize("gens,rels,n", [
    # x1 and x2 appear twice in a word of the relations they close, so both
    # levels are enumerated; x3 closes nothing
    (3, ["x1.x1 + 1", "x2.x1.x2 + x1 + x2"], 2),
    (2, ["x2.x1.x2 + 1"], 2),
    # one of x3's relations is linear in x3 and one is not
    (3, ["x1.x3 + x3.x1 + 1", "x3.x3"], 2),
    # x2 closes nothing; x3 is solved from two relations
    (3, ["x1.x3 + x3.x1 + 1", "x2.x3 + x1"], 2),
    (3, ["x1.x1 + x1 + 1", "x3.x1 + x1.x3 + x1"], 2),
    (2, ["x1.x2 + x2.x1 + 1"], 1),
    (2, ["1"], 2),
    # a generator leaves the frontier above a failing subtree, which is then
    # charged from memory: x2 is free, so x3's subtree repeats under each x1
    (3, ["x1.x3 + x3.x1 + 1"], 2),
    # the same at n = 1, where the space is exhausted right after a charge
    (3, ["x1.x3 + x3.x1 + 1"], 1),
    # x2 is solved with several zeros and no later relation reads it
    (3, ["x1.x2 + x2.x1", "x3.x1 + x1.x3 + 1"], 2),
    # x1 leaves at x3 while x3 enters, as in the T(3,-q) searches, so the
    # subtree below x3 is keyed by the images of x2 and x3
    (4, ["x1.x1", "x2 + x3.x1.x2", "x2.x4 + x3.x4.x2 + 1"], 2),
])
def test_search_matches_brute_force_oracle(gens, rels, n):
    pres = GradedPresentation(tuple(f"x{i}" for i in range(1, gens + 1)))
    rs = RelationSet(pres, tuple((f"r{k}", parse(t, F2)) for k, t in enumerate(rels)))
    hit, nodes = _enumeration_oracle(rs, n)
    rho, reason, count = _search(rs, n, 10 ** 6)
    assert count == nodes
    if hit is None:
        assert rho is None and reason == "exhausted"
    else:
        assert reason == "found"
        assert rho.images == {f"x{i + 1}": decode_matrix(c, n) for i, c in enumerate(hit)}
    # every smaller budget stops on the budget, as plain enumeration would
    assert _search(rs, n, nodes) == (rho, reason, count)
    for budget in range(nodes):
        assert _search(rs, n, budget) == (None, "budget", budget)


def test_search_charges_failed_subtrees_without_replaying(monkeypatch):
    # x2 is free, so below it only x1 is read: the solved x3 level fails for
    # x1 = 0 and 1 whatever x2 is, and is solved once per x1 before the hit
    # at x1 = 2, where replaying it would take 16 + 16 + 1 visits
    pres = GradedPresentation(("x1", "x2", "x3"))
    rs = RelationSet(pres, (("r", parse("x1.x3 + x3.x1 + 1", F2)),))
    reps_module._product_table(2)  # built from subset-XOR tables too
    solves = []
    real = reps_module._subset_xor
    monkeypatch.setattr(reps_module, "_subset_xor",
                        lambda base, units: solves.append(base) or real(base, units))
    assert _search(rs, 2, 10 ** 6)[1:] == ("found", 553)
    assert len(solves) == 3


@pytest.mark.parametrize("search,most", [
    (lambda: find_augmentations(torus_dga(5, 8)[1]), 6),
    (lambda: _search(torus_dga(3, 8)[1], 2, 10 ** 8), 96),
], ids=["T(5,-8) n=1", "T(3,-8) n=2"])
def test_search_tabulates_each_affine_map_once(search, most, monkeypatch):
    # T(5,-8) visits its solved levels 18,518 times and T(3,-8) 8,943 times
    for n in (1, 2):
        reps_module._product_table(n)  # built from subset-XOR tables too
    maps = []
    real = reps_module._subset_xor
    monkeypatch.setattr(reps_module, "_subset_xor",
                        lambda base, units: maps.append((base, *units)) or real(base, units))
    search()
    assert 0 < len(maps) <= most
    assert len(set(maps)) == len(maps)


def test_search_m942_dim_three_runs_out_of_budget(m942):
    assert _search(m942, 3, 10 ** 8) == (None, "budget", 10 ** 8)


def test_search_rejects_nonpositive_dimension(trefoil):
    with pytest.raises(ValueError):
        search_matrix_rep(trefoil, 0)


# ---- torus representations ----

@pytest.mark.parametrize("p,q", [(3, 4), (3, 5), (5, 8)])
def test_torus_rep_verifies(p, q):
    _, g, lab = torus_dga(p, q)
    rho = torus_rep(p, q, lab)
    assert verify_matrix_rep(g, rho)


def test_torus_rep_images_satisfy_presentation():
    _, _, lab = torus_dga(3, 4)
    rho = torus_rep(3, 4, lab)
    a = rho.images[lab.x[(1, 2)]]
    b = rho.images[lab.x[(1, 3)]]
    assert mat_mul(a, a) == mat_zero(2)
    assert mat_mul(b, b) == mat_zero(2)
    assert mat_add(mat_mul(a, b), mat_mul(b, a)) == mat_identity(2)
    assert all(rho.images[name] == mat_zero(2) for name in lab.z.values())


def test_torus_rep_requires_complete_labeling():
    from lch.dga import TorusLabeling

    _, _, lab = torus_dga(3, 4)
    broken = TorusLabeling({k: v for k, v in lab.x.items() if k != (1, 2)}, lab.y, lab.z)
    with pytest.raises(ValueError, match="missing"):
        torus_rep(3, 4, broken)


def test_all_zero_assignment_fails_on_cusp_constant(trefoil):
    rho = MatRepAssignment(2, {g: mat_zero(2) for g in trefoil.presentation.generators})
    assert not verify_matrix_rep(trefoil, rho)


def test_verify_raises_on_missing_generator(trefoil):
    rho = MatRepAssignment(2, {"x1": mat_zero(2)})
    with pytest.raises(ValueError, match="no image"):
        verify_matrix_rep(trefoil, rho)


def test_mat2_presentation():
    assert mat2_presentation_check()


# ---- truncated operators ----

def test_build_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        build_R_truncated(4)


def test_doubling_map_valid_domain():
    ops = build_R_truncated(256)
    assert ops["f"].valid_domain == 127
    assert ops["p"].valid_domain == 255


def test_truncated_rows_match_block_diagram_oracle():
    # recompose the defining block diagrams directly: an even basis index 2i
    # is the first summand's copy of index i, an odd index 2i+1 the second's
    def embed1(i):
        return 2 * i

    def embed2(i):
        return 2 * i + 1

    def oracle_a(m):
        if m % 2 == 0:
            i = m // 2
            return set() if i == 0 else {embed2(i - 1)}
        return {embed1((m - 1) // 2)}

    def oracle_b(m):
        if m % 2 == 0:
            i = m // 2
            return {embed1(2 * i + 1), embed2(i)}
        i = (m - 1) // 2
        return {embed1(i + 1), embed1(2 * i + 2)}

    def oracle_c(m):
        return {m // 2} if m % 2 == 0 else set()

    N = 128
    ops = build_R_truncated(N)
    for key, oracle in (("a", oracle_a), ("b", oracle_b), ("c", oracle_c)):
        op = ops[key]
        for m in range(op.valid_domain + 1):
            got = {j for j in range(N) if op.rows[m] >> j & 1}
            assert got == oracle(m), (key, m)


def test_truncation_stability():
    small, big = build_R_truncated(64), build_R_truncated(128)
    for key in small:
        upto = small[key].valid_domain
        assert small[key].rows[:upto + 1] == big[key].rows[:upto + 1]


def test_verify_R_relations_ok():
    report = verify_R_relations(256)
    assert report.ok
    assert len(report.checks) == 7
    assert all(c.checked_upto >= 31 for c in report.checks)
    assert any("1 + c(1+ab) + ac(1+ba)" == c.name for c in report.checks)


def test_verify_R_relations_rejects_small_truncation():
    with pytest.raises(ValueError):
        verify_R_relations(32)


def _corrupted_b(N):
    # b without its index-doubling summand: v_i -> v_{i+1}
    return TruncatedOp(N, tuple(1 << (i + 1) if i + 1 < N else 0 for i in range(N)), 2, 2)


def _wrong_f(N):
    # f sending v_i to v_{2i+1} instead of v_{2i}
    return TruncatedOp(N, tuple(1 << (2 * i + 1) if 2 * i + 1 < N else 0 for i in range(N)), 2, 1)


def test_corrupted_b_breaks_relations():
    N = 256
    ops = dict(build_R_truncated(N))
    ops["b"] = _corrupted_b(N)
    assert not check_R_relations(ops, N).ok


def test_report_lines_are_readable():
    lines = verify_R_relations(128).lines()
    assert len(lines) == 7 and all(ln.startswith("ok") for ln in lines)


def _pinned_lines(domain: int) -> list[str]:
    return [f"ok     1 + c(1+ab) + ac(1+ba)  on v_0..v_{domain}",
            f"ok     (1+ba)c  on v_0..v_{domain}",
            f"ok     1 + (1+ab)c  on v_0..v_{domain}",
            f"ok     1 + (1+ba)ac  on v_0..v_{domain}",
            f"ok     s o p = f + 1  on v_0..v_{domain}",
            f"ok     p o g = f  on v_0..v_{domain + 1}",
            f"ok     p o s = g + 1  on v_0..v_{domain}"]


@pytest.mark.parametrize("N,domain", [(128, 62), (256, 126), (1024, 510)])
def test_verify_R_relations_pinned_lines(N, domain):
    # each domain is the smaller side's growth bound: v_0..v_{(N-3)//2}
    # for words through b or s, v_0..v_{N/2-1} for p o g = f
    assert verify_R_relations(N).lines() == _pinned_lines(domain)


def test_wrong_f_fails_exactly_its_identities(monkeypatch):
    real = reps_module.build_R_truncated

    def wrong_f(N):
        ops = dict(real(N))
        ops["f"] = _wrong_f(N)
        return ops

    monkeypatch.setattr(reps_module, "build_R_truncated", wrong_f)
    report = verify_R_relations(256)
    assert not report.ok
    assert [c.name for c in report.checks if not c.ok] == ["s o p = f + 1", "p o g = f"]


def _full_evaluation_lines(ops, N, table):
    # the operator model evaluated in full: every word starts from the
    # identity and all N rows are computed, then sliced to the valid domain
    rows = {key: op.rows for key, op in ops.items()}
    checks = []
    for name, left, right in table:
        sides = [parse(left, F2), parse(right, F2)]
        value = mat_zero(N)
        for word in (sides[0] + sides[1]).terms:
            m = mat_identity(N)
            for g in word:
                m = mat_mul(m, rows[g])
            value = mat_add(value, m)
        upto = min(TruncatedOp(N, value, *reps_module._growth(q, ops)).valid_domain
                   for q in sides)
        checks.append(reps_module.RRelationCheck(name, upto, not any(value[:upto + 1])))
    return reps_module.RRelationReport(all(c.ok for c in checks), tuple(checks)).lines()


_R_MUTANTS = {
    "real": lambda N: {},
    "corrupted_b": lambda N: {"b": _corrupted_b(N)},
    "wrong_f": lambda N: {"f": _wrong_f(N)},
}


@pytest.mark.parametrize("N", [64, 128, 1024])
@pytest.mark.parametrize("family", sorted(_R_MUTANTS))
def test_row_restriction_matches_full_evaluation(family, N):
    ops = {**build_R_truncated(N), **_R_MUTANTS[family](N)}
    table = reps_module._R_CHECKS
    assert reps_module._check(ops, N, table).lines() == _full_evaluation_lines(ops, N, table)
    assert check_R_relations(ops, N).lines() == _full_evaluation_lines(ops, N, table[:4])


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([64, 100, 128]), key=st.sampled_from("fgpsabc"),
       row=st.integers(0, 10 ** 6), bit=st.integers(0, 10 ** 6))
# row 126 is the last one checked at N = 256, and this flip fails relation 1
# there and nowhere below
@example(N=256, key="c", row=126, bit=0)
def test_row_restriction_matches_full_evaluation_on_bit_flips(N, key, row, bit):
    ops = dict(build_R_truncated(N))
    rows = list(ops[key].rows)
    rows[row % N] ^= 1 << (bit % N)
    ops[key] = TruncatedOp(N, tuple(rows), ops[key].slope, ops[key].offset)
    table = reps_module._R_CHECKS
    assert reps_module._check(ops, N, table).lines() == _full_evaluation_lines(ops, N, table)


def test_missing_operator_is_named():
    ops = dict(build_R_truncated(64))
    del ops["c"]
    with pytest.raises(ValueError, match="no image for generator c"):
        check_R_relations(ops, 64)


def test_truncated_op_growth_validation():
    with pytest.raises(ValueError):
        TruncatedOp(4, (0, 0, 0, 0), 0, 0)
    with pytest.raises(ValueError):
        TruncatedOp(4, (0, 0), 1, 0)


@pytest.mark.parametrize("row", [1 << 70, -1])
def test_truncated_op_rejects_rows_outside_the_truncation(row):
    rows = (0,) * 10 + (row,) + (0,) * 53
    with pytest.raises(ValueError, match="not a bitmask over 64 coordinates"):
        ops = {**build_R_truncated(64), "b": TruncatedOp(64, rows, 2, 2)}
        check_R_relations(ops, 64)


# ---- the operator table on every index ----

def _image_of_class(pieces, alpha, beta, T0):
    """Image of v_i for all i = alpha*t + beta, t >= T0, as a set of (alpha, beta).

    alpha = 0 is the single index beta.  Each piece must split the class
    cleanly: its modulus divides alpha, and its guard is settled at t = T0.
    """
    out = set()
    for M, r, lowest, targets in pieces:
        assert alpha % M == 0, f"modulus {M} splits the class {alpha}t + {beta}"
        if beta % M != r:
            continue
        if alpha * T0 + beta < lowest:
            assert alpha == 0, f"guard i >= {lowest} unsettled on {alpha}t + {beta}"
            continue
        for a, b in targets:
            out ^= {(a * alpha // M, a * (beta - r) // M + b)}
    return out


def _failing_identities(table, M=64, T0=4):
    """Names of the _R_CHECKS identities that fail on some v_i, untruncated.

    Index classes i = M*t + r with t >= T0 are compared as mod-2 sets of
    affine indices; every i < M*(T0+1) is also checked by itself.
    """
    starts = [(M, r) for r in range(M)] + [(0, i) for i in range(M * (T0 + 1))]
    failing = []
    for name, left, right in reps_module._R_CHECKS:
        words = (parse(left, F2) + parse(right, F2)).terms
        for start in starts:
            value = set()
            for word in words:
                indices = {start}
                for g in word:
                    image = set()
                    for alpha, beta in indices:
                        image ^= _image_of_class(table[g], alpha, beta, T0)
                    indices = image
                value ^= indices
            if value:
                failing.append(name)
                break
    return failing


def test_operator_table_satisfies_every_identity_on_every_index():
    assert _failing_identities(reps_module._R_PIECES) == []


_UNDOUBLED = ((1, 0, 0, ((1, 1),)),)  # b = s without its doubling summand
_PIECE_MUTANTS = {
    "undoubled_b": ({"b": _UNDOUBLED, "s": _UNDOUBLED},
                    ["1 + c(1+ab) + ac(1+ba)", "1 + (1+ab)c", "1 + (1+ba)ac",
                     "s o p = f + 1", "p o s = g + 1"]),
    "odd_f": ({"f": ((1, 0, 0, ((2, 1),)),)}, ["s o p = f + 1", "p o g = f"]),
    "c_halves_odd": ({"c": ((2, 0, 0, ((1, 0),)), (2, 1, 0, ((1, 0),)))},
                     ["1 + c(1+ab) + ac(1+ba)", "(1+ba)c"]),
}


@pytest.mark.parametrize("mutant", sorted(_PIECE_MUTANTS))
def test_piece_mutant_fails_exactly_its_identities(mutant):
    pieces, failing = _PIECE_MUTANTS[mutant]
    assert _failing_identities({**reps_module._R_PIECES, **pieces}) == failing


# ---- representation files ----

def test_rep_file_round_trip():
    text = "rep n=2\nmap x1 = 0100\nmap x2 = 0000\nmap x10 = 1001\n"
    rho = deserialize_rep(text)
    assert rho.images["x1"] == (2, 0)
    assert rho.images["x10"] == (1, 2)
    assert serialize_rep(rho) == text


def test_rep_file_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        deserialize_rep("n=2\nmap x1 = 0100\n")


def test_rep_file_rejects_wrong_bit_count():
    with pytest.raises(ValueError, match="bits"):
        deserialize_rep("rep n=2\nmap x1 = 010\n")


def test_rep_file_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        deserialize_rep("rep n=1\nmap x1 = 0\nmap x1 = 1\n")


@given(st.integers(1, 3), st.data())
def test_rep_file_round_trips_random(n, data):
    gens = [f"x{i}" for i in range(1, data.draw(st.integers(1, 5)) + 1)]
    images = {g: decode_matrix(data.draw(st.integers(0, (1 << (n * n)) - 1)), n)
              for g in gens}
    rho = MatRepAssignment(n, images)
    again = deserialize_rep(serialize_rep(rho))
    assert again.n == rho.n and dict(again.images) == dict(rho.images)
