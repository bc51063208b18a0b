"""Acceptance gate: one test per headline claim, each with a wall-clock budget.

Run with -s to see the per-criterion PASS lines; every test prints exactly
one line and fails loudly if its check or its time budget is violated.
"""

from __future__ import annotations

import pathlib
import random
import time

from lch import refdata
from lch.chalg import (
    adjoin_and_derive,
    char_algebra,
    parse_cert_directives,
    parse_certificate,
    verify_certificate,
    verify_unit,
)
from lch.dga import (
    check_d_squared,
    check_homogeneous,
    compute_dga,
    deserialize,
    dga_diag_equivalent,
    serialize,
    specialize_dga,
    torus_dga,
)
from lch.freealg import F2, ZT, NcPoly, parse
from lch.plat import build_front, classical_invariants, maslov_grading, parse_plat
from lch.reps import (
    TruncatedOp,
    _search,
    build_R_truncated,
    check_R_relations,
    deserialize_rep,
    find_augmentations,
    mat2_presentation_check,
    mat_add,
    mat_identity,
    mat_mul,
    mat_zero,
    serialize_rep,
    torus_rep,
    verify_matrix_rep,
    verify_R_relations,
)
from oracles import exhaustive_augmentations

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _criterion(num: int, label: str, budget_s: float, body) -> None:
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    took = time.monotonic() - start
    print(f"criterion {num:2d} PASS  {label}  ({took:.2f}s / {budget_s:g}s)")
    assert took < budget_s, f"budget exceeded: {took:.2f}s >= {budget_s}s"


def test_criterion_01_generator_counts():
    def body():
        k1 = compute_dga(refdata.k1_front(), ZT)
        k2 = compute_dga(refdata.k2_front(), F2)
        assert len(k1.presentation.generators) == 23
        assert len(k2.presentation.generators) == 25

    _criterion(1, "generator counts 23 and 25", 1.0, body)


def test_criterion_02_bundled_table_equality():
    def body():
        computed = compute_dga(refdata.k2_front(), F2)
        bundled = deserialize((ROOT / "data" / "k2_appendixB.dga").read_text())
        assert computed.presentation.generators == bundled.presentation.generators
        assert computed.presentation.grading == bundled.presentation.grading
        for g in bundled.presentation.generators:
            assert computed.d(g) == bundled.d(g), g

    _criterion(2, "25-generator table matches bundled file term-for-term", 1.0, body)


def test_criterion_03_laurent_table_compatibility():
    def body():
        computed = compute_dga(refdata.k1_front(), ZT)
        bundled = deserialize((ROOT / "data" / "k1_appendixA.dga").read_text())
        assert check_d_squared(computed) is None
        ours = specialize_dga(computed)
        theirs = specialize_dga(bundled)
        for g in bundled.presentation.generators:
            assert ours.d(g) == theirs.d(g), g
        witness = dga_diag_equivalent(computed, bundled)
        assert witness is not None

    _criterion(3, "Laurent table: d2 = 0, mod-2 match, diagonal witness", 1.0, body)


def test_criterion_04_grading():
    def body():
        table = maslov_grading(refdata.k1_front())
        odd = {g for g, d in table.grading.items() if d % 2 == 1}
        assert odd == {"x2", "x3", "x5", "x9", "x11", "x12", "x13", "x15",
                       "x20", "x21", "x22", "x23"}
        for name in ("k1_appendixA.dga", "k2_appendixB.dga"):
            bundled = deserialize((ROOT / "data" / name).read_text())
            assert check_homogeneous(bundled) is None, name

    _criterion(4, "odd-grading set and degree -1 homogeneity", 1.0, body)


def test_criterion_05_classical_invariants():
    def body():
        assert classical_invariants(refdata.k1_front()) == (-1, 0)
        assert classical_invariants(refdata.k2_front()) == (-1, 0)
        for p, q in refdata.TORUS_ACCEPTANCE_PAIRS:
            front, _, _ = torus_dga(p, q)
            tb, _ = classical_invariants(front)
            assert tb == -p * q, (p, q)

    _criterion(5, "(tb, r) = (-1, 0) twice and tb = -pq on torus fronts", 1.0, body)


def test_criterion_06_unit_witness():
    def body():
        k1 = compute_dga(refdata.k1_front(), ZT)
        d = k1.derivation()
        ex = refdata.k1_unit_exprs()
        assert d(ex["a"]) == ex["b"]
        assert d(ex["b"]).is_zero()
        assert d(ex["c"]) == ex["dc"]
        assert verify_unit(k1, ex["e"])

    _criterion(6, "triviality witness: d(element) = 1 over the Laurent ring", 1.0, body)


def test_criterion_07_quotient_chain():
    def body():
        k2 = compute_dga(refdata.k2_front(), F2)
        text = (ROOT / "certs" / "k2_quotient.cert").read_text()
        rs = char_algebra(k2).adjoin_all(parse_cert_directives(text).assumptions)
        report = verify_certificate(rs, parse_certificate(text))
        assert report.ok, report.failure
        # the five vanishing generators: two are differentials verbatim,
        # three are derived relations on the table
        assert rs.table()["d_x2"] == parse("x1", F2)
        assert rs.table()["d_x8"] == parse("x6", F2)
        for name, gen in (("r_x11", "x11"), ("r_x12", "x12"), ("r_x15", "x15")):
            assert report.table[name] == parse(gen, F2)
        assert report.table["r_x14x20"] == parse("x14 + x20", F2)
        # the defining relations of the reduced algebra under x2 -> a,
        # x5 -> b, x18 -> c; the fourth arrives with the cofactor (1 + a),
        # exactly as derived
        relabel = {"x2": "a", "x5": "b", "x18": "c"}

        def relabeled(name: str) -> NcPoly:
            p = report.table[name]
            return NcPoly(F2, {tuple(relabel[g] for g in w): c
                               for w, c in p.terms.items()})

        assert relabeled("r_R1") == parse("1 + c + a.b.c", F2)
        assert relabeled("r_R2") == parse("c + b.a.c", F2)
        assert relabeled("r_R3") == parse("1 + a.c + b.a.a.c", F2)
        big = parse("1 + c + c.a.b + a.c + a.c.b.a", F2)
        assert relabeled("r_final") == big + parse("a", F2) * big

    _criterion(7, "quotient chain reaches the reduced presentation", 1.0, body)


def test_criterion_08_truncated_operator_model():
    def body():
        report = verify_R_relations(256)
        assert report.ok
        assert len(report.checks) == 7
        assert all(c.checked_upto >= 31 for c in report.checks)
        corrupted = dict(build_R_truncated(256))
        rows = tuple(1 << (i + 1) if i + 1 < 256 else 0 for i in range(256))
        corrupted["b"] = TruncatedOp(256, rows, 2, 2)
        assert not check_R_relations(corrupted, 256).ok

    _criterion(8, "operator model verifies; corrupted mutation fails", 0.1, body)


def test_criterion_09_no_finite_dimensional_representation():
    def body():
        k2 = compute_dga(refdata.k2_front(), F2)
        text = (ROOT / "certs" / "k2_norep.cert").read_text()
        directives = parse_cert_directives(text)
        a, b = directives.witnesses["a"], directives.witnesses["b"]
        assert a == parse("1 + x5.x2 + x5.x3", F2)
        assert b == parse("x20", F2)
        verdict = adjoin_and_derive(char_algebra(k2), a, b, parse_certificate(text))
        assert verdict.ok, verdict.detail

    _criterion(9, "adjoining the inverse derives 0 = 1", 1.0, body)


def test_criterion_10_augmentation_emptiness():
    def body():
        empties = [
            specialize_dga(compute_dga(refdata.k1_front(), ZT)),
            compute_dga(refdata.k2_front(), F2),
            torus_dga(3, 4)[1],
            torus_dga(3, 5)[1],
            compute_dga(build_front(parse_plat(refdata.M942_WORD, refdata.M942_STRANDS)), F2),
        ]
        for g in empties:
            assert find_augmentations(g) == []
        trefoil = compute_dga(build_front(parse_plat("2,2,2", 4)), F2)
        found = find_augmentations(trefoil)
        assert found
        assert found == exhaustive_augmentations(trefoil)
        t34 = torus_dga(3, 4)[1]
        assert find_augmentations(t34) == exhaustive_augmentations(t34)

    _criterion(10, "augmentations: five empty, trefoil nonempty, oracle agreement", 2.0, body)


def test_criterion_11_torus_representations():
    def body():
        for p, q in refdata.TORUS_ACCEPTANCE_PAIRS:
            _, g, lab = torus_dga(p, q)
            rho = torus_rep(p, q, lab)
            assert verify_matrix_rep(g, rho), (p, q)
            a = rho.images[lab.x[(1, 2)]]
            b = rho.images[lab.x[(1, p)]]
            assert mat_mul(a, a) == mat_zero(2)
            assert mat_mul(b, b) == mat_zero(2)
            assert mat_add(mat_mul(a, b), mat_mul(b, a)) == mat_identity(2)

    _criterion(11, "explicit torus representations verify on all four fronts", 1.0, body)


def test_criterion_12_mat2_presentation():
    def body():
        assert mat2_presentation_check()

    _criterion(12, "two-generator presentation of the 2x2 matrix algebra", 1.0, body)


def test_criterion_13_m942_two_dimensional_representation():
    def body():
        # the first hit in search order is the bundled file, byte for byte
        g = compute_dga(build_front(parse_plat(refdata.M942_WORD, refdata.M942_STRANDS)), F2)
        rho, reason, nodes = _search(g, 2, 10 ** 8)
        assert (reason, nodes) == ("found", 38_259_135)
        assert verify_matrix_rep(g, rho)
        committed = (ROOT / "reps" / "m9_42_dim2.rep").read_text()
        assert serialize_rep(rho) == committed
        assert verify_matrix_rep(g, deserialize_rep(committed))

    _criterion(13, "two-dimensional representation found and verified", 10.0, body)


def test_criterion_14_property_suites():
    def body():
        rng = random.Random(20240814)
        checked = 0
        while checked < 100:
            strands = rng.choice((2, 4, 6))
            letters = [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 8))]
            try:
                front = build_front(parse_plat(",".join(map(str, letters)), strands))
            except ValueError:
                continue
            g = compute_dga(front, ZT)
            assert check_d_squared(g) is None, letters
            assert check_homogeneous(g) is None, letters
            checked += 1
        # algebraic laws on random free-algebra elements
        gens = [NcPoly.gen(f"x{i}", F2) for i in range(1, 5)]

        def rand_poly():
            acc = NcPoly.zero(F2)
            for _ in range(rng.randint(0, 4)):
                term = NcPoly.one(F2)
                for _ in range(rng.randint(0, 3)):
                    term = term * rng.choice(gens)
                acc = acc + term
            return acc

        for _ in range(200):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + p == NcPoly.zero(F2)
        # bundled files round-trip through their parsers byte for byte
        for name in ("k1_appendixA.dga", "k2_appendixB.dga"):
            text = (ROOT / "data" / name).read_text()
            assert serialize(deserialize(text)) == text, name
        rep_text = (ROOT / "reps" / "m9_42_dim2.rep").read_text()
        assert serialize_rep(deserialize_rep(rep_text)) == rep_text

    _criterion(14, "random-plat laws, algebra laws, bundled round-trips", 10.0, body)
