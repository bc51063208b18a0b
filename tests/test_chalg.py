"""Characteristic algebras and certificate replay."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from lch import refdata
from lch.chalg import (
    CertificateError,
    RelationSet,
    adjoin_and_derive,
    char_algebra,
    parse_cert_directives,
    parse_certificate,
    verify_certificate,
    verify_unit,
)
from lch.dga import DGA, compute_dga, deserialize, specialize_dga
from lch.freealg import F2, ZT, GradedPresentation, NcPoly, parse
from lch.reps import evaluate_poly, mat_zero

ROOT = pathlib.Path(__file__).resolve().parents[1]
CERTS = ROOT / "certs"


@pytest.fixture(scope="module")
def k1():
    return compute_dga(refdata.k1_front(), ZT)


@pytest.fixture(scope="module")
def k2():
    return compute_dga(refdata.k2_front(), F2)


def zero_dga(gens: list[str]) -> DGA:
    pres = GradedPresentation(tuple(gens), dict.fromkeys(gens, 0), F2)
    return DGA(pres, dict.fromkeys(gens, NcPoly.zero(F2)))


def rel_set(gens: list[str], items: list[tuple[str, str]]) -> RelationSet:
    return RelationSet(zero_dga(gens), tuple((n, parse(t, F2)) for n, t in items))


# ---- char_algebra ----

def test_char_algebra_k2_has_25_relations(k2):
    rs = char_algebra(k2)
    assert len(rs.relations) == 25
    assert [name for name, _ in rs.relations[:3]] == ["d_x1", "d_x2", "d_x3"]


def test_char_algebra_k2_last_relation_has_unit_term(k2):
    rs = char_algebra(k2)
    last = rs.table()["d_x25"]
    assert last.terms.get(()) == {0: 1}


def test_char_algebra_k1_specialized_has_23_relations(k1):
    rs = char_algebra(specialize_dga(k1))
    assert len(rs.relations) == 23


def test_char_algebra_keeps_zero_differentials():
    rs = char_algebra(zero_dga(["x1"]))
    assert len(rs.relations) == 1 and rs.table()["d_x1"].is_zero()


def test_relation_set_rejects_unknown_generators():
    with pytest.raises(ValueError, match="unknown"):
        RelationSet(zero_dga(["x1"]), (("r", parse("x2", F2)),))


def test_relation_set_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        RelationSet(zero_dga(["x1"]), (("r", parse("x1", F2)), ("r", parse("1 + x1", F2))))


def test_relation_set_rejects_a_relation_over_another_ring():
    with pytest.raises(ValueError, match="^relation 'r' ring mismatch$"):
        RelationSet(zero_dga(["x1"]), (("r", parse("x1", ZT)),))


def test_adjoin_all_extends_table():
    rs = rel_set(["x1", "x2"], [("r1", "x1")])
    rs2 = rs.adjoin_all([("r2", parse("x2", F2))])
    assert list(rs2.table()) == ["r1", "r2"]
    assert list(rs.table()) == ["r1"]


@pytest.mark.parametrize("items,message", [
    ([("d_x1", "x1")], "duplicate relation name 'd_x1'"),
    ([("a", "x1"), ("b", "x2"), ("a", "1")], "duplicate relation name 'a'"),
    # the first bad relation in order is the one reported
    ([("a", "x99"), ("d_x1", "1")], r"relation 'a' uses unknown generators \['x99'\]"),
    ([("a", "x1"), ("a", "x99")], "duplicate relation name 'a'"),
], ids=["clashes-with-d", "repeated-assumption", "unknown-first", "duplicate-first"])
def test_adjoin_all_rejects_the_first_bad_relation(k2, items, message):
    rs = char_algebra(k2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rs.adjoin_all((name, parse(text, F2)) for name, text in items)


# ---- certificate parsing ----

CERT_SAMPLE = """\
# a comment
diff e1 = D( x3 )
comb e2 = ( x1 ) * e1 * ( 1 ) + ( 1 ) * e1 * ( x2 )
subst e3 = e2 with x1 -> 0; x2 -> x1.x1
assert e3 = x1.x1 + x3.x1.x1
assert-unit e4
"""


def test_parse_render_round_trip():
    cert = parse_certificate(CERT_SAMPLE)
    assert len(cert.steps) == 5


def test_parse_rejects_garbage_with_line_number():
    with pytest.raises(CertificateError, match="line 2"):
        parse_certificate("diff a = D( x1 )\nfrobnicate b\n")


def test_unknown_generator_refusal_names_the_step_line():
    # comment and blank lines count, and a trailing comment is not read
    cert = parse_certificate("# note\n\ncomb r = ( x1 ) * r0 * ( 1 )  # x99\n"
                             "comb s = ( x99 ) * r0 * ( 1 )\n")
    assert cert.lines == (3, 4)
    with pytest.raises(CertificateError,
                       match=r"^line 4: relation 's' uses unknown generators \['x99'\]$"):
        verify_certificate(rel_set(["x1"], [("r0", "x1")]), cert)


def test_parse_rejects_bad_polynomial():
    with pytest.raises(CertificateError, match="line 1"):
        parse_certificate("diff a = D( x1 x2 )\n")


def test_parse_rejects_missing_arrow():
    with pytest.raises(CertificateError):
        parse_certificate("subst a = b with x1 0\n")


def test_malformed_comb_line_is_refused_in_linear_time():
    # 40 terms with 8 spaces inside every parenthesis and the last ")"
    # missing: a cofactor pattern that lets both "\s*" and a lazy cofactor
    # eat the spaces backtracks for seconds on 2 terms, and on 40 it does
    # not finish within the timeout below
    pad = " " * 8
    body = " + ".join(f"({pad}x1{pad}) * r * ({pad}1{pad})" for _ in range(40))
    child = ("import sys\n"
             "from lch.chalg import CertificateError, parse_certificate\n"
             "try:\n"
             "    parse_certificate(sys.stdin.read())\n"
             "except CertificateError as exc:\n"
             "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", child], input=f"comb c = {body[:-1]}\n",
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("line 1: ") and proc.stdout.count("\n") == 1


# ---- certificate replay ----

def test_empty_certificate_passes():
    rs = rel_set(["x1"], [("r", "x1")])
    report = verify_certificate(rs, parse_certificate(""))
    assert report.ok and report.registered == ()


def test_comb_registers_combination():
    rs = rel_set(["x1", "x2"], [("r", "x1 + x2")])
    cert = parse_certificate("comb s = ( x2 ) * r * ( 1 )\nassert s = x2.x1 + x2.x2\n")
    report = verify_certificate(rs, cert)
    assert report.ok
    assert report.table["s"] == parse("x2.x1 + x2.x2", F2)


def test_comb_unknown_relation_fails():
    rs = rel_set(["x1"], [("r", "x1")])
    report = verify_certificate(rs, parse_certificate("comb s = ( 1 ) * nope * ( 1 )\n"))
    assert not report.ok and "nope" in report.failure


def test_name_collision_fails():
    rs = rel_set(["x1"], [("r", "x1")])
    cert = parse_certificate("comb r = ( 1 ) * r * ( 1 )\n")
    report = verify_certificate(rs, cert)
    assert not report.ok and "already" in report.failure


def test_subst_requires_backing_relation():
    # x1 -> 1 is not justified by any registered relation
    rs = rel_set(["x1", "x2"], [("r", "x1 + x2")])
    cert = parse_certificate("subst s = r with x1 -> 1\n")
    report = verify_certificate(rs, cert)
    assert not report.ok and "backed" in report.failure


def test_subst_with_backed_rule():
    rs = rel_set(["x1", "x2"], [("r", "x1 + x2"), ("q", "x2.x1 + x2.x2")])
    cert = parse_certificate("subst s = q with x1 -> x2\nassert s = 0\n")
    report = verify_certificate(rs, cert)
    assert report.ok


def test_subst_rejects_cyclic_rules():
    rs = rel_set(["x1", "x2"], [("r", "x1 + x2"), ("q", "x1.x2")])
    for rules, failure in [
        ("x1 -> x2; x2 -> x1", "substitution rules are cyclic"),
        # an image that names its own generator is a cycle of length one
        ("x1 -> x1 + x2", "substitution rules are cyclic"),
        ("x1 -> x2; x1 -> 0", "duplicate generator in rule set"),
    ]:
        report = verify_certificate(rs, parse_certificate(f"subst s = q with {rules}\n"))
        assert not report.ok and report.failure == failure, rules


def test_assert_mismatch_reports_residual():
    rs = rel_set(["x1"], [("r", "x1")])
    report = verify_certificate(rs, parse_certificate("assert r = 0\n"))
    assert not report.ok
    assert report.residual == parse("x1", F2)
    assert report.failed_index == 0


def test_assert_unit_on_nonunit_fails():
    rs = rel_set(["x1"], [("r", "x1")])
    report = verify_certificate(rs, parse_certificate("assert-unit r\n"))
    assert not report.ok


# ---- the bundled certificates ----

def test_k1_trivial_certificate_replays(k1):
    rs = char_algebra(k1)
    cert = parse_certificate(refdata.k1_trivial_cert_text(), ring=ZT)
    report = verify_certificate(rs, cert)
    assert report.ok, report.failure


def test_k1_unit_element_verifies(k1):
    body = "\n".join(ln for ln in refdata.k1_unit_expr_text().splitlines()
                     if not ln.strip().startswith("#"))
    assert verify_unit(k1, parse(body, ZT))


def test_k1_unit_rejects_non_units(k1):
    assert not verify_unit(k1, parse("x1", ZT))


def test_unit_witness_rejects_unknown_generators(k1):
    body = "\n".join(ln for ln in refdata.k1_unit_expr_text().splitlines()
                     if not ln.strip().startswith("#"))
    with pytest.raises(ValueError, match="x99") as exc:
        verify_unit(k1, parse(body + " + x99", ZT))
    assert not isinstance(exc.value, CertificateError)


@pytest.mark.parametrize("degree, homogeneous", [(3, True), (1, True), (2, False)])
def test_unit_witness_degree_is_read_mod_the_modulus(degree, homogeneous):
    # d x2 = 1, so x2 is a unit witness exactly when its degree is 1 mod 2
    g = deserialize(f"ring F2\nmod 2\ngen x1 1\ngen x2 {degree}\nd x1 = 1\nd x2 = 1\n")
    if homogeneous:
        assert verify_unit(g, parse("x2", F2))
    else:
        with pytest.raises(CertificateError, match="not homogeneous of grading 1"):
            verify_unit(g, parse("x2", F2))


def test_k2_unit_search_fails_on_cusp(k2):
    assert not verify_unit(k2, parse("x25", F2))


def _k2_quotient_report(k2):
    # the deliberate quotient ideal is the certificate's own `# assume` lines
    text = (CERTS / "k2_quotient.cert").read_text()
    rs = char_algebra(k2).adjoin_all(parse_cert_directives(text).assumptions)
    return verify_certificate(rs, parse_certificate(text))


def test_k2_quotient_certificate_replays(k2):
    report = _k2_quotient_report(k2)
    assert report.ok, report.failure


def test_k2_quotient_reaches_three_verbatim_relations(k2):
    # in terms of the surviving generators x2 -> a, x5 -> b, x18 -> c
    report = _k2_quotient_report(k2)
    relabel = {"x2": "a", "x5": "b", "x18": "c"}

    def relabeled(name: str) -> NcPoly:
        p = report.table[name]
        return NcPoly(F2, {tuple(relabel[g] for g in w): c for w, c in p.terms.items()})

    assert relabeled("r_R1") == parse("1 + c + a.b.c", F2)
    assert relabeled("r_R2") == parse("c + b.a.c", F2)
    assert relabeled("r_R3") == parse("1 + a.c + b.a.a.c", F2)
    big = parse("1 + c + c.a.b + a.c + a.c.b.a", F2)
    assert relabeled("r_final") == big + parse("a", F2) * big


def test_k2_norep_certificate_yields_verdict(k2):
    rs = char_algebra(k2)
    a = parse("1 + x5.x2 + x5.x3", F2)
    b = parse("x20", F2)
    text = (CERTS / "k2_norep.cert").read_text()
    verdict = adjoin_and_derive(rs, a, b, parse_certificate(text))
    assert verdict.ok, verdict.detail


def _replay_lines(report) -> list[str]:
    return [*report.lines(), *report.registered,
            *(f"{name} = {value.render()}" for name, value in report.table.items())]


def test_bundled_replays_match_their_digest(k1, k2):
    # verdicts, registrations and final tables (values in table order) of
    # the three bundled replays
    k1_report = verify_certificate(
        char_algebra(k1), parse_certificate(refdata.k1_trivial_cert_text(), ring=ZT))
    text = (CERTS / "k2_norep.cert").read_text()
    witnesses = parse_cert_directives(text).witnesses
    verdict = adjoin_and_derive(char_algebra(k2), witnesses["a"], witnesses["b"],
                                parse_certificate(text))
    lines = [*_replay_lines(k1_report), *_replay_lines(_k2_quotient_report(k2)),
             verdict.detail, *_replay_lines(verdict.report)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a19fd9beea545003bc37d4ad712afb57c0e4b8a0eb976330b175daa9d3fe37d0"


def test_adjoin_rejects_unestablished_inverse(k2):
    # using the adjoined relation before a*b - 1 is on the table is unsound
    rs = char_algebra(k2)
    a = parse("1 + x5.x2 + x5.x3", F2)
    b = parse("x20", F2)
    cert = parse_certificate(
        "comb r1 = ( 1 ) * adjoined * ( 1 )\n"
        "comb r_ab = ( 1 ) * d_x24 * ( 1 ) + ( 1 ) * d_x12 * ( x20 )\n"
        "assert-unit r1\n")
    verdict = adjoin_and_derive(rs, a, b, cert)
    assert not verdict.ok


def test_adjoin_refuses_an_inverse_never_established():
    # c = x2.r0 + adjoined = 1, but a*b - 1 = x1.x2 + 1 is never reached
    # without 'adjoined'
    rs = rel_set(["x1", "x2"], [("r0", "x1")])
    cert = parse_certificate("comb c = ( x2 ) * r0 * ( 1 ) + ( 1 ) * adjoined * ( 1 )\n"
                             "assert-unit c\n")
    verdict = adjoin_and_derive(rs, parse("x1", F2), parse("x2", F2), cert)
    assert verdict.report.ok and not verdict.ok
    assert verdict.detail == "a*b - 1 was never established without 'adjoined'"


def test_adjoin_blames_adjoined_when_only_it_reaches_the_inverse():
    # t = p + adjoined is a*b - 1, but only by way of 'adjoined'
    rs = rel_set(["x1", "x2"], [("p", "x1.x2 + x2.x1"), ("e", "x1.x2")])
    cert = parse_certificate("comb t = ( 1 ) * p * ( 1 ) + ( 1 ) * adjoined * ( 1 )\n"
                             "comb one = ( 1 ) * t * ( 1 ) + ( 1 ) * e * ( 1 )\n"
                             "assert-unit one\n")
    verdict = adjoin_and_derive(rs, parse("x1", F2), parse("x2", F2), cert)
    assert verdict.report.ok and not verdict.ok
    assert verdict.detail == "'adjoined' was used before a*b - 1 was established"


def test_adjoin_does_not_count_adjoined_as_the_inverse():
    # a = b = x commute, so 'adjoined' itself equals a*b - 1
    rs = rel_set(["x"], [("e", "x.x")])
    cert = parse_certificate("comb one = ( 1 ) * adjoined * ( 1 ) + ( 1 ) * e * ( 1 )\n"
                             "assert-unit one\n")
    verdict = adjoin_and_derive(rs, parse("x", F2), parse("x", F2), cert)
    assert verdict.report.ok and not verdict.ok
    assert verdict.detail == "a*b - 1 was never established without 'adjoined'"


def test_adjoin_with_preexisting_unit_relation():
    rs = rel_set(["a", "b"], [("triv", "1")])
    cert = parse_certificate("assert-unit triv\n")
    verdict = adjoin_and_derive(rs, parse("a", F2), parse("b", F2), cert)
    assert verdict.ok


def test_adjoin_needs_final_unit_assertion():
    rs = rel_set(["a", "b"], [("triv", "1")])
    cert = parse_certificate("assert triv = 1\n")
    verdict = adjoin_and_derive(rs, parse("a", F2), parse("b", F2), cert)
    assert not verdict.ok


def test_adjoin_free_algebra_cannot_conclude():
    # a free algebra with only a*b = 1 admits shift-operator representations,
    # and indeed no certificate step is available to reach a unit
    rs = rel_set(["a", "b"], [("inv", "a.b + 1")])
    verdict = adjoin_and_derive(rs, parse("a", F2), parse("b", F2), parse_certificate(""))
    assert not verdict.ok


# ---- soundness: evaluations killing the inputs kill everything derived ----

def _random_assignment(gens, rng):
    return {g: tuple(rng.randrange(4) for _ in range(2)) for g in gens}


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_certificate_registrations_preserve_mat2_solutions(rng):
    rs = rel_set(
        ["x1", "x2"],
        [("r", "x1 + x2"), ("q", "x2.x1 + x2.x2")])
    cert = parse_certificate(
        "comb s = ( x1 ) * r * ( x2 )\n"
        "subst u = q with x1 -> x2\n")
    report = verify_certificate(rs, cert)
    assert report.ok
    images = _random_assignment(rs.presentation.generators, rng)
    zero = mat_zero(2)
    if not all(evaluate_poly(v, images, 2) == zero for _, v in rs.relations):
        return
    for name in report.registered:
        assert evaluate_poly(report.table[name], images, 2) == zero
