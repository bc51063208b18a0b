"""Arithmetic, rendering, and derivation laws for the free algebra layer."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from lch.freealg import (
    F2,
    ZT,
    GradedPresentation,
    GradingError,
    NcPoly,
    parse,
    signed_derivation,
    specialize,
    substitute,
    word_key,
)
from oracles import factor_regex_parse


def x(i: int, ring: str = F2) -> NcPoly:
    return NcPoly.gen(f"x{i}", ring)


def test_add_characteristic_two():
    assert (x(1) + x(1)).is_zero()


def test_add_keeps_distinct_words():
    p = x(1) + x(2)
    assert len(p.terms) == 2


def test_add_merges_laurent_exponents():
    p = parse("t", ZT) + parse("t^-1", ZT)
    assert p.terms == {(): {1: 1, -1: 1}}


def test_mul_concatenates_words():
    p = x(2) * x(5)
    assert p.terms == {("x2", "x5"): {0: 1}}


def test_mul_unit_is_identity():
    p = x(1) + x(2) * x(3)
    assert NcPoly.one(F2) * p == p
    assert p * NcPoly.one(F2) == p


def test_mul_distributes_over_sum():
    p = (NcPoly.one(F2) + x(2) * x(5)) * x(18)
    assert p == parse("x18 + x2.x5.x18", F2)


def test_mul_is_noncommutative():
    assert x(1) * x(2) != x(2) * x(1)


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        x(1, F2) + x(1, ZT)
    with pytest.raises(ValueError):
        x(1, F2) * x(1, ZT)


def test_render_basics():
    assert NcPoly.zero(ZT).render() == "0"
    assert NcPoly.one(ZT).render() == "1"
    assert (-x(1, ZT)).render() == "-1*x1"
    assert parse("t^-1", ZT).render() == "t^-1*1"
    assert (x(2, ZT) * x(5, ZT)).render() == "x2.x5"


def test_render_orders_by_length_then_index():
    p = parse("x10 + x2 + x1.x1", ZT)
    assert p.render() == "x2 + x10 + x1.x1"


def test_word_key_natural_order():
    assert word_key(("x2",)) < word_key(("x10",))
    assert word_key(("x10",)) < word_key(("x1", "x1"))


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "x1",
        "x3 + x3.x2.x5 + -1*x6.x5",
        "t^-1*1 + x15.x2",
        "2*t^3*x1 + -4*x2.x2",
        "t^2*1",
    ],
)
def test_parse_render_round_trip_zt(text):
    p = parse(text, ZT)
    assert parse(p.render(), ZT) == p


def test_parse_minus_sign_grammar():
    assert parse("x3 - x6.x5", ZT) == parse("x3 + -1*x6.x5", ZT)
    assert parse("-x1", ZT) == -x(1, ZT)
    assert parse("1 - 1", ZT).is_zero()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse("", F2)
    with pytest.raises(ValueError):
        parse("x$", F2)
    with pytest.raises(ValueError):
        parse("t^2*x1", F2)
    with pytest.raises(ValueError):
        parse("t", F2)


# each malformed text and its exact message; within a term every factor is
# read before the term's t is refused over F2, and terms are read in order
MALFORMED = [
    ("", F2, "empty polynomial text"),
    (" \n\t", ZT, "empty polynomial text"),
    ("+", F2, "no terms in '+'"),
    (" + \n+ ", ZT, "no terms in ' + \\n+ '"),
    ("x1 *", F2, "bad factor '' in 'x1 *'"),
    ("*x1", F2, "bad factor '' in '*x1'"),
    (" * x1", ZT, "bad factor '' in ' * x1'"),
    ("x1 + 2*", ZT, "bad factor '' in 'x1 + 2*'"),
    ("x1 - - x2", ZT, "bad factor '' in 'x1 - - x2'"),
    ("2*-3*x1", ZT, "bad factor '' in '2*-3*x1'"),
    ("x1 . x2", F2, "bad factor 'x1 . x2' in 'x1 . x2'"),
    ("x$", F2, "bad factor 'x$' in 'x$'"),
    ("x1 + é", F2, "bad factor 'é' in 'x1 + é'"),
    ("t.x1", ZT, "bad factor 't.x1' in 't.x1'"),
    ("x1.t", ZT, "bad factor 'x1.t' in 'x1.t'"),
    ("t^x", ZT, "bad factor 't^x' in 't^x'"),
    ("t ^2*x1", ZT, "bad factor 't ^2' in 't ^2*x1'"),
    ("t^ -1", ZT, "bad factor 't^' in 't^ -1'"),
    ("2 3*x1", ZT, "bad factor '2 3' in '2 3*x1'"),
    ("1x", F2, "bad factor '1x' in '1x'"),
    ("x^-1", ZT, "bad factor 'x^-1' in 'x^-1'"),
    ("t^2*x1", F2, "t is not allowed over F2"),
    ("t*x1 y", F2, "bad factor 'x1 y' in 't*x1 y'"),
    ("t + x$", F2, "t is not allowed over F2"),
    ("x1", "Q", "unknown ring 'Q'"),
]


@pytest.mark.parametrize("text,ring,message", MALFORMED)
def test_parse_malformed_messages(text, ring, message):
    with pytest.raises(ValueError) as err:
        parse(text, ring)
    assert str(err.value) == message


@pytest.mark.parametrize("text,ring,want", [
    # blank terms are skipped and whitespace around separators is free
    ("x1 + ", F2, "x1"),
    (" + x1 ++ x2\n", F2, "x1 + x2"),
    ("- 2 * x1", ZT, "-2*x1"),
    # factors multiply in any order; word factors concatenate in order
    ("x1*3*t*x2.x3*t^-2", ZT, "3*t^-1*x1.x2.x3"),
    ("t^0*x10", F2, "x10"),
    ("x_1.T.t2", F2, "x_1.T.t2"),
])
def test_parse_accepts_noncanonical_text(text, ring, want):
    assert parse(text, ring).render() == want


_term = st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                  st.lists(st.sampled_from(["x1", "x2", "x10", "y_3", "tt"]), max_size=3))
_space = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def _written_terms(draw, ring):
    """Terms and one text for their sum: factors in any order, free spacing."""
    terms = draw(st.lists(_term, min_size=1, max_size=4))
    if ring == F2:
        terms = [(c, 0, w) for c, _, w in terms]
    pieces = []
    for c, e, w in terms:
        cut = draw(st.integers(0, len(w)))
        factors = [".".join(part) for part in (w[:cut], w[cut:]) if part]
        if abs(c) != 1 or not factors:
            factors.insert(draw(st.integers(0, len(factors))), str(abs(c)))
        if e:
            power = "t" if e == 1 else f"t^{e}"
            factors.insert(draw(st.integers(0, len(factors))), power)
        joined = "*".join(draw(_space) + f + draw(_space) for f in factors)
        pieces.append(("- " if c < 0 else "") + joined)
    text = draw(_space) + (draw(_space) + "+").join(pieces) + draw(_space)
    return terms, text


@settings(max_examples=200)
@given(st.sampled_from([F2, ZT]).flatmap(lambda ring: st.tuples(st.just(ring), _written_terms(ring))))
def test_parse_round_trips_written_terms(case):
    ring, (terms, text) = case
    want = NcPoly.zero(ring)
    for c, e, w in terms:
        want = want + NcPoly(ring, {tuple(w): {e: c}})
    got = parse(text, ring)
    assert got == want
    assert parse(got.render(), ring) == got


_PIECES = ["x1", "x10", "y_3", "tt", "t2", "T", "t", "t^", "t^2", "t^-1", "^", "-", "+", "*",
           ".", "0", "1", "07", " ", "\t", "\n", "\x1c", "é", "٣", "²", "$", "(", "x1.t", "t^x"]
_FACTORS = ["x1", "x2.x10", "y_3.tt", "t", "t^2", "t^-3", "t^0", "0", "1", "3"]
_SEPARATORS = [" + ", "+", " - ", "-", "*", " * ", "\n+ ", " -\n"]
# any text from pieces of the grammar, or a product and sum of good factors
_texts = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    st.tuples(st.sampled_from(_FACTORS),
              st.lists(st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_FACTORS)),
                       max_size=7)).map(lambda t: t[0] + "".join(sep + f for sep, f in t[1])))


def _outcome(read, text, ring):
    try:
        return list(read(text, ring).terms.items())
    except ValueError as exc:
        return str(exc)


def _malformed_examples(test):
    for text, ring, _ in MALFORMED:
        test = example(text, ring)(test)
    return test


@_malformed_examples
@settings(max_examples=400)
@given(_texts, st.sampled_from([F2, ZT]))
def test_parse_matches_the_factor_regex_oracle(text, ring):
    # equal terms in equal order, or the same message
    assert _outcome(parse, text, ring) == _outcome(factor_regex_parse, text, ring)


def test_parse_f2_reduces_mod_two():
    assert parse("2*x3", F2).is_zero()
    assert parse("x1 + x1", F2).is_zero()
    assert parse("3*x1", F2) == x(1)


def test_substitute_zero_images():
    p = x(1, F2) + x(6, F2) * x(5, F2)
    sigma = {"x1": NcPoly.zero(F2), "x6": NcPoly.zero(F2), "x5": x(5, F2)}
    assert substitute(p, sigma).is_zero()


def test_substitute_relabels():
    p = (NcPoly.one(F2) + x(2) * x(5)) * x(18)
    sigma = {"x2": NcPoly.gen("a", F2), "x5": NcPoly.gen("b", F2), "x18": NcPoly.gen("c", F2)}
    assert substitute(p, sigma) == parse("c + a.b.c", F2)


def test_substitute_identity_and_missing_image():
    p = x(1) + x(2) * x(3)
    assert substitute(p, {g: NcPoly.gen(g, F2) for g in p.generators()}) == p
    with pytest.raises(ValueError):
        substitute(p, {"x1": NcPoly.zero(F2)})


def test_specialize_examples():
    p = parse("t^-1", ZT) + NcPoly.word(["x15", "x2"], ZT)
    assert specialize(p) == parse("1 + x15.x2", F2)
    assert specialize(-x(1, ZT)) == x(1, F2)
    assert specialize(x(3, ZT).scale(2)).is_zero()


def test_presentation_validation():
    with pytest.raises(ValueError):
        GradedPresentation(("x1", "x1"), grading={"x1": 0})
    with pytest.raises(ValueError):
        GradedPresentation(("t",), grading={"t": 0})
    with pytest.raises(ValueError):
        GradedPresentation(("x1",), grading={"x1": 0, "x9": 0})
    pres = GradedPresentation(("x1", "x2"), grading={"x1": 3, "x2": 0}, ring=ZT)
    assert (pres.degree_of("x1"), pres.degree_of("x2")) == (3, 0)


def test_word_degree_modulus():
    pres = GradedPresentation(("x1",), grading={"x1": 3}, modulus=4)
    assert pres.word_degree(("x1", "x1")) == 2


def test_signed_derivation_basic_sign():
    pres = GradedPresentation(("x1", "x2", "x3", "x4"), grading={"x1": 0, "x2": 1, "x3": 0, "x4": 1}, ring=ZT)
    d = {"x2": -x(1, ZT), "x4": x(3, ZT)}
    derive = signed_derivation(pres, d)
    assert derive(x(2, ZT) * x(4, ZT)) == parse("-1*x1.x4 + -1*x2.x3", ZT)
    assert derive(NcPoly.one(ZT)).is_zero()


def test_presentation_rejects_partial_grading():
    # every generator has a degree, so no sign or degree can meet an
    # ungraded one; the missing ones are named in generator order
    with pytest.raises(ValueError, match=r"^no grading for generators \['x2', 'x1'\]$"):
        GradedPresentation(("x2", "x1", "x4"), grading={"x4": 1}, ring=ZT)


def test_signed_derivation_rejects_odd_modulus():
    # the presentation refuses the odd modulus when it is built, so no
    # derivation over ZT ever reads its signs from one
    with pytest.raises(GradingError):
        signed_derivation(GradedPresentation(("x1",), grading={"x1": 0}, ring=ZT, modulus=3), {})


@pytest.mark.parametrize("modulus", [1, 3, 5])
def test_presentation_refuses_odd_modulus_over_zt_only(modulus):
    with pytest.raises(GradingError, match=r"^signs need a Z or even-modulus grading$"):
        GradedPresentation(("x1",), grading={"x1": 0}, ring=ZT, modulus=modulus)
    assert GradedPresentation(("x1",), {"x1": 0}, F2, modulus).modulus == modulus
    assert GradedPresentation(("x1",), {"x1": 0}, ZT, modulus + 1).modulus == modulus + 1


def test_off_degree_compares_mod_the_modulus():
    # degrees 2, 6 = 2 and 1 mod 4: the third word is the first off degree 2,
    # and -2 = 2 mod 4; with no modulus degrees compare exactly
    pres = GradedPresentation(("x1", "x2"), grading={"x1": 3, "x2": 1}, modulus=4)
    assert pres.off_degree(parse("x2.x2 + x1.x1 + x2 + x1", F2), 2) == ("x2",)
    assert pres.off_degree(parse("x2.x2 + x1.x1", F2), -2) is None
    exact = GradedPresentation(("x1", "x2"), grading={"x1": 3, "x2": 1})
    assert exact.off_degree(parse("x2.x2 + x1.x1", F2), 2) == ("x1", "x1")
    assert exact.off_degree(NcPoly.zero(F2), 7) is None


_NAMES = ["x1", "x2", "x3", "x4", "x5", "x6"]
_words = st.lists(st.sampled_from(_NAMES), max_size=3).map(tuple)
_zt_coef = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2)
_poly_zt = st.dictionaries(_words, _zt_coef, max_size=4).map(lambda d: NcPoly(ZT, d))
_poly_f2 = st.dictionaries(_words, st.just({0: 1}), max_size=4).map(
    lambda d: NcPoly(F2, d)
)


@given(_poly_zt, _poly_zt)
@settings(max_examples=60)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(_poly_zt, _poly_zt, _poly_zt)
@settings(max_examples=60)
def test_mul_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


@given(_poly_zt)
@settings(max_examples=60)
def test_neg_is_additive_inverse(p):
    assert (p + (-p)).is_zero()


@given(_poly_zt)
@settings(max_examples=80)
def test_render_parse_round_trip_random(p):
    assert parse(p.render(), ZT) == p


@given(_poly_f2)
@settings(max_examples=80)
def test_render_parse_round_trip_random_f2(p):
    assert parse(p.render(), F2) == p


_grading = st.fixed_dictionaries({g: st.integers(-2, 2) for g in _NAMES})
_dmap = st.dictionaries(st.sampled_from(_NAMES), _poly_zt, max_size=4)


@given(_words, _words, _grading, _dmap)
@settings(max_examples=60)
def test_leibniz_identity_on_words(u, v, grading, d):
    pres = GradedPresentation(tuple(_NAMES), grading=grading, ring=ZT)
    derive = signed_derivation(pres, d)
    pu = NcPoly(ZT, {u: {0: 1}})
    pv = NcPoly(ZT, {v: {0: 1}})
    sign = -1 if pres.word_degree(u) % 2 else 1
    assert derive(pu * pv) == derive(pu) * pv + (pu * derive(pv)).scale(sign)


def _reference_derive(pres: GradedPresentation, d, p: NcPoly) -> NcPoly:
    """The Leibniz rule term by term, on Laurent coefficients as dicts."""

    def add_into(acc, other):
        for e, c in other.items():
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            add_into(out, {e1 + e2: c1 * c2 for e2, c2 in b.items()})
        return out

    acc = {}
    for w, coef in p.terms.items():
        for i, g in enumerate(w):
            dg = d.get(g)
            if dg is None or dg.is_zero():
                continue
            c = coef
            if pres.ring == ZT and pres.word_degree(w[:i]) % 2:
                c = {e: -v for e, v in c.items()}
            for w2, c2 in dg.terms.items():
                add_into(acc.setdefault(w[:i] + w2 + w[i + 1:], {}), mul(c, c2))
    return NcPoly(pres.ring, acc)


@given(_poly_zt, _grading, _dmap)
@settings(max_examples=80)
def test_derive_matches_reference_on_laurent_coefficients(p, grading, d):
    pres = GradedPresentation(tuple(_NAMES), grading=grading, ring=ZT)
    assert signed_derivation(pres, d)(p) == _reference_derive(pres, d, p)
    pres2 = GradedPresentation(tuple(_NAMES), grading=grading, ring=F2)
    d2 = {g: specialize(v) for g, v in d.items()}
    p2 = specialize(p)
    assert signed_derivation(pres2, d2)(p2) == _reference_derive(pres2, d2, p2)


@given(_poly_zt, _poly_zt)
@settings(max_examples=60)
def test_specialize_is_ring_map(p, q):
    assert specialize(p + q) == specialize(p) + specialize(q)
    assert specialize(p * q) == specialize(p) * specialize(q)


@given(_words, _grading, _dmap)
@settings(max_examples=60)
def test_specialize_intertwines_derivations(w, grading, d):
    pres = GradedPresentation(tuple(_NAMES), grading=grading, ring=ZT)
    derive = signed_derivation(pres, d)
    pres2 = GradedPresentation(tuple(_NAMES), grading=grading, ring=F2)
    d2 = {g: specialize(v) for g, v in d.items()}
    derive2 = signed_derivation(pres2, d2)
    p = NcPoly(ZT, {w: {0: 1}})
    assert specialize(derive(p)) == derive2(specialize(p))


@pytest.mark.parametrize("ring,terms,message", [
    (F2, {("x1",): {1: 1}}, "t is not allowed over F2"),
    (F2, {("x1",): {1: 0}}, "t is not allowed over F2"),
    (ZT, {("x1",): {0: 0}}, None),
])
def test_constructor_normal_form_edges(ring, terms, message):
    if message is None:
        assert NcPoly(ring, terms).is_zero()
    else:
        with pytest.raises(ValueError) as err:
            NcPoly(ring, terms)
        assert str(err.value) == message


def _expand(p: NcPoly) -> dict:
    """p as a plain dict (word, exponent) -> coefficient; no empty coefficient
    may hide in p.terms."""
    assert all(p.terms.values())
    return {(w, e): c for w, coef in p.terms.items() for e, c in coef.items()}


def _reference(ring: str, pairs) -> dict:
    """Sum ((word, exponent), coefficient) pairs term by term, then reduce."""
    acc: dict = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    if ring == F2:
        return {key: 1 for key, c in acc.items() if c % 2}
    return {key: c for key, c in acc.items() if c}


def _reference_mul(ring: str, a: dict, b: dict) -> dict:
    return _reference(ring, [((w1 + w2, e1 + e2), c1 * c2)
                             for (w1, e1), c1 in a.items() for (w2, e2), c2 in b.items()])


_ring_case = st.sampled_from([F2, ZT]).flatmap(lambda ring: st.tuples(
    st.just(ring),
    *[_poly_f2 if ring == F2 else _poly_zt] * 2,
    st.fixed_dictionaries({g: _poly_f2 if ring == F2 else _poly_zt for g in _NAMES}),
    st.integers(-3, 3)))


@given(_ring_case)
@settings(max_examples=100)
def test_operations_match_reference_on_both_rings(case):
    ring, p, q, sigma, n = case
    a, b = _expand(p), _expand(q)
    assert _expand(p + q) == _reference(ring, [*a.items(), *b.items()])
    assert _expand(p - q) == _reference(ring, [*a.items(), *((k, -c) for k, c in b.items())])
    assert _expand(-p) == _reference(ring, [(k, -c) for k, c in a.items()])
    assert _expand(p * q) == _reference_mul(ring, a, b)
    assert _expand(p.scale(n)) == _reference(ring, [(k, n * c) for k, c in a.items()])
    pairs = []
    for (w, e), c in a.items():
        img = {((), e): c}
        for g in w:
            img = _reference_mul(ring, img, _expand(sigma[g]))
        pairs += img.items()
    assert _expand(substitute(p, sigma)) == _reference(ring, pairs)
    assert _expand(specialize(p)) == _reference(F2, [((w, 0), c) for (w, _), c in a.items()])
