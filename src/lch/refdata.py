"""Reference data for the bundled knots.

Two Legendrian representatives of m(10_132), both with tb = -1 and r = 0,
are fixed throughout the test suite: k1 (8-strand plat, 19 crossings) and
k2 (6-strand plat, 22 crossings).  Their differentials were recorded
independently of the disk-count code in this package and serve as ground
truth: the computed DGA must match k2's table exactly over F2 and match
k1's table over Z[t,t^-1] up to a diagonal change of variables.  A third
plat word for the knot m(9_42) feeds the representation search tests.

Gradings attached to the reference tables come from the front's Maslov
potential; the recorded differentials are homogeneous of degree -1
against them, which cross-checks the transcription.
"""

from __future__ import annotations

from .dga import DGA
from .freealg import F2, ZT, GradedPresentation, NcPoly, parse
from .plat import build_front, maslov_grading, parse_plat

K1_STRANDS = 8
K1_WORD = "6,7,4,3,7,5,3,6,4,2,5,1,3,2,5,2,4,6,2"

K2_STRANDS = 6
K2_WORD = "4,5,3,5,3,2,4,1,3,2,4,2,5,1,3,2,4,4,3,5,4,2"

M942_STRANDS = 6
M942_WORD = "2,1,1,4,5,3,5,3,2,4,3,3,2,4"

TORUS_ACCEPTANCE_PAIRS = ((3, 4), (3, 5), (5, 6), (5, 8))


def k1_front():
    return build_front(parse_plat(K1_WORD, K1_STRANDS))


def k2_front():
    return build_front(parse_plat(K2_WORD, K2_STRANDS))


def m942_front():
    return build_front(parse_plat(M942_WORD, M942_STRANDS))


# differentials of the 23-generator reference table over Z[t,t^-1];
# unlisted generators have differential zero
_K1_DIFFERENTIALS = {
    "x2": "-x1",
    "x4": "x3",
    "x6": "x3.x1",
    "x8": "x3 + x3.x2.x5 - x6.x5",
    "x9": "x1 + x7.x4.x1 - x7.x6",
    "x11": "1 + x2.x5 + x7.x4 + x7.x4.x2.x5 - x7.x8 + x9.x5",
    "x12": "x10",
    "x13": "x10.x4.x1 - x10.x6",
    "x14": "-x12.x4.x1 + x12.x6 + x13",
    "x17": "x10.x4.x15 + x10.x4.x2.x5.x15 - x10.x8.x15 + x13.x5.x15",
    "x18": "-x15.x7",
    "x20": "1 - x4.x1 + x6 - x4.x1.x16.x19 + x6.x16.x19",
    "x21": "1 - x12.x4.x15 - x12.x4.x2.x5.x15 + x12.x8.x15 - x14.x5.x15 + x17"
           " - x19.x5.x15 - x19.x16.x12.x4.x15 - x19.x16.x12.x4.x2.x5.x15"
           " + x19.x16.x12.x8.x15 - x19.x16.x14.x5.x15 + x19.x16.x17",
    "x22": "1 - x10 + x17.x7 + x10.x4.x18 + x10.x4.x2.x5.x18 - x10.x8.x18"
           " + x13.x5.x18",
    "x23": "t^-1*1 + x15.x2 + x15.x7.x4.x2 + x15.x9 - x18.x3.x2 + x18.x6",
}


def k1_reference_dga() -> DGA:
    front = k1_front()
    table = maslov_grading(front)
    pres = GradedPresentation(front.generator_names, dict(table.grading), ZT, 0)
    diff = {g: NcPoly.zero(ZT) for g in pres.generators}
    for g, text in _K1_DIFFERENTIALS.items():
        diff[g] = parse(text, ZT)
    return DGA(pres, diff)


def _g(i: int, ring: str = F2) -> NcPoly:
    return NcPoly.gen(f"x{i}", ring)


def k2_shorthands() -> dict[str, NcPoly]:
    """The recurring subexpressions of the 25-generator reference table."""
    one = NcPoly.one(F2)
    s = _g(2) + _g(3)
    big_p = one + s * _g(4)
    big_q = one + _g(5) * s
    w = _g(13) + _g(8) * s
    c = s + big_p * _g(17) + _g(14) * w + _g(16) * big_q
    return {"s": s, "P": big_p, "Q": big_q, "w": w, "c": c}


def k2_reference_dga() -> DGA:
    front = k2_front()
    table = maslov_grading(front)
    pres = GradedPresentation(front.generator_names, dict(table.grading), F2, 0)
    one = NcPoly.one(F2)
    sh = k2_shorthands()
    s, big_p, big_q, w, c = sh["s"], sh["P"], sh["Q"], sh["w"], sh["c"]
    diff = {g: NcPoly.zero(F2) for g in pres.generators}
    diff["x2"] = _g(1)
    diff["x3"] = _g(1)
    diff["x7"] = _g(4) + _g(5) * big_p
    diff["x8"] = _g(6)
    diff["x9"] = _g(6) * big_p
    diff["x10"] = _g(9) + _g(8) * big_p
    diff["x13"] = _g(6) * s + _g(11) * big_q
    diff["x14"] = big_p * _g(12)
    diff["x15"] = _g(12) * _g(11)
    diff["x16"] = _g(14) * _g(11) + big_p * _g(15)
    diff["x17"] = _g(12) * w + _g(15) * big_q
    diff["x19"] = big_p + c * _g(18)
    diff["x20"] = _g(18) * _g(12)
    diff["x21"] = _g(14) + _g(19) * _g(12) + c * _g(20)
    diff["x22"] = big_q * _g(18)
    diff["x23"] = one + _g(11) * _g(22) + w * _g(18)
    diff["x24"] = one + _g(22) * _g(12) + big_q * _g(20)
    diff["x25"] = one + c
    return DGA(pres, diff)


def k1_unit_exprs() -> dict[str, NcPoly]:
    """Elements witnessing that 1 lies in the image ideal of the k1 table.

    a has differential b; c = x22 + x12 - a*x18 has differential
    1 + (x17 - a*x15)*x7; e has differential exactly 1.
    """
    one = NcPoly.one(ZT)

    def g(i):
        return _g(i, ZT)

    a = g(12) * (g(4) * (one + g(2) * g(5)) - g(8)) + g(14) * g(5)
    b = g(10) * g(4) * (one + g(2) * g(5)) - g(10) * g(8) + g(13) * g(5)
    c = g(22) + g(12) - a * g(18)
    dc = one + (g(17) - a * g(15)) * g(7)
    e = g(20) - (c * (g(6) - g(4) * g(1))
                 + (g(17) - a * g(15)) * (g(9) + g(2))) * (one + g(16) * g(19))
    return {"a": a, "b": b, "c": c, "dc": dc, "e": e}


def k1_unit_expr_text() -> str:
    """Text of the bundled unit-element expression file (certs/k1_unit.expr)."""
    e = k1_unit_exprs()["e"]
    return (
        "# Element of the k1 algebra whose differential is exactly 1 over Z[t,t^-1].\n"
        + e.render()
        + "\n"
    )


def k1_trivial_cert_text() -> str:
    """Certificate replaying the triviality derivation for k1 over Z[t,t^-1].

    Registers the differentials of the intermediate elements a, b, c, e and
    asserts each reduction, ending in the unit relation.
    """
    ex = k1_unit_exprs()
    return "\n".join([
        "# Triviality of the k1 characteristic algebra over Z[t,t^-1].",
        "# a is built so that D(a) = b, and b is a cycle:",
        f"diff da = D( {ex['a'].render()} )",
        f"assert da = {ex['b'].render()}",
        f"diff db = D( {ex['b'].render()} )",
        "assert db = 0",
        "# c = x22 + x12 - a.x18 has differential 1 + (x17 - a.x15).x7:",
        f"diff dc = D( {ex['c'].render()} )",
        f"assert dc = {ex['dc'].render()}",
        "# e combines the previous elements into an exact unit:",
        f"diff de = D( {ex['e'].render()} )",
        "assert-unit de",
        "",
    ])


def k2_ideal_relations() -> tuple[tuple[str, NcPoly], ...]:
    """The deliberate further quotient of the k2 characteristic algebra.

    Killing these generators (and setting x13 = 1 + x2.x5) leaves an algebra
    generated by x2, x4, x5, x14, x16, x18; the surviving relations reduce to
    the three-generator presentation checked by the operator model in reps.
    """
    items = []
    for i in (3, 7, 8, 9, 10):
        items.append((f"i_x{i}", _g(i)))
    items.append(("i_x13", _g(13) + NcPoly.one(F2) + _g(2) * _g(5)))
    for i in (17, 19, 21, 22, 23, 24, 25):
        items.append((f"i_x{i}", _g(i)))
    return tuple(items)


def k2_quotient_cert_text() -> str:
    """Certificate deriving the reduced presentation of the k2 quotient.

    Replayed against char_algebra(k2) extended with k2_ideal_relations().
    Derives x1 = x6 = x11 = x12 = x15 = 0 (x1, x6 are the relations d_x2,
    d_x8 themselves), x14 = x20, and then the defining relations of the
    three-generator algebra in the letters x2 (a), x5 (b), x18 (c):

        r_R2      (1+ba)c  = 0
        r_R1      (1+ab)c  = 1
        r_R3      (1+ba)ac = 1
        r_final   (1+a)(1 + c(1+ab) + ac(1+ba)) = 0

    together with the expressibility relations x4 = bc, x14 = (1+a)c,
    x16 = (1+a)ac that make those letters generate the quotient.
    """
    assumes = [f"# assume {name} = {value.render()}" for name, value in k2_ideal_relations()]
    return "\n".join([
        "# Reduction of the k2 characteristic algebra, replayed step by step.",
        "# Requires the i_* relations from the deliberate quotient ideal:",
        *assumes,
        "",
        "# D(x12.x23 + x15.x22 + x17.x18) reduces to the bare generator x12",
        "# (the x1 and x6 rules are vacuous here but document the reduction):",
        "diff big12raw = D( x12.x23 + x15.x22 + x17.x18 )",
        "subst r_x12 = big12raw with x1 -> 0; x6 -> 0",
        "assert r_x12 = x12",
        "",
        "# with x12 = 0, the relation d_x24 says Q.x20 = 1 where Q = 1 + x5.(x2+x3):",
        "subst r_q = d_x24 with x12 -> 0",
        "assert r_q = 1 + x20 + x5.x2.x20 + x5.x3.x20",
        "",
        "# x11.Q = 0 (from d_x13) times the right inverse x20 kills x11:",
        "subst s13 = d_x13 with x6 -> 0",
        "comb r_x11 = ( 1 ) * s13 * ( x20 ) + ( x11 ) * r_q * ( 1 )",
        "assert r_x11 = x11",
        "",
        "# the same trick applied to d_x17 kills x15:",
        "subst s17 = d_x17 with x12 -> 0",
        "comb r_x15 = ( 1 ) * s17 * ( x20 ) + ( x15 ) * r_q * ( 1 )",
        "assert r_x15 = x15",
        "",
        "# d_x21 gives x14 = c.x20, and d_x25 (c = 1) turns that into x14 = x20:",
        "subst s21 = d_x21 with x12 -> 0",
        "comb r_x14x20 = ( 1 ) * s21 * ( 1 ) + ( 1 ) * d_x25 * ( x20 )",
        "assert r_x14x20 = x14 + x20",
        "",
        "# --- into the deliberate quotient ---",
        "# d_x22 becomes (1+ba)c = 0:",
        "subst r_R2 = d_x22 with x3 -> 0",
        "assert r_R2 = x18 + x5.x2.x18",
        "",
        "# d_x23 becomes (1+ab)c = 1:",
        "subst r_R1 = d_x23 with x11 -> 0; x8 -> 0; x13 -> 1 + x2.x5",
        "assert r_R1 = 1 + x18 + x2.x5.x18",
        "",
        "# the c = 1 relation in reduced form:",
        "subst r_cbar = d_x25 with x3 -> 0; x8 -> 0; x17 -> 0; x13 -> 1 + x2.x5",
        "assert r_cbar = 1 + x2 + x14 + x16 + x14.x2.x5 + x16.x5.x2",
        "",
        "# multiplying it by x18 on the right gives x14 = (1+x2).x18:",
        "comb r_x14e = ( 1 ) * r_cbar * ( x18 ) + ( x14 ) * r_R1 * ( 1 ) + ( x16 ) * r_R2 * ( 1 )",
        "assert r_x14e = x14 + x18 + x2.x18",
        "",
        "# d_x24 reads (1+ba).x14 = 1; substituting x14 out yields (1+ba)ac = 1:",
        "subst s24 = d_x24 with x22 -> 0; x3 -> 0; x20 -> x14",
        "subst s24b = s24 with x14 -> x18 + x2.x18",
        "comb r_R3 = ( 1 ) * s24b * ( 1 ) + ( 1 ) * r_R2 * ( 1 )",
        "assert r_R3 = 1 + x2.x18 + x5.x2.x2.x18",
        "",
        "# d_x7 and d_x19 reduce to x4 = x5.(1+x2.x4) and x18 = 1 + x2.x4,",
        "# which combine into x4 = x5.x18:",
        "subst r_e4 = d_x7 with x3 -> 0",
        "assert r_e4 = x4 + x5 + x5.x2.x4",
        "subst s19 = d_x19 with x3 -> 0; x8 -> 0; x17 -> 0; x13 -> 1 + x2.x5",
        "comb r_e18 = ( 1 ) * s19 * ( 1 ) + ( 1 ) * r_cbar * ( x18 )",
        "assert r_e18 = 1 + x18 + x2.x4",
        "comb r_x4 = ( 1 ) * r_e4 * ( 1 ) + ( x5 ) * r_e18 * ( 1 )",
        "assert r_x4 = x4 + x5.x18",
        "",
        "# substituting x14 out of the c = 1 relation, then multiplying by",
        "# x2.x18 on the right, expresses x16 as (1+x2).x2.x18:",
        "subst r_c2 = r_cbar with x14 -> x18 + x2.x18",
        "comb r_x16 = ( 1 ) * r_c2 * ( x2.x18 ) + ( x16 ) * r_R3 * ( 1 )"
        " + ( x18.x2 + x2.x18.x2 ) * r_R2 * ( 1 )",
        "assert r_x16 = x16 + x2.x18 + x2.x2.x18",
        "",
        "# eliminating x16 as well turns c = 1 into the final relation",
        "# (1+x2).(1 + x18.(1+x2.x5) + x2.x18.(1+x5.x2)) = 0:",
        "subst r_final = r_c2 with x16 -> x2.x18 + x2.x2.x18",
        "assert r_final = 1 + x2 + x18 + x2.x2.x18 + x18.x2.x5 + x2.x18.x2.x5"
        " + x2.x18.x5.x2 + x2.x2.x18.x5.x2",
        "",
    ])


def k2_norep_cert_text() -> str:
    """Certificate for the no-finite-dimensional-representation verdict on k2.

    Replayed by adjoin_and_derive with a = 1 + x5.(x2+x3) and b = x20: the
    first steps establish a.b = 1 without the adjoined relation, and with
    b.a = 1 adjoined the chain collapses d_x23 to the unit.
    """
    return "\n".join([
        "# 0 = 1 in the k2 characteristic algebra after adjoining x20.Q = 1.",
        "# witness a = 1 + x5.x2 + x5.x3",
        "# witness b = x20",
        "# Establish Q.x20 = 1 first (independent of the adjoined relation):",
        "diff big12raw = D( x12.x23 + x15.x22 + x17.x18 )",
        "subst r_x12 = big12raw with x1 -> 0; x6 -> 0",
        "assert r_x12 = x12",
        "subst r_ab = d_x24 with x12 -> 0",
        "assert r_ab = 1 + x20 + x5.x2.x20 + x5.x3.x20",
        "",
        "# x20 . D(x22) collapses to x18 once x20.Q = 1:",
        "comb r_x18 = ( x20 ) * d_x22 * ( 1 ) + ( 1 ) * adjoined * ( x18 )",
        "assert r_x18 = x18",
        "",
        "# x11.Q = 0 against the right inverse of Q kills x11:",
        "subst s13 = d_x13 with x6 -> 0",
        "comb r_x11 = ( 1 ) * s13 * ( x20 ) + ( x11 ) * r_ab * ( 1 )",
        "assert r_x11 = x11",
        "",
        "# d_x23 = 1 + x11.x22 + (x13 + x8.(x2+x3)).x18 now reads 0 = 1:",
        "subst r_one = d_x23 with x11 -> 0; x18 -> 0",
        "assert-unit r_one",
        "",
    ])
