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
