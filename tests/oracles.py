"""Independent oracles that the tests hold the library against.

The augmentation oracle reads the DGA directly and shares no code with
`lch.reps`, whose compiled search it checks.  The segment walk reads a
front's event list and shares no code with `lch.plat`, whose piece walk it
checks.  `factor_regex_parse` is the polynomial reader that `lch.freealg`
used before it split terms and factors: one regex matched each factor with
the separator before it, and two flags carried the term across matches.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from lch.dga import DGA
from lch.freealg import F2, NcPoly, Triple, _check_ring, _poly


def exhaustive_augmentations(g: DGA, graded: bool = False) -> list[dict[str, int]]:
    """Brute-force oracle: filter all 2^n assignments.  Refuses n > 20.

    Each differential is evaluated from its terms.  With graded set, only
    the maps that vanish on every generator of nonzero degree mod the
    grading's modulus are kept.
    """
    pres = g.presentation
    gens = pres.generators
    if pres.ring != F2:
        raise ValueError("augmentations are counted over F2 only")
    if len(gens) > 20:
        raise ValueError(f"{len(gens)} generators is too many for brute force")
    rels = [g.d(x) for x in gens]
    out = []
    for values in itertools.product((0, 1), repeat=len(gens)):
        eps = dict(zip(gens, values))
        if graded and any(v and pres.word_degree((x,)) for x, v in eps.items()):
            continue
        # over F2 every stored term has coefficient 1
        if all(sum(all(eps[x] for x in word) for word in r.terms) % 2 == 0
               for r in rels):
            out.append(eps)
    return out


class SegmentWalk(NamedTuple):
    crossing_signs: dict[str, int]
    down_cusps: int
    up_cusps: int
    drift: int
    potential: dict[str, int]  # per crossing: upper west segment minus lower


def segment_walk(events, n_slots: int) -> SegmentWalk:
    """Walk a front's closure one (column, slot) segment at a time.

    Column j lies between events j - 1 and j.  Each component is walked east
    from its first unvisited segment, columns left to right and slots top
    to bottom.  A turn is a cusp: onto the lower branch it is a down cusp
    and lowers the Maslov potential by 1, onto the upper branch an up cusp
    that raises it.  Raises ValueError unless the closure is a knot.
    """
    live = [False] * (n_slots + 1)
    columns: list[tuple[int, ...]] = [()]
    for ev in events:
        c, d = ev.slots
        if ev.kind != "X":
            live[c] = live[d] = ev.kind == "L"
        columns.append(tuple(s for s in range(1, n_slots + 1) if live[s]))

    def step(j: int, s: int, di: int) -> tuple[int, int, int]:
        ev = events[j] if di == 1 else events[j - 1]
        c, d = ev.slots
        if s not in (c, d) or ev.kind == ("L" if di == 1 else "R"):
            return (j + di, s, di)
        other = d if s == c else c
        if ev.kind == "X":
            return (j + di, other, di)
        return (j, other, -di)

    heading: dict[tuple[int, int], int] = {}
    potential: dict[tuple[int, int], int] = {}
    down = up = components = drift = 0
    for col, slots in enumerate(columns):
        for slot in slots:
            if (col, slot) in heading:
                continue
            components += 1
            start = dart = (col, slot, 1)
            pot = 0
            while True:
                j, s, di = dart
                if (j, s) in heading:
                    if dart != start:
                        raise ValueError(f"segment walk collides at {(j, s)}")
                    break
                heading[(j, s)] = di
                potential[(j, s)] = pot
                dart = step(j, s, di)
                if dart[2] != di:
                    if dart[1] > s:
                        down += 1
                        pot -= 1
                    else:
                        up += 1
                        pot += 1
            drift = pot
    if components != 1:
        raise ValueError(f"closure has {components} components, need a knot")
    signs, differences = {}, {}
    for j, ev in enumerate(events):
        if ev.kind == "X":
            c, d = ev.slots
            signs[ev.name] = 1 if heading[(j, c)] == heading[(j, d)] else -1
            differences[ev.name] = potential[(j, c)] - potential[(j, d)]
    return SegmentWalk(signs, down, up, drift, differences)


# one factor of a term, with the separator before it, whitespace stripped:
# groups are the separator ('' at the start), a sign '-' opening the term,
# then exactly one of an integer, t or t^k (with k), a dot-joined word of
# generator names other than t, or anything else up to the next separator;
# the last group is '*' when the term goes on past this factor
_FACTOR_RE = re.compile(
    r"(^|[+*])\s*(-\s*)?"
    r"(?:(\d+)|(t(?:\^(-?\d+))?)|((?!t\b)[A-Za-z_]\w*(?:\.(?!t\b)[A-Za-z_]\w*)*)|([^+*]*?))"
    r"\s*(?=(\*)|\+|\Z)")


def factor_regex_parse(text: str, ring: str) -> NcPoly:
    """Parse the canonical flat rendering back into an NcPoly."""
    _check_ring(ring)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return NcPoly.zero(ring)
    # a '-' not part of an exponent starts a new negated term; the text is
    # then read in one pass, factor by factor
    triples: list[Triple] = []
    coef = exp = 0
    word: list[str] = []
    for sep, neg, digits, tee, tpow, names, other, more in _FACTOR_RE.findall(
            re.sub(r"(?<!\^)-", "+-", s)):
        if sep != "*":
            coef, exp, word = (-1 if neg else 1), 0, []
        if digits:
            coef *= int(digits)
        elif tee:
            exp += int(tpow) if tpow else 1
        elif names:
            word += names.split(".")
        elif other or neg or sep == "*" or more:
            raise ValueError(f"bad factor {other!r} in {text!r}")
        else:
            continue  # a blank term
        if more:
            continue
        # checked here too, so that t is reported before a later bad factor
        if ring == F2 and exp != 0:
            raise ValueError("t is not allowed over F2")
        triples.append((tuple(word), exp, coef))
    if not triples:
        raise ValueError(f"no terms in {text!r}")
    return _poly(ring, triples)
