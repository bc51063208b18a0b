"""Differential graded algebras of simple fronts by admissible-disk counting.

Every admissible embedded disk has one positive corner, at its east end, and
a boundary that is x-monotone on both arcs: between events it occupies two
slots u < l of each column.  So one pass over the events, west to east,
computes every differential at once.  For each pair of slots it holds the
corner words of the partial disks whose arcs sit on that pair, each closed
by a left cusp to the west, as word -> coefficient.

- A left cusp opens the empty word on its own pair; a boundary arc meeting
  a cusp anywhere else would have to double back.
- A generator's differential is what its own pair holds when the pass
  reaches it, plus, at a right cusp, the cusp's own disk.
- At a crossing x of slots a < b a partial disk on a or b either slides
  through or turns a convex corner at x; one on exactly (a, b) would pinch
  shut, and is dropped.  Slides move whole word sets from one pair to
  another, so the work per crossing is the words on the pairs it touches.
  A corner adds the letter x, which no word held west of x contains, so
  each merge is a disjoint union: nothing cancels, every coefficient is +-1.

The corner word is read counterclockwise from the positive corner: upper
arc east to west, then lower arc west to east.  Going east, a corner on the
upper arc is therefore prepended to the word, and one on the lower arc
appended.  The ring enters the pass only over Z[t,t^-1]: as t^-1 at the
base cusp, and as a sign flip at each negative corner on the upper arc at a
crossing of even grading parity.  The rule is pinned by requiring d^2 = 0
over Z[t,t^-1] on the bundled fronts and on random plats; the remaining
freedom is a diagonal change of variables and does not affect any result.

The pass is bounded by its cap, twice the number of events times the number
of slots, on the words it holds after each crossing.  Only a pass over the
cap drops the pairs that no generator to the east reads; the table of
needed pairs is built on the first overflow.  A pass still over the cap is
refused.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .freealg import (
    F2,
    ZT,
    Coef,
    GradedPresentation,
    NcPoly,
    Word,
    _check_ring,
    _poly,
    content_lines,
    parse,
    record,
    signed_derivation,
    specialize,
)
from .plat import FrontDiagram, maslov_grading


@record
class DGA(NamedTuple):
    presentation: GradedPresentation
    differential: dict[str, NcPoly]

    def d(self, name: str) -> NcPoly:
        return self.differential[name]

    def derivation(self):
        return signed_derivation(self.presentation, self.differential)


def _needed_pairs(front: FrontDiagram) -> list[set[tuple[int, int]]]:
    """needed[k]: the slot pairs, in the column just east of event k, whose
    partial disks some generator further east reads.  One east-to-west pass."""
    needed: list[set[tuple[int, int]]] = []
    want: set[tuple[int, int]] = set()
    for e in reversed(front.events):
        needed.append(want)
        a, b = e.slots
        if e.kind == "L":
            want = {(u, l) for u, l in want if u not in (a, b) and l not in (a, b)}
            continue
        west = {(a, b)}
        for u, l in want:  # the pairs each east pair is made from
            if e.kind == "R" or a not in (u, l) and b not in (u, l):
                west.add((u, l))
            elif (u, l) == (a, b):
                continue  # nothing reaches it: a disk on it pinches shut
            elif u == a:
                west.add((b, l))
            elif u == b:
                west.update(((a, l), (b, l)))
            elif l == a:
                west.update(((u, b), (u, a)))
            else:  # l == b
                west.add((u, a))
        want = west
    needed.reverse()
    return needed


def compute_dga(front: FrontDiagram, ring: str = F2) -> DGA:
    """DGA of a simple front (all right cusps east of everything else).

    One west-to-east pass holds, per slot pair, the corner words of the
    partial disks on it, and reads each generator's differential off its own
    pair.  A corner on the upper arc is prepended to the word, and one on the
    lower arc appended; no word held west of a crossing contains it, so each
    merge is a disjoint union.  The ring enters only over ZT: as the sign of
    an upper-arc corner of even parity, and as t^-1 at the base cusp.  After
    each crossing the words held are counted against `cap`, twice the number
    of events times the number of slots.  Over the cap, the pairs no
    generator to the east reads are dropped, and a pass still over it raises
    RuntimeError("disk sweep for <crossing> exceeded <cap> states per
    slice").  Both rings suit every knot front: its modulus |up - down cusps|
    is even, as up + down = 2 * #(left cusps).
    """
    last_non_r = max((k for k, e in enumerate(front.events) if e.kind != "R"),
                     default=-1)
    first_r = next((k for k, e in enumerate(front.events) if e.kind == "R"), None)
    if first_r is not None and first_r < last_non_r:
        raise ValueError("front is not simple: a right cusp sits left of another event")

    table = maslov_grading(front)
    cap = 2 * len(front.events) * front.n_slots
    # disks[u][l]: word -> coefficient for the partial disks on slots u < l
    disks: list[dict[int, dict[Word, int]]] = [{} for _ in range(front.n_slots + 1)]
    held = 0  # words in disks
    needed = None
    differential: dict[str, NcPoly] = {}
    for k, e in enumerate(front.events):
        a, b = e.slots
        upper_a = disks[a]
        if e.kind == "L":
            upper_a[b] = {(): 1}
            held += 1
            continue
        words = upper_a.pop(b, {})
        held -= len(words)
        terms = [(w, 0, c) for w, c in words.items()]
        if e.kind == "R":  # the cusp's own disk: 1, or t^-1 at the base point over ZT
            terms.append(((), -1 if ring == ZT and e.name == front.base_cusp else 0, 1))
            differential[e.name] = _poly(ring, terms)
            continue
        differential[e.name] = _poly(ring, terms)
        x = (e.name,)
        # of the 16 sign rules keyed by (arc, parity) exactly two give d^2 = 0
        # over Z[t,t^-1]: this one (upper arc, even parity) and its pointwise
        # negation, which differ by a diagonal change; this one reproduces the
        # bundled 23-generator data up to diagonal equivalence
        sign = -1 if ring == ZT and table.grading[e.name] % 2 == 0 else 1
        for s in range(1, a):
            # lower arc on a or b: (s, b) slides from (s, a), and (s, a)
            # slides from (s, b) or turns a corner at x
            row = disks[s]
            if not row:
                continue
            west_a = row.pop(a, None)
            west_b = row.pop(b, None)
            if west_a:
                row[b] = west_a
                acc = row[a] = west_b or {}
                for w, c in west_a.items():
                    acc[w + x] = c
                held += len(west_a)
            elif west_b:
                row[a] = west_b
        # upper arc on a or b: (a, s) slides from (b, s), and (b, s) slides
        # from (a, s) or turns a corner at x
        upper_b = disks[b]
        disks[a], disks[b] = upper_b, upper_a
        for s, west_b in upper_b.items():
            acc = upper_a.setdefault(s, {})
            for w, c in west_b.items():
                acc[x + w] = sign * c
            held += len(west_b)
        if held > cap:
            if needed is None:
                needed = _needed_pairs(front)
            for u, row in enumerate(disks):
                for l in [l for l in row if (u, l) not in needed[k]]:
                    held -= len(row.pop(l))
            if held > cap:
                raise RuntimeError(
                    f"disk sweep for {e.name} exceeded {cap} states per slice")

    pres = GradedPresentation(front.generator_names, dict(table.grading),
                              ring, table.modulus)
    return DGA(pres, differential)


def check_d_squared(dga: DGA) -> Optional[tuple[str, NcPoly]]:
    """None if d**2 = 0, else the first failing generator and its residual."""
    derive = dga.derivation()
    for g in dga.presentation.generators:
        res = derive(dga.differential[g])
        if not res.is_zero():
            return (g, res)
    return None


def check_homogeneous(dga: DGA) -> Optional[tuple[str, Word]]:
    """None if every differential is homogeneous of degree -1, else the
    first generator whose differential is not, with its first off-degree word."""
    pres = dga.presentation
    for g in pres.generators:
        w = pres.off_degree(dga.differential[g], pres.grading[g] - 1)
        if w is not None:
            return (g, w)
    return None


def specialize_dga(dga: DGA) -> DGA:
    """Reduce a ZT DGA to F2: t = 1 and coefficients mod 2."""
    pres = dga.presentation
    new_pres = GradedPresentation(pres.generators, dict(pres.grading), F2, pres.modulus)
    diff = {g: specialize(p) for g, p in dga.differential.items()}
    return DGA(new_pres, diff)


# ---- serialization ----

def serialize(dga: DGA) -> str:
    pres = dga.presentation
    lines = [f"ring {pres.ring}"]
    if pres.modulus:
        lines.append(f"mod {pres.modulus}")
    for g in pres.generators:
        lines.append(f"gen {g} {pres.degree_of(g)}")
    for g in pres.generators:
        p = dga.differential[g]
        if not p.is_zero():
            lines.append(f"d {g} = {p.render()}")
    return "\n".join(lines) + "\n"


# field count of each directive (`d x1 = p` splits in three) and its form
_DIRECTIVES = {
    "ring": (2, "ring <F2|ZT>"),
    "mod": (2, "mod <modulus>"),
    "gen": (3, "gen <name> <degree>"),
    "d": (3, "d <name> = <poly>"),
}


def deserialize(text: str) -> DGA:
    ring = None
    modulus = 0
    seen_mod = False
    grading: dict[str, int] = {}  # the generators in file order, with degrees
    diff: dict[str, NcPoly] = {}
    for ln, line in content_lines(text):
        parts = line.split(None, 2)
        head = parts[0]
        try:
            if head not in _DIRECTIVES:
                raise ValueError(f"unknown directive {head!r}")
            arity, form = _DIRECTIVES[head]
            if len(parts) != arity:
                raise ValueError(f"expected '{form}', got {line!r}")
            if head != "ring" and ring is None:
                raise ValueError(f"{head} before ring")
            if head == "ring":
                if ring is not None:
                    raise ValueError("duplicate ring line")
                ring = parts[1]
                _check_ring(ring)
            elif head == "mod":
                if seen_mod:
                    raise ValueError("duplicate mod line")
                seen_mod = True
                modulus = int(parts[1])
                if modulus < 0:
                    raise ValueError(f"negative modulus {modulus}")
                if ring == ZT and modulus % 2:
                    raise ValueError(f"ring ZT needs an even modulus, got {modulus}")
            elif head == "gen":
                name, g = parts[1], int(parts[2])
                if name in grading:
                    raise ValueError(f"duplicate generator {name}")
                grading[name] = g
            else:
                name, rest = parts[1], parts[2]
                if not rest.startswith("="):
                    raise ValueError("expected '=' after generator name")
                if name not in grading:
                    raise ValueError(f"differential for unknown generator {name}")
                if name in diff:
                    raise ValueError(f"duplicate differential for {name}")
                poly = parse(rest[1:].strip(), ring)
                # the first unknown name in word order, whatever the hash seed
                unknown = next((u for w in poly.terms for u in w if u not in grading), None)
                if unknown is not None:
                    raise ValueError(f"unknown generator {unknown} in d {name}")
                diff[name] = poly
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if ring is None:
        raise ValueError("missing ring line")
    for g in grading:
        if g not in diff:
            diff[g] = NcPoly.zero(ring)
    pres = GradedPresentation(tuple(grading), grading, ring, modulus)
    return DGA(pres, diff)


# ---- diagonal equivalence over ZT ----

def _apply_tau(coef: Coef, s: int, dexp: int) -> Coef:
    # t^e -> (s*t^dexp)^e = s^e * t^(dexp*e), with s in {1,-1}
    out: Coef = {}
    for e, c in coef.items():
        if s == -1 and e % 2:
            c = -c
        out[dexp * e] = out.get(dexp * e, 0) + c
    return {e: c for e, c in out.items() if c}


def _solve_gf2(rows: list[tuple[int, int]]) -> Optional[int]:
    """Solve equations parity(vec & e) = bit over GF(2), each vec a bitmask
    over the variables; one solution e as a bitmask, or None if inconsistent."""
    pivots: dict[int, tuple[int, int]] = {}
    for vec, bit in rows:
        while vec:
            p = vec.bit_length() - 1
            if p not in pivots:
                pivots[p] = (vec, bit)
                break
            pv, pb = pivots[p]
            vec ^= pv
            bit ^= pb
        if vec == 0 and bit:
            return None
    sol = 0
    for p in sorted(pivots):
        vec, bit = pivots[p]
        sol |= (bit ^ ((vec & sol).bit_count() & 1)) << p
    return sol


def dga_diag_equivalent(g1: DGA, g2: DGA):
    """Witness (eps, tau) with x_i -> eps_i x_i, t -> tau carrying d1 to d2.

    tau ranges over t, t^-1, -t, -t^-1; eps over sign vectors, found by
    linear algebra over GF(2) instead of trying all 2^n of them.
    Returns None when no diagonal equivalence exists.
    """
    p1, p2 = g1.presentation, g2.presentation
    if p1.ring != ZT or p2.ring != ZT:
        raise ValueError("diagonal equivalence is defined over ZT")
    if p1.generators != p2.generators:
        return None
    if p1.grading != p2.grading or p1.modulus != p2.modulus:
        return None
    gens = list(p1.generators)
    bit_of = {g: 1 << i for i, g in enumerate(gens)}
    for s, dexp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        rows: list[tuple[int, int]] = []
        ok = True
        for g in gens:
            t1, t2 = g1.differential[g].terms, g2.differential[g].terms
            if set(t1) != set(t2):
                ok = False
                break
            for w, coef in t1.items():
                moved = _apply_tau(coef, s, dexp)
                target = t2[w]
                if moved == target:
                    bit = 0
                elif moved == {e: -c for e, c in target.items()}:
                    bit = 1
                else:
                    ok = False
                    break
                support = bit_of[g]
                for letter in w:
                    support ^= bit_of[letter]
                rows.append((support, bit))
            if not ok:
                break
        if not ok:
            continue
        sol = _solve_gf2(rows)
        if sol is None:
            continue
        eps = {g: -1 if sol & bit_of[g] else 1 for g in gens}
        tau = ("-" if s < 0 else "") + ("t" if dexp == 1 else "t^-1")
        return eps, tau
    return None


# ---- torus knot fronts T(p,-q) ----

@record
class TorusLabeling(NamedTuple):
    x: dict[tuple[int, int], str]  # left-half crossings x_{ij}, i < j
    y: dict[tuple[int, int], str]  # right-half crossings y_{ij}
    z: dict[int, str]  # right cusps z_i


def torus_front(p: int, q: int) -> tuple[FrontDiagram, TorusLabeling]:
    """Front for the maximal-tb torus knot T(p,-q), q > p >= 3, gcd = 1.

    Eastern half: q right cusps stacked top to bottom, upper strands v_i,
    lower strands m_i, with m_i climbing past v_{i+1}..v_{i+p-1} (crossings
    y_{ij} = m_i x v_j).  Western half: p outer left cusps whose branches
    fan out (crossings x_{ij}), plus q-p inner left cusps joining m_i to
    v_{p+i}.
    """
    if not (q > p >= 3):
        raise ValueError(f"need q > p >= 3, got p={p} q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"need gcd(p,q) = 1, got p={p} q={q}")
    n_slots = 2 * q
    strand_at: dict[int, tuple[str, int]] = {}
    slot_of: dict[tuple[str, int], int] = {}  # inverse of strand_at
    events: list[tuple[str, tuple[int, int]]] = []
    # each label's event index; the front names the events
    xlab: dict[tuple[int, int], int] = {}
    ylab: dict[tuple[int, int], int] = {}
    zlab: dict[int, int] = {}

    def place(s: int, strand: tuple[str, int]) -> None:
        strand_at[s] = strand
        slot_of[strand] = s

    def cross(a: int, b: int) -> int:
        events.append(("X", (a, b)))
        sa, sb = strand_at[a], strand_at[b]
        place(a, sb)
        place(b, sa)
        return len(events) - 1

    # outer left cusps: upper branch is v_k, lower branch is m_{q-p+k}
    outer = sorted(set(range(1, p + 1)) | set(range(2 * q - p + 1, 2 * q + 1)))
    for k in range(1, p + 1):
        a, b = outer[2 * k - 2], outer[2 * k - 1]
        events.append(("L", (a, b)))
        place(a, ("v", k))
        place(b, ("m", q - p + k))
    # fan: v_j climbs past the lower branches above it
    for j in range(2, p + 1):
        for i in range(j - 1, 0, -1):
            xlab[(i, j)] = cross(slot_of[("m", q - p + i)], slot_of[("v", j)])
    # inner left cusps
    for i in range(1, q - p + 1):
        a, b = p + 2 * i - 1, p + 2 * i
        events.append(("L", (a, b)))
        place(a, ("m", i))
        place(b, ("v", p + i))
    # staircase: m_i climbs past v_{i+p-1} .. v_{i+1} to sit just below v_i,
    # reading the strand above before cross swaps it; slots 2i - 1, 2i end as v_i, m_i
    for i in range(1, q + 1):
        s = slot_of[("m", i)]
        while (above := strand_at[s - 1]) != ("v", i):
            ylab[(i, above[1])] = cross(s - 1, s)
            s -= 1
    # right cusps top to bottom
    for i in range(1, q + 1):
        zlab[i] = len(events)
        events.append(("R", (2 * i - 1, 2 * i)))
    front = FrontDiagram(n_slots, events)
    return front, TorusLabeling(*({k: front.events[j].name for k, j in lab.items()}
                                  for lab in (xlab, ylab, zlab)))


def torus_dga(p: int, q: int) -> tuple[FrontDiagram, DGA, TorusLabeling]:
    front, labeling = torus_front(p, q)
    return front, compute_dga(front, F2), labeling
