"""Differential graded algebras of simple fronts by admissible-disk counting.

The differential of a generator sweeps right to left from its event.  A
disk state is the pair of slots its boundary occupies in the current
column plus the negative corners collected so far on each boundary arc.
At a crossing touching an endpoint the state either slides through or
turns a convex corner; at a left cusp joining exactly the two endpoint
slots it closes.  Every admissible embedded disk boundary is x-monotone
on both arcs, so this interval sweep enumerates all of them.

An event that touches neither slot of a state leaves it as it is, so each
state is filed under the next event to the west that touches one of its
slots, and the sweep visits only those events.  Each successor state is
filed as it is made.  The cap on states, the number of events times the
number of slots, still counts every partial disk that spans a column,
filed or not, and is checked after each visited event.

The corner word is read counterclockwise from the positive corner: upper
arc east to west, then lower arc west to east.  Over Z[t,t^-1] a negative
corner flips the sign exactly when it sits on the upper arc at a crossing
of even grading parity.  The rule is pinned by requiring d^2 = 0 over
Z[t,t^-1] on the bundled fronts and on random plats; the remaining freedom
is a diagonal change of variables and does not affect any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .freealg import (
    F2,
    ZT,
    Coef,
    GradedPresentation,
    GradingError,
    NcPoly,
    Word,
    parse,
    signed_derivation,
    specialize,
)
from .plat import Event, FrontDiagram, maslov_grading


@dataclass
class DGA:
    presentation: GradedPresentation
    differential: dict[str, NcPoly]

    def d(self, name: str) -> NcPoly:
        return self.differential[name]

    def derivation(self):
        return signed_derivation(self.presentation, self.differential)


def _sweep_generator(front: FrontDiagram, j: int, ring: str,
                     parity: dict[str, int], cap: int,
                     touch: list[list[int]]) -> NcPoly:
    """Sum of corner words of disks whose positive corner is event j.

    `touch[k][s]` is the last event west of event k with slot s among its
    slots, or -1.  Each successor state is filed as it is made, under the
    next event west that touches one of its slots.  `live` counts the
    partial disks that span the column west of the last visited event.  Only
    a visited event changes that count, so checking it against `cap` after
    each visited event refuses exactly where a column-by-column sweep would.
    """
    ev = front.events[j]
    acc: dict[Word, Coef] = {}
    # state = (upper slot, lower slot, upper-arc corners, lower-arc corners, sign)
    u, l = ev.slots
    west = touch[j]
    # buckets[k] holds the partial disks waiting on event k; those no event
    # west touches go under -1, that is into buckets[j], which is never taken
    buckets: list[list] = [[] for _ in range(j + 1)]
    buckets[max(west[u], west[l])].append((u, l, (), (), 1))
    live = 1
    for k in range(j - 1, -1, -1):
        states = buckets[k]
        if not states:
            continue
        e = front.events[k]
        a, b = e.slots
        west = touch[k]
        wa, wb = west[a], west[b]
        born = 0
        # a state is filed here only if e touches one of its slots, and
        # compute_dga refuses a right cusp west of another event: e is X or L
        if e.kind == "X":
            name = e.name
            # of the 16 sign rules keyed by (arc, parity) exactly two give
            # d^2 = 0 over Z[t,t^-1]: this one (upper arc, even parity) and
            # its pointwise negation, which differ by a diagonal change; this
            # one reproduces the bundled 23-generator data up to diagonal
            # equivalence
            flip = ring == ZT and parity[name] == 0
            for u, l, up, lo, sg in states:
                if a == u:
                    if b == l:
                        continue  # the disk would pinch shut; not admissible
                    wl = west[l]
                    buckets[wb if wb > wl else wl].append((b, l, up, lo, sg))
                    born += 1
                elif b == u:
                    wl = west[l]
                    buckets[wa if wa > wl else wl].append((a, l, up, lo, sg))  # slide first
                    buckets[wb if wb > wl else wl].append(
                        (u, l, up + (name,), lo, -sg if flip else sg))
                    born += 2
                elif a == l:
                    wu = west[u]
                    buckets[wu if wu > wb else wb].append((u, b, up, lo, sg))
                    buckets[wu if wu > wa else wa].append((u, l, up, lo + (name,), sg))
                    born += 2
                else:  # b == l
                    wu = west[u]
                    buckets[wu if wu > wa else wa].append((u, a, up, lo, sg))
                    born += 1
        else:
            # a left cusp closes the disk joining exactly its two slots; a
            # boundary arc meeting it anywhere else would have to double back
            for u, l, up, lo, sg in states:
                if a == u and b == l:
                    word = up + tuple(reversed(lo))
                    slot = acc.setdefault(word, {})
                    slot[0] = slot.get(0, 0) + sg
        live += born - len(states)
        if live > cap:
            raise RuntimeError(
                f"disk sweep for {ev.name} exceeded {cap} states per slice"
            )
    if live:
        raise RuntimeError(f"disk sweep for {ev.name} left {live} open states")
    if ev.kind == "R":  # the cusp's own disk: 1, or t^-1 at the base point over ZT
        exp = -1 if ring == ZT and ev.name == front.base_cusp else 0
        slot = acc.setdefault((), {})
        slot[exp] = slot.get(exp, 0) + 1
    return NcPoly(ring, acc)


def compute_dga(front: FrontDiagram, ring: str = F2) -> DGA:
    """DGA of a simple front (all right cusps east of everything else)."""
    last_non_r = max((k for k, e in enumerate(front.events) if e.kind != "R"),
                     default=-1)
    first_r = next((k for k, e in enumerate(front.events) if e.kind == "R"), None)
    if first_r is not None and first_r < last_non_r:
        raise ValueError("front is not simple: a right cusp sits left of another event")

    table = maslov_grading(front)
    if ring == ZT and table.modulus % 2:
        raise GradingError("ZT signs need a Z or even-modulus grading")
    parity = {g: v % 2 for g, v in table.grading.items()}
    cap = len(front.events) * front.n_slots
    touch: list[list[int]] = []
    row = [-1] * (front.n_slots + 1)
    for k, e in enumerate(front.events):
        touch.append(row)
        row = row.copy()
        row[e.slots[0]] = row[e.slots[1]] = k

    differential: dict[str, NcPoly] = {}
    for k, e in enumerate(front.events):
        if e.kind != "L":
            differential[e.name] = _sweep_generator(front, k, ring, parity, cap, touch)

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
    """None if every differential is homogeneous of degree -1."""
    pres = dga.presentation
    m = pres.modulus
    for g in pres.generators:
        want = pres.degree_of(g) - 1
        if m:
            want %= m
        for w in dga.differential[g].terms:
            if pres.word_degree(w) != want:
                return (g, w)
    return None


def specialize_dga(dga: DGA) -> DGA:
    """Reduce a ZT DGA to F2: t = 1 and coefficients mod 2."""
    pres = dga.presentation
    new_pres = GradedPresentation(pres.generators,
                                  dict(pres.grading) if pres.grading else None,
                                  F2, pres.modulus)
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
    gens: list[str] = []
    grading: dict[str, int] = {}
    diff: dict[str, NcPoly] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
                if ring not in (F2, ZT):
                    raise ValueError(f"unknown ring {ring!r}")
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
                gens.append(name)
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
                for u in poly.generators():
                    if u not in grading:
                        raise ValueError(f"unknown generator {u} in d {name}")
                diff[name] = poly
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from None
    if ring is None:
        raise ValueError("missing ring line")
    for g in gens:
        if g not in diff:
            diff[g] = NcPoly.zero(ring)
    pres = GradedPresentation(tuple(gens), grading, ring, modulus)
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
    if (p1.grading or {}) != (p2.grading or {}) or p1.modulus != p2.modulus:
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

@dataclass(frozen=True)
class TorusLabeling:
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
    events: list[Event] = []
    xlab: dict[tuple[int, int], str] = {}
    ylab: dict[tuple[int, int], str] = {}
    zlab: dict[int, str] = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"x{counter}"

    def slot_of(strand: tuple[str, int]) -> int:
        for s, st in strand_at.items():
            if st == strand:
                return s
        raise KeyError(strand)

    # outer left cusps: upper branch is v_k, lower branch is m_{q-p+k}
    outer = sorted(set(range(1, p + 1)) | set(range(2 * q - p + 1, 2 * q + 1)))
    for k in range(1, p + 1):
        a, b = outer[2 * k - 2], outer[2 * k - 1]
        events.append(Event("L", (a, b)))
        strand_at[a] = ("v", k)
        strand_at[b] = ("m", q - p + k)
    # fan: v_j climbs past the lower branches above it
    for j in range(2, p + 1):
        for i in range(j - 1, 0, -1):
            a = slot_of(("m", q - p + i))
            b = slot_of(("v", j))
            name = fresh()
            events.append(Event("X", (a, b), name=name))
            xlab[(i, j)] = name
            strand_at[a], strand_at[b] = strand_at[b], strand_at[a]
    # inner left cusps
    for i in range(1, q - p + 1):
        a, b = p + 2 * i - 1, p + 2 * i
        events.append(Event("L", (a, b)))
        strand_at[a] = ("m", i)
        strand_at[b] = ("v", p + i)
    # staircase: m_i climbs to sit just below v_i
    for i in range(1, q + 1):
        while True:
            s = slot_of(("m", i))
            above = strand_at[s - 1]
            if above == ("v", i):
                break
            kind, j = above
            if kind != "v" or j <= i:
                raise RuntimeError(f"torus staircase met {above} above m_{i}")
            name = fresh()
            events.append(Event("X", (s - 1, s), name=name))
            ylab[(i, j)] = name
            strand_at[s - 1], strand_at[s] = strand_at[s], strand_at[s - 1]
    # right cusps top to bottom
    ncross = counter
    for i in range(1, q + 1):
        if strand_at[2 * i - 1] != ("v", i) or strand_at[2 * i] != ("m", i):
            raise RuntimeError(f"torus right cusp {i} does not join v_{i} and m_{i}")
        name = fresh()
        events.append(Event("R", (2 * i - 1, 2 * i), name=name))
        zlab[i] = name
    if ncross != q * (p - 1):
        raise RuntimeError(f"torus front has {ncross} crossings, expected {q * (p - 1)}")
    front = FrontDiagram(n_slots, events)
    return front, TorusLabeling(xlab, ylab, zlab)


def torus_dga(p: int, q: int) -> tuple[FrontDiagram, DGA, TorusLabeling]:
    front, labeling = torus_front(p, q)
    return front, compute_dga(front, F2), labeling
