"""The Jones polynomial of a front by a Kauffman-bracket sweep, as an oracle.

It reads only a front's event list, and takes the writhe from the segment
walk in `oracles`, so it shares no code with `lch.plat` or `lch.dga`.  A
smooth invariant checks what tb and r cannot: that a plat word or
`torus_front` gives the knot type it is named for.

The sweep goes west to east.  Its state is the planar matching of the live
slots (partner[s] is the slot joined to s, 0 when s is dead), carrying a
Laurent polynomial in A as a dict of exponent -> coefficient.

- A left cusp pairs its two slots.
- At a crossing the strands pass (weight A) or turn back (weight A^-1).
  Turning back joins the two west partners and pairs the crossing's slots.
  In a front the strand going down to the east is the over strand, so the
  one rule holds at every crossing.
- A right cusp joins its two slots' partners.
- Each closed loop multiplies by delta = -A^2 - A^-2.

Then V(t) = (-A^3)^(-w) <K> / delta at t = A^-4, where w is the writhe.
"""

from __future__ import annotations

from oracles import segment_walk

Laurent = dict[int, int]
DELTA: Laurent = {2: -1, -2: -1}


def mul(f: Laurent, g: Laurent) -> Laurent:
    out: Laurent = {}
    for e, c in f.items():
        for e2, c2 in g.items():
            out[e + e2] = out.get(e + e2, 0) + c * c2
    return {e: c for e, c in out.items() if c}


def divide(num: Laurent, den: Laurent) -> Laurent:
    """num / den, lowest terms first; raises unless it divides exactly.

    The lowest coefficient of den must be 1 or -1, as it is for delta and 1 - t^2.
    """
    low = min(den)
    rest, quotient = dict(num), {}
    top = max(num, default=0)
    while rest:
        e = min(rest)
        if e > top:
            raise ValueError("the division is not exact")
        c = rest[e] * den[low]
        quotient[e - low] = c
        for e2, c2 in den.items():
            k = e - low + e2
            rest[k] = rest.get(k, 0) - c * c2
            if not rest[k]:
                del rest[k]
    return quotient


def kauffman_bracket(events) -> Laurent:
    """The state sum over every smoothing; each loop, the last one too, counts delta."""
    size = 1 + max((ev.slots[1] for ev in events), default=0)
    states: dict[tuple[int, ...], Laurent] = {(0,) * size: {0: 1}}
    for ev in events:
        c, d = ev.slots
        nxt: dict[tuple[int, ...], Laurent] = {}

        def add(partner: list[int], poly: Laurent) -> None:
            key = tuple(partner)
            acc = nxt.setdefault(key, {})
            for e, k in poly.items():
                acc[e] = acc.get(e, 0) + k

        for state, poly in states.items():
            partner = list(state)
            a, b = partner[c], partner[d]
            if ev.kind == "L":
                partner[c], partner[d] = d, c
                add(partner, poly)
            elif ev.kind == "X":
                add(partner, mul(poly, {1: 1}))
                if a == d:
                    add(partner, mul(poly, {-3: -1, 1: -1}))
                else:
                    partner[a], partner[b] = b, a
                    partner[c], partner[d] = d, c
                    add(partner, mul(poly, {-1: 1}))
            else:
                partner[c] = partner[d] = 0
                if a == d:
                    add(partner, mul(poly, DELTA))
                else:
                    partner[a], partner[b] = b, a
                    add(partner, poly)
        states = {k: p for k, p in nxt.items() if any(p.values())}
    return {e: c for e, c in states.get((0,) * size, {}).items() if c}


def writhe(events) -> int:
    n_slots = max(ev.slots[1] for ev in events)
    return sum(segment_walk(events, n_slots).crossing_signs.values())


def jones_polynomial(events) -> Laurent:
    """V(t) as a dict of t-exponent -> coefficient."""
    w = writhe(events)
    v = mul(divide(kauffman_bracket(events), DELTA), {-3 * w: -1 if w % 2 else 1})
    if any(e % 4 for e in v):
        raise ValueError(f"A-exponents {sorted(v)} are not multiples of 4")
    return {-e // 4: c for e, c in v.items()}
