"""Front diagrams of Legendrian knots built from plat braid words.

Slots are horizontal levels numbered 1 (top) to n_slots (bottom).  An event
is a left cusp (two dead slots become live), a crossing of two live slots
with no live slot between them, or a right cusp (two such slots die).  A
plat on 2n strands opens with n left cusps pairing (1,2),(3,4),... , runs
its braid letters (letter k crosses slots k,k+1), and closes with n right
cusps pairing the same slots.

`FrontDiagram` names every generator, and nothing else does: the k-th
crossing or right cusp in event order is x<k>.  On a plat that is the
crossings in word order, then the right cusps top to bottom.

Orientation comes from walking the knot east from the upper branch of the
first left cusp.  The walk, `FrontDiagram.traversal`, goes piece by piece: a
piece is a strand between two events, named by its west event and its slot.
It goes on to every other component and refuses a closure with more than
one, so invariants and gradings are only ever computed for knots.

A crossing counts +1 toward the writhe when its two strands point the same
way (both east or both west), -1 otherwise.  A cusp is a down cusp when the
walk enters it along the upper branch.  Then tb = writhe - #(right cusps)
and r = (down - up)/2.

The Maslov potential drops by 1 moving through a cusp from the upper
branch to the lower branch.  Around the knot it drifts by 2r, so gradings
live in Z when r = 0 and in Z/|2r| otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple


class Event(NamedTuple):
    kind: str  # "L", "X", "R"
    slots: tuple[int, int]  # (upper, lower), upper < lower
    name: str | None  # generator name of an X or R, None for an L


@dataclass(frozen=True)
class PlatWord:
    strand_count: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strand_count < 2 or self.strand_count % 2:
            raise ValueError(f"strand count must be even and >= 2, got {self.strand_count}")
        for k in self.letters:
            if not 1 <= k <= self.strand_count - 1:
                raise ValueError(f"letter {k} out of range 1..{self.strand_count - 1}")


def parse_plat(text: str, strand_count: int) -> PlatWord:
    """Parse a comma-separated braid word; empty text means the empty word."""
    stripped = text.strip()
    if not stripped:
        letters: tuple[int, ...] = ()
    else:
        try:
            letters = tuple(int(tok) for tok in stripped.split(","))
        except ValueError as exc:
            raise ValueError(f"bad braid word {text!r}: {exc}") from None
    return PlatWord(strand_count, letters)


@dataclass(frozen=True)
class Traversal:
    crossing_signs: dict[str, int]
    down_cusps: int
    up_cusps: int
    # per crossing: the Maslov potential of its upper west strand minus that
    # of its lower west strand
    potential: dict[str, int]
    drift: int  # potential change after one full loop


@dataclass(frozen=True)
class GradingTable:
    grading: dict[str, int]
    modulus: int  # 0 means Z-graded


class FrontDiagram:
    """Validated, named events plus the traversal data derived from them.

    `events` are (kind, (upper, lower)) pairs, west to east, with kind "L",
    "X" or "R"; a named Event is refused, since the names are made here.  One pass checks each one's kind, its slot order and the live
    slots it meets, and names the k-th crossing or right cusp x<k>: the
    names every DGA, grading and labeling of the front reads.
    """

    def __init__(self, n_slots: int, events: Iterable[tuple[str, tuple[int, int]]],
                 base_cusp: str | None = None):
        self.n_slots = n_slots
        built: list[Event] = []
        crossings: list[str] = []
        cusps: list[str] = []
        live: set[int] = set()
        for event in events:
            if len(event) != 2:
                raise ValueError(f"events are (kind, slots) pairs, got {event!r}: "
                                 "FrontDiagram names crossings and right cusps itself")
            kind, (c, d) = event
            if kind == "L":
                name = None
            elif kind == "X" or kind == "R":
                name = f"x{len(crossings) + len(cusps) + 1}"
            else:
                raise ValueError(f"unknown event kind {kind!r}")
            ev = Event(kind, (c, d), name)
            if not c < d:
                raise ValueError(f"event slots must be (upper, lower), got {ev.slots}")
            if c < 1:
                raise ValueError(f"slot {c} below 1")
            if d > n_slots:
                raise ValueError(f"slot {d} beyond n_slots={n_slots}")
            between = [s for s in range(c + 1, d) if s in live]
            if between:
                raise ValueError(f"{ev} straddles live slots {between}")
            if kind == "L":
                if c in live or d in live:
                    raise ValueError(f"{ev} opens already-live slots")
                live |= {c, d}
            elif c not in live or d not in live:
                raise ValueError(f"{ev} touches dead slots")
            elif kind == "X":
                crossings.append(name)
            else:
                cusps.append(name)
                live -= {c, d}
            built.append(ev)
        if live:
            raise ValueError(f"slots {sorted(live)} never close")
        self.events = tuple(built)
        self.crossing_names = tuple(crossings)
        self.cusp_names = tuple(cusps)
        self.generator_names: tuple[str, ...] = self.crossing_names + self.cusp_names
        if base_cusp is None and self.cusp_names:
            base_cusp = self.cusp_names[-1]
        if base_cusp is not None and base_cusp not in self.cusp_names:
            raise ValueError(f"base point cusp {base_cusp!r} is not a right cusp")
        self.base_cusp = base_cusp

    @cached_property
    def traversal(self) -> Traversal:
        """Walk every component piece by piece, east from its first unvisited piece.

        Event j has a port on each of its slots, 2j on the upper and 2j + 1
        on the lower, and a piece is named by the port of its west event.
        Pieces are taken in event order, upper first, so the first walk
        starts east from the upper branch of the first left cusp.  Raises
        unless the closure is a knot.
        """
        events = self.events
        kinds = [ev.kind for ev in events]
        # east_end[p] is the port where piece p meets its east event, and
        # west_end[port] the piece that meets that port
        east_end = [0] * (2 * len(events))
        west_end = [0] * (2 * len(events))
        on: dict[int, int] = {}  # slot -> the piece now on it
        for j, ev in enumerate(events):
            c, d = ev.slots
            if ev.kind != "L":
                p, q = on[c], on[d]
                west_end[2 * j], west_end[2 * j + 1] = p, q
                east_end[p], east_end[q] = 2 * j, 2 * j + 1
            if ev.kind != "R":
                on[c], on[d] = 2 * j, 2 * j + 1
        heading = [0] * len(east_end)  # +1 east, -1 west, 0 not walked
        potential = [0] * len(east_end)
        down = up = components = drift = 0
        for start in range(len(east_end)):
            if heading[start] or kinds[start >> 1] == "R":
                continue
            components += 1
            # a validated front's pieces form disjoint circles: each walk ends back at start
            piece, di, pot = start, 1, 0
            while not heading[piece]:
                heading[piece] = di
                potential[piece] = pot
                if di == 1:
                    port = east_end[piece]
                    if kinds[port >> 1] == "X":
                        piece = port ^ 1
                        continue
                    # a right cusp turns west onto its other branch
                    lower = not port & 1
                    piece, di = west_end[port ^ 1], -1
                else:
                    if kinds[piece >> 1] == "X":
                        piece = west_end[piece ^ 1]
                        continue
                    # a left cusp turns east onto its other branch
                    lower = not piece & 1
                    piece, di = piece ^ 1, 1
                # turning onto the lower branch is a down cusp
                if lower:
                    down += 1
                    pot -= 1
                else:
                    up += 1
                    pot += 1
            drift = pot
        if components != 1:
            raise ValueError(f"closure has {components} components, need a knot")
        signs: dict[str, int] = {}
        differences: dict[str, int] = {}
        for j, ev in enumerate(events):
            if ev.kind == "X":
                p, q = west_end[2 * j], west_end[2 * j + 1]
                signs[ev.name] = 1 if heading[p] == heading[q] else -1
                differences[ev.name] = potential[p] - potential[q]
        return Traversal(signs, down, up, differences, drift)


def build_front(word: PlatWord, base_cusp: str | None = None) -> FrontDiagram:
    """Plat-closed front: n left cusps, the braid letters, n right cusps."""
    cusps = [(2 * i - 1, 2 * i) for i in range(1, word.strand_count // 2 + 1)]
    events = ([("L", slots) for slots in cusps] + [("X", (k, k + 1)) for k in word.letters]
              + [("R", slots) for slots in cusps])
    front = FrontDiagram(word.strand_count, events, base_cusp)
    front.traversal  # raises unless the closure is a knot
    return front


def classical_invariants(front: FrontDiagram) -> tuple[int, int]:
    tr = front.traversal
    writhe = sum(tr.crossing_signs.values())
    tb = writhe - len(front.cusp_names)
    return tb, (tr.down_cusps - tr.up_cusps) // 2


def maslov_grading(front: FrontDiagram) -> GradingTable:
    tr = front.traversal
    modulus = abs(tr.drift)
    grading: dict[str, int] = {}
    for ev in front.events:
        if ev.kind == "X":
            # potential(upper west strand) - potential(lower west strand), with
            # the sign pinned by the known odd-grading set of the 23-generator
            # bundled knot and by degree -1 homogeneity of both appendices
            g = tr.potential[ev.name]
            grading[ev.name] = g % modulus if modulus else g
        elif ev.kind == "R":
            grading[ev.name] = 1  # already reduced: the modulus is 0 or even
    return GradingTable(grading, modulus)
