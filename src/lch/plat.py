"""Front diagrams of Legendrian knots built from plat braid words.

Slots are horizontal levels numbered 1 (top) to n_slots (bottom).  An event
is a left cusp (two dead slots become live), a crossing of two live slots
with no live slot between them, or a right cusp (two such slots die).  A
plat on 2n strands opens with n left cusps pairing (1,2),(3,4),... , runs
its braid letters (letter k crosses slots k,k+1), and closes with n right
cusps pairing the same slots.

Generators are named x1..xm for the crossings in word order, continuing
with the right cusps top to bottom.

Orientation comes from walking the knot starting east along the first
segment of the topmost slot.  That walk, `FrontDiagram.traversal`, goes on
to every other component and refuses a closure with more than one, so
invariants and gradings are only ever computed for knots.  A crossing counts +1 toward the writhe when
its two strands point the same way (both east or both west), -1 otherwise.
A cusp is a down cusp when the walk enters it along the upper branch.
Then tb = writhe - #(right cusps) and r = (down - up)/2.

The Maslov potential drops by 1 moving through a cusp from the upper
branch to the lower branch.  Around the knot it drifts by 2r, so gradings
live in Z when r = 0 and in Z/|2r| otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# crossing grading = this sign times (potential(upper west strand) -
# potential(lower west strand)); pinned by the known odd-grading set of the
# 23-generator bundled knot and by degree -1 homogeneity of both appendices
CROSSING_GRADING_SIGN = 1

Segment = tuple[int, int]  # (column, slot)


@dataclass(frozen=True)
class Event:
    kind: str  # "L", "X", "R"
    slots: tuple[int, int]  # (upper, lower), upper < lower
    name: str | None = None  # generator name for X and R

    def __post_init__(self):
        if self.kind not in ("L", "X", "R"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        c, d = self.slots
        if not c < d:
            raise ValueError(f"event slots must be (upper, lower), got {self.slots}")


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
    potential: dict[Segment, int]
    drift: int  # potential change after one full loop


@dataclass(frozen=True)
class GradingTable:
    grading: dict[str, int]
    modulus: int  # 0 means Z-graded


class FrontDiagram:
    """Validated event list plus the traversal data derived from it."""

    def __init__(self, n_slots: int, events: list[Event],
                 base_cusp: str | None = None):
        self.n_slots = n_slots
        self.events = tuple(events)
        live: set[int] = set()
        # live_after[j] = live slots, top to bottom, between events j-1 and j
        live_after = [()]
        for ev in self.events:
            c, d = ev.slots
            if c < 1:
                raise ValueError(f"slot {c} below 1")
            if d > n_slots:
                raise ValueError(f"slot {d} beyond n_slots={n_slots}")
            between = {s for s in live if c < s < d}
            if between:
                raise ValueError(f"{ev} straddles live slots {sorted(between)}")
            if ev.kind == "L":
                if c in live or d in live:
                    raise ValueError(f"{ev} opens already-live slots")
                live |= {c, d}
            else:
                if c not in live or d not in live:
                    raise ValueError(f"{ev} touches dead slots")
                if ev.kind == "R":
                    live -= {c, d}
            live_after.append(tuple(sorted(live)))
        if live:
            raise ValueError(f"slots {sorted(live)} never close")
        self.live_after: tuple[tuple[int, ...], ...] = tuple(live_after)
        self.crossing_names = tuple(ev.name for ev in self.events if ev.kind == "X")
        self.cusp_names = tuple(ev.name for ev in self.events if ev.kind == "R")
        names = self.crossing_names + self.cusp_names
        if None in names or len(set(names)) != len(names):
            raise ValueError("crossings and right cusps need unique names")
        self.generator_names: tuple[str, ...] = names
        if base_cusp is None and self.cusp_names:
            base_cusp = self.cusp_names[-1]
        if base_cusp is not None and base_cusp not in self.cusp_names:
            raise ValueError(f"base point cusp {base_cusp!r} is not a right cusp")
        self.base_cusp = base_cusp

    @cached_property
    def traversal(self) -> Traversal:
        """Walk every component east from its first unvisited segment.

        Segments are taken left to right and top to bottom, so the first walk
        starts on the topmost slot's first segment.  Raises unless the closure
        is a knot.
        """
        heading: dict[Segment, int] = {}  # +1 east, -1 west
        potential: dict[Segment, int] = {}
        down = up = components = drift = 0
        for col, live in enumerate(self.live_after):
            for slot in live:
                if (col, slot) in heading:
                    continue
                components += 1
                start = dart = (col, slot, 1)
                pot = 0
                while True:
                    j, s, di = dart
                    if (j, s) in heading:
                        if dart != start:
                            raise ValueError(f"traversal self-collision at {(j, s)}")
                        break
                    heading[(j, s)] = di
                    potential[(j, s)] = pot
                    dart = self._step(dart)
                    # a turn is a cusp; turning onto the lower branch is a down cusp
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
        signs: dict[str, int] = {}
        for j, ev in enumerate(self.events):
            if ev.kind == "X":
                c, d = ev.slots
                signs[ev.name] = 1 if heading[(j, c)] == heading[(j, d)] else -1
        return Traversal(signs, down, up, potential, drift)

    def _step(self, dart: tuple[int, int, int]) -> tuple[int, int, int]:
        j, s, di = dart
        if di == 1:
            ev = self.events[j]
            c, d = ev.slots
            if ev.kind == "X" and s in (c, d):
                return (j + 1, d if s == c else c, 1)
            if ev.kind == "R" and s in (c, d):
                return (j, d if s == c else c, -1)
            return (j + 1, s, 1)
        ev = self.events[j - 1]
        c, d = ev.slots
        if ev.kind == "X" and s in (c, d):
            return (j - 1, d if s == c else c, -1)
        if ev.kind == "L" and s in (c, d):
            return (j, d if s == c else c, 1)
        return (j - 1, s, -1)


def build_front(word: PlatWord, base_cusp: str | None = None) -> FrontDiagram:
    """Plat-closed front: n left cusps, the braid letters, n right cusps."""
    n = word.strand_count // 2
    events = [Event("L", (2 * i - 1, 2 * i)) for i in range(1, n + 1)]
    for pos, k in enumerate(word.letters, start=1):
        events.append(Event("X", (k, k + 1), name=f"x{pos}"))
    m = len(word.letters)
    for i in range(1, n + 1):
        events.append(Event("R", (2 * i - 1, 2 * i), name=f"x{m + i}"))
    front = FrontDiagram(word.strand_count, events, base_cusp)
    front.traversal  # raises unless the closure is a knot
    return front


def classical_invariants(front: FrontDiagram) -> tuple[int, int]:
    tr = front.traversal
    writhe = sum(tr.crossing_signs.values())
    tb = writhe - len(front.cusp_names)
    r2 = tr.down_cusps - tr.up_cusps
    if r2 % 2:
        raise ValueError(f"odd cusp imbalance {r2}: the front is not a closed knot")
    return tb, r2 // 2


def maslov_grading(front: FrontDiagram) -> GradingTable:
    tr = front.traversal
    modulus = abs(tr.drift)
    grading: dict[str, int] = {}
    for j, ev in enumerate(front.events):
        if ev.kind == "X":
            c, d = ev.slots
            g = CROSSING_GRADING_SIGN * (tr.potential[(j, c)] - tr.potential[(j, d)])
            grading[ev.name] = g % modulus if modulus else g
        elif ev.kind == "R":
            grading[ev.name] = 1 % modulus if modulus else 1
    return GradingTable(grading, modulus)
