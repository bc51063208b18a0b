"""Hypothesis strategies for small random plats, shared by the test modules.

`small_plats` draws any (strands, letters) pair of at most MAX_LETTERS
letters on 2, 4 or 6 strands.  `knot_plats` draws from the same domain but
only the words whose plat closure is a knot: it counts those words exactly
and decodes a drawn index, so no draw is thrown away.

The count never builds a front.  A plat's closure joins the left ends of
its strands in pairs twice: by the left cusps, (0,1), (2,3), ..., and by the
right cusps, through the braid's permutation.  The closure is a knot
exactly when these two matchings form one cycle.
"""

from __future__ import annotations

import functools

from hypothesis import strategies as st

from lch.plat import build_front, parse_plat

STRANDS = (2, 4, 6)
MAX_LETTERS = 8

# letters are drawn below the strand count rather than filtered, which
# rejected most draws and tripped Hypothesis's filter_too_much health check
small_plats = st.sampled_from(STRANDS).flatmap(
    lambda strands: st.tuples(st.just(strands),
                              st.lists(st.integers(1, strands - 1), max_size=MAX_LETTERS)))


def cross(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """perm after letter k; perm[i] is the left end of the strand at position i."""
    out = list(perm)
    out[k - 1], out[k] = out[k], out[k - 1]
    return tuple(out)


def braid_permutation(strands: int, letters) -> tuple[int, ...]:
    return functools.reduce(cross, letters, tuple(range(strands)))


def closure_is_knot(perm: tuple[int, ...]) -> bool:
    """Whether the left and right cusp matchings joined through perm form one cycle."""
    position = {end: i for i, end in enumerate(perm)}
    end, cusps = 0, 0
    while True:
        # across a left cusp, along the strand, across a right cusp, back
        end = perm[position[end ^ 1] ^ 1]
        cusps += 1
        if end == 0:
            return cusps == len(perm) // 2


@functools.cache
def knot_completions(perm: tuple[int, ...], letters_left: int) -> int:
    """How many words of letters_left letters take perm to a knot closure."""
    if letters_left == 0:
        return int(closure_is_knot(perm))
    return sum(knot_completions(cross(perm, k), letters_left - 1)
               for k in range(1, len(perm)))


def knot_word(strands: int, length: int, index: int) -> tuple[int, list[int]]:
    """The index-th knot word of this length, in lexicographic order."""
    perm, letters = tuple(range(strands)), []
    for left in range(length - 1, -1, -1):
        for k in range(1, strands):
            count = knot_completions(cross(perm, k), left)
            if index < count:
                break
            index -= count
        letters.append(k)
        perm = cross(perm, k)
    return strands, letters


def _knot_words_on(strands: int):
    start = tuple(range(strands))
    lengths = [n for n in range(MAX_LETTERS + 1) if knot_completions(start, n)]
    return st.sampled_from(lengths).flatmap(
        lambda n: st.integers(0, knot_completions(start, n) - 1).map(
            lambda i: knot_word(strands, n, i)))


knot_plats = st.sampled_from(STRANDS).flatmap(_knot_words_on)


def front_of(sw):
    """The front of a drawn (strands, letters) pair."""
    strands, letters = sw
    return build_front(parse_plat(",".join(map(str, letters)), strands))
