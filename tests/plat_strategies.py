"""Hypothesis strategy for small random plats, shared by the test modules."""

from __future__ import annotations

from hypothesis import assume, strategies as st

from lch.plat import build_front, parse_plat

# letters are drawn below the strand count rather than filtered, which
# rejected most draws and tripped Hypothesis's filter_too_much health check
small_plats = st.sampled_from([2, 4, 6]).flatmap(
    lambda strands: st.tuples(st.just(strands),
                              st.lists(st.integers(1, strands - 1), max_size=8)))


def front_or_skip(sw):
    """The front of a drawn (strands, letters) pair; links are not drawn."""
    strands, letters = sw
    try:
        return build_front(parse_plat(",".join(map(str, letters)), strands))
    except ValueError:
        assume(False)
