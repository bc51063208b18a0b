"""Brute-force oracles that the tests hold the library's searches against.

They read the DGA directly and share no code with `lch.reps`, whose compiled
search they check.
"""

from __future__ import annotations

import itertools

from lch.dga import DGA
from lch.freealg import F2


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
