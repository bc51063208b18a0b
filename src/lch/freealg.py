"""Free associative algebras over F2 and Z[t,t^-1], with signed derivations.

Elements are finite sums of words in named generators.  Coefficients are
integer Laurent polynomials in t; over F2 the exponent is forced to 0 and
integers are reduced mod 2.  Every NcPoly, from the constructor, the ring
operations, parse, substitute, specialize and derivations alike, gets its
terms from one function, `_normal_form`, which sums (word, exponent,
coefficient) triples.  It keeps the invariant that equality rests on: no
zero coefficient is stored, and over F2 the only coefficient is {0: 1}, so
equality is literal equality of term dictionaries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping

F2 = "F2"
ZT = "ZT"

_RINGS = (F2, ZT)

# a generator name; t is the Laurent variable, never a generator
_NAME = r"(?!t\b)[A-Za-z_]\w*"
_NAME_RE = re.compile(_NAME)
# the two kinds of factor besides an integer: a word, and t or t^k
_WORD_RE = re.compile(rf"{_NAME}(?:\.{_NAME})*")
_T_POWER_RE = re.compile(r"t(?:\^(-?\d+))?")

Word = tuple[str, ...]
# coefficient = Laurent polynomial, exponent -> integer, no zero values stored
Coef = dict[int, int]
Triple = tuple[Word, int, int]  # (word, exponent of t, coefficient)


class GradingError(ValueError):
    """A presentation over ZT was given a grading of odd modulus."""


def _check_ring(ring: str) -> None:
    if ring not in _RINGS:
        raise ValueError(f"unknown ring {ring!r}")


@lru_cache(maxsize=None)
def _natural_key(name: str):
    # x2 < x10, and mixed alpha/digit chunks compare without type errors;
    # cached per name, since every sort of words asks again for each letter
    parts = []
    for piece in re.split(r"(\d+)", name):
        if not piece:
            continue
        if piece.isdigit():
            parts.append((0, "", int(piece)))
        else:
            parts.append((1, piece, 0))
    return tuple(parts)


def word_key(word: Word):
    """Total order on words: length first, then natural order on names."""
    return (len(word), tuple(_natural_key(g) for g in word))


def _triples(terms: Mapping[Word, Coef], n: int = 1) -> list[Triple]:
    """The terms flattened, each coefficient multiplied by n."""
    return [(w, e, n * c) for w, coef in terms.items() for e, c in coef.items()]


def _normal_form(ring: str, triples: list[Triple]) -> dict[Word, Coef]:
    """Canonical terms summing the triples, words in first-seen order: over F2 a
    nonzero exponent is refused and parities are kept, over ZT zero sums dropped."""
    if ring == F2:
        parity: dict[Word, int] = {}
        for w, e, c in triples:
            if e:
                raise ValueError("t is not allowed over F2")
            parity[w] = parity.get(w, 0) ^ c
        terms = {}
        for w, c in parity.items():
            if c & 1:
                terms[w] = {0: 1}
    else:
        sums: dict[Word, Coef] = {}
        for w, e, c in triples:
            coef = sums.get(w)
            if coef is None:
                sums[w] = {e: c}
            else:
                coef[e] = coef.get(e, 0) + c
        terms = {}
        for w, coef in sums.items():
            if any(coef.values()):
                terms[w] = coef if all(coef.values()) else {e: c for e, c in coef.items() if c}
    return terms


def _poly(ring: str, triples: list[Triple]) -> "NcPoly":
    """An NcPoly holding the triples' normal form; the operations build through it."""
    p = object.__new__(NcPoly)
    p.ring, p.terms = ring, _normal_form(ring, triples)
    return p


class NcPoly:
    """Normalized element of the free algebra; treat instances as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: str, terms: Mapping[Word, Coef] | None = None):
        _check_ring(ring)
        self.ring = ring
        triples = []
        for w, coef in (terms or {}).items():
            w = tuple(w)
            for e, c in coef.items():
                triples.append((w, e, c))
        self.terms = _normal_form(ring, triples)

    # ---- constructors ----

    @staticmethod
    def zero(ring: str) -> "NcPoly":
        return NcPoly(ring)

    @staticmethod
    def one(ring: str) -> "NcPoly":
        return NcPoly(ring, {(): {0: 1}})

    @staticmethod
    def gen(name: str, ring: str) -> "NcPoly":
        return NcPoly.word([name], ring)

    @staticmethod
    def word(names: Iterable[str], ring: str) -> "NcPoly":
        w = tuple(names)
        for g in w:
            if not _NAME_RE.fullmatch(g):
                raise ValueError(f"bad generator name {g!r}")
        return NcPoly(ring, {w: {0: 1}})

    # ---- ring operations ----

    def __add__(self, other: "NcPoly") -> "NcPoly":
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return _poly(self.ring, _triples(self.terms) + _triples(other.terms))

    def __neg__(self) -> "NcPoly":
        return self.scale(-1)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        right = _triples(other.terms)
        return _poly(self.ring, [(w1 + w2, e1 + e2, c1 * c2)
                                 for w1, e1, c1 in _triples(self.terms)
                                 for w2, e2, c2 in right])

    def scale(self, n: int) -> "NcPoly":
        return _poly(self.ring, _triples(self.terms, n))

    # ---- predicates / inspection ----

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): {0: 1}}

    def generators(self) -> set[str]:
        seen: set[str] = set()
        for w in self.terms:
            seen.update(w)
        return seen

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    # ---- rendering / parsing ----

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for w in sorted(self.terms, key=word_key):
            wpart = ".".join(w) if w else "1"
            for exp, c in sorted(self.terms[w].items()):
                prefix = "" if c == 1 else f"{c}*"
                tpart = "" if exp == 0 else f"t^{exp}*"
                pieces.append(prefix + tpart + wpart)
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"NcPoly({self.ring}, {self.render()})"


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text before any '#', stripped) for each line with such text."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse(text: str, ring: str) -> NcPoly:
    """Parse the canonical flat rendering back into an NcPoly.

    The text is a sum of terms, split at '+' and before each '-' that is
    not an exponent's sign; a '-' negates its term.  A term is a product of
    factors split at '*', each a dot-joined word, an integer, or t or t^k.
    Blank terms are skipped; every other term is read whole, and its t
    refused over F2, before the next.
    """
    _check_ring(ring)
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    triples: list[Triple] = []
    # a '+' before every '-', then taken back where the '-' follows a '^'
    for term in s.replace("-", "+-").replace("^+-", "^-").split("+"):
        term = term.strip()
        if not term:
            continue
        coef, exp, word = 1, 0, []
        if term[0] == "-":
            coef, term = -1, term[1:]
        for factor in term.split("*"):
            factor = factor.strip()
            if _WORD_RE.fullmatch(factor):
                word += factor.split(".")
            elif factor.isdecimal():  # exactly the strings \d+ matches
                coef *= int(factor)
            elif m := _T_POWER_RE.fullmatch(factor):
                exp += int(m[1] or 1)
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        if ring == F2 and exp:
            raise ValueError("t is not allowed over F2")
        triples.append((tuple(word), exp, coef))
    if not triples:
        raise ValueError(f"no terms in {text!r}")
    return _poly(ring, triples)


def substitute(p: NcPoly, sigma: Mapping[str, NcPoly]) -> NcPoly:
    """Algebra-homomorphic image of p; sigma must cover every generator in p."""
    triples: list[Triple] = []
    for w, coef in p.terms.items():
        # the term's image, expanded letter by letter and summed once at the end
        img = [((), e, c) for e, c in coef.items()]
        for g in w:
            if g not in sigma:
                raise ValueError(f"no image for generator {g!r}")
            gi = sigma[g]
            if gi.ring != p.ring:
                raise ValueError(f"ring mismatch: {gi.ring} vs {p.ring}")
            right = _triples(gi.terms)
            img = [(u + v, e1 + e2, c1 * c2) for u, e1, c1 in img for v, e2, c2 in right]
        triples += img
    return _poly(p.ring, triples)


def specialize(p: NcPoly) -> NcPoly:
    """Set t = 1 and reduce coefficients mod 2 (ZT -> F2)."""
    return _poly(F2, [(w, 0, sum(coef.values())) for w, coef in p.terms.items()])


@dataclass
class GradedPresentation:
    """Ordered generators of a free algebra, each with its degree.

    The grading covers exactly the generators: every DGA here is graded by
    the Maslov potential of its front, or by its file's `gen` lines.
    modulus 0 means an honest Z-grading; modulus m > 0 means Z/m.  Over ZT
    the Leibniz signs read degrees mod 2, so the modulus must be even (or 0).
    """

    generators: tuple[str, ...]
    grading: dict[str, int]
    ring: str = F2
    modulus: int = 0

    def __post_init__(self):
        _check_ring(self.ring)
        self.generators = tuple(self.generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        for g in self.generators:
            if not _NAME_RE.fullmatch(g):
                raise ValueError(f"bad generator name {g!r}")
        unknown = set(self.grading) - set(self.generators)
        if unknown:
            raise ValueError(f"grading for unknown generators {sorted(unknown)}")
        missing = [g for g in self.generators if g not in self.grading]
        if missing:
            raise ValueError(f"no grading for generators {missing}")
        if self.ring == ZT and self.modulus % 2:
            raise GradingError("signs need a Z or even-modulus grading")

    def degree_of(self, name: str) -> int:
        return self.grading[name]

    def word_degree(self, word: Word) -> int:
        d = sum(map(self.grading.__getitem__, word))
        return d % self.modulus if self.modulus else d

    def off_degree(self, p: NcPoly, degree: int) -> Word | None:
        """The first word of p whose degree is not `degree` mod the modulus, or None."""
        m, deg = self.modulus, self.grading.__getitem__
        for w in p.terms:
            diff = sum(map(deg, w)) - degree
            if diff % m if m else diff:
                return w
        return None


def signed_derivation(
    pres: GradedPresentation, d: Mapping[str, NcPoly]
) -> Callable[[NcPoly], NcPoly]:
    """Extend d over words by the graded Leibniz rule.

    Over F2 signs vanish and no grading is consulted.  Over ZT the sign in
    front of w[:i]*d(w[i])*w[i+1:] is (-1)^(degree of the prefix); only the
    parity matters, which is why a ZT presentation has an even modulus or
    none.  `d` is read once, here: each nonzero d(g) is flattened into
    (word, exponent, coefficient) triples, so later changes to `d` do not
    reach the result.
    """
    ring = pres.ring
    grading = pres.grading
    flat = {g: _triples(dg.terms) for g, dg in d.items() if dg.terms}

    def derive(p: NcPoly) -> NcPoly:
        if p.ring != ring:
            raise ValueError(f"ring mismatch: {p.ring} vs {ring}")
        triples: list[Triple] = []
        for w, coef in p.terms.items():
            parity = 0  # degree of the prefix w[:i]; it stays 0 over F2
            for i, g in enumerate(w):
                dg = flat.get(g)
                if dg is not None:
                    sign = -1 if parity % 2 else 1
                    head, tail = w[:i], w[i + 1 :]
                    for e1, c1 in coef.items():
                        c1 *= sign
                        for w2, e2, c2 in dg:
                            triples.append((head + w2 + tail, e1 + e2, c1 * c2))
                if ring == ZT:
                    parity += grading[g]
        return _poly(ring, triples)

    return derive
