"""Representations of knot DGAs and their characteristic algebras.

Three families live here.  Matrix representations over F2 are searched for
and verified with matrices stored as tuples of row bitmasks (entry (i, j) is
bit j of row i); augmentations, the one-dimensional case, are every solution
of the same search.  One compile step reads a DGA's differentials as the
relations: for graded augmentations it pins the generators of nonzero degree
mod the grading's modulus to 0, and it files each relation under the level
that closes it.
The search assigns generators in order, checks each relation there, solves
the levels whose relations are affine in the new image, and remembers
failed subtrees and solved levels by the images they read (see
search_matrix_rep).  The explicit
two-dimensional homomorphism for maximal-tb negative torus knots is built
directly from the labeled front.  Finally, the nontriviality witness for the
three-generator quotient algebra is an operator action on a countable basis
v_0, v_1, ...; each operator is stated once, as guarded affine pieces on the
indices (_R_PIECES), and a test proves every identity on every v_i from that
table.  The truncation to N coordinates and each operator's growth bound are
derived from the pieces; per composed word we track the largest index whose
image is still exact, and compute only the rows up to it.

Everything is over F2.  Search routines never claim nonexistence: a failed
search within budget is inconclusive by design.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .dga import DGA, TorusLabeling
from .freealg import F2, NcPoly, content_lines, parse, word_key

Mat = tuple[int, ...]

__all__ = [
    "MatRepAssignment",
    "TruncatedOp",
    "mat_identity",
    "mat_zero",
    "mat_mul",
    "mat_add",
    "decode_matrix",
    "encode_matrix",
    "evaluate_poly",
    "find_augmentations",
    "verify_matrix_rep",
    "search_matrix_rep",
    "torus_rep",
    "mat2_presentation_check",
    "build_R_truncated",
    "check_R_relations",
    "verify_R_relations",
    "RRelationCheck",
    "RRelationReport",
    "serialize_rep",
    "deserialize_rep",
]


# ---- dense matrices over F2, rows as bitmasks ----

def mat_zero(n: int) -> Mat:
    return (0,) * n


def mat_identity(n: int) -> Mat:
    return tuple(1 << i for i in range(n))


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(x ^ y for x, y in zip(a, b))


def mat_mul(a: Mat, b: Mat) -> Mat:
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return tuple(out)


def encode_matrix(m: Mat, n: int) -> int:
    """Row-major bit encoding: entry (i, j) is bit i*n + j of the code."""
    code = 0
    for i, row in enumerate(m):
        code |= row << (i * n)
    return code


def decode_matrix(code: int, n: int) -> Mat:
    """The matrix whose encode_matrix code is code."""
    mask = (1 << n) - 1
    return tuple((code >> (i * n)) & mask for i in range(n))


def _image(images: Mapping, g: str):
    img = images.get(g)
    if img is None:
        raise ValueError(f"no image for generator {g}")
    return img


def evaluate_poly(p: NcPoly, images: Mapping[str, Mat], n: int) -> Mat:
    """Value of p under the algebra map sending generators to images, 1 to I.

    Only the first n rows are computed, which for n x n images is all of
    them.  Row i of a product reads only row i of its first factor, so each
    word starts from the first n rows of its first letter's image.
    """
    if p.ring != F2:
        raise ValueError("matrix evaluation is defined over F2 only")
    acc = mat_zero(n)
    for word in p.terms:
        if not word:
            m = mat_identity(n)
        else:
            m = _image(images, word[0])[:n]
            for g in word[1:]:
                m = mat_mul(m, _image(images, g))
        acc = mat_add(acc, m)
    return acc


@dataclass(frozen=True)
class MatRepAssignment:
    """Images of every generator of a presentation in Mat_n(F2)."""

    n: int
    images: Mapping[str, Mat]

    def __post_init__(self):
        for g, m in self.images.items():
            if len(m) != self.n or any(row >> self.n for row in m):
                raise ValueError(f"image of {g} is not {self.n}x{self.n}")


# ---- extracting the constraint system from a DGA ----

def _constraints(g: DGA) -> tuple[tuple[str, ...], list[NcPoly]]:
    pres = g.presentation
    if pres.ring != F2:
        raise ValueError("representations are supported over F2 only")
    return tuple(pres.generators), [g.d(x) for x in pres.generators]


def verify_matrix_rep(g: DGA, rho: MatRepAssignment) -> bool:
    """Check that an assignment of exactly g's generators kills every differential."""
    gens, rels = _constraints(g)
    missing = [x for x in gens if x not in rho.images]
    if missing:
        raise ValueError(f"no image for generator {missing[0]}")
    if len(rho.images) != len(gens):  # every generator has an image, so one is extra
        raise ValueError(f"image for unknown generator {min(set(rho.images) - set(gens))}")
    zero = mat_zero(rho.n)
    return all(evaluate_poly(r, rho.images, rho.n) == zero for r in rels)


def _compile(g: DGA, graded: bool = False):
    """The search's one view of g's differentials as relations: (gens, free, levels).

    free lists the generators the search assigns: all of gens, or with
    graded set those of degree 0 mod the grading's modulus, the others being
    pinned to 0 by dropping every word that contains one.  levels[i] lists
    the relations that close once free generator i is assigned, each as
    (constant, words over positions in free); it is None when a relation
    reduces to the constant 1, so that nothing solves the system.
    """
    gens, rels = _constraints(g)
    free = gens
    if graded:
        free = tuple(x for x in gens if g.presentation.word_degree((x,)) == 0)
    pos = {x: i for i, x in enumerate(free)}
    levels: list[list] = [[] for _ in free]
    for r in rels:
        const = 0
        words = []
        for word in r.terms:
            w = tuple(map(pos.get, word))
            if None in w:
                continue
            if w:
                words.append(w)
            else:
                const ^= 1
        if words:
            levels[max(map(max, words))].append((const, words))
        elif const:
            return gens, free, None
    return gens, free, levels


# ---- matrix representation search ----

def _subset_xor(base: int, units: list[int]) -> list[int]:
    """vals[c] = base ^ (XOR of units[b] over the set bits b of c), for all c."""
    vals = [base]
    for u in units:
        vals += [v ^ u for v in vals]
    return vals


@functools.lru_cache(maxsize=None)
def _product_table(n: int) -> tuple[tuple[int, ...], ...]:
    """table[x][y] is the code of the product of the matrices coded x and y.

    Built on first use for each n <= 3 and shared by every search after.
    The product is bilinear, so the n^4 products E_b E_k of elementary
    matrices, each one mat_mul, determine it: x E_k is the XOR of E_b E_k
    over the set bits b of x, and row x is the subset-XOR table of those
    n^2 values.
    Entries are drawn from one list of codes, so equal entries share an int
    object.
    """
    elementary = [decode_matrix(1 << b, n) for b in range(n * n)]
    # columns[k][x] is the code of x E_k
    columns = [_subset_xor(0, [encode_matrix(mat_mul(e, f), n) for e in elementary])
               for f in elementary]
    codes = list(range(1 << (n * n)))
    return tuple(tuple(map(codes.__getitem__, _subset_xor(0, row))) for row in zip(*columns))


def _walk(levels: Optional[list], n: int, budget: float):
    """Yield each solution's matrix codes, in search order, with the node count.

    levels is _compile's.  Returns the stop reason, "exhausted" or "budget",
    and the final count.  Nodes count candidate matrices in enumeration
    order, including those a solved level rules out without evaluating them
    and those of a remembered failed subtree, and never exceed the budget.
    """
    if levels is None:
        return "exhausted", 0
    if not levels:
        yield (), 0
        return "exhausted", 0
    # matrices live as their row-major codes; for n <= 3 a full product
    # table turns each word step into one lookup, and affine levels are
    # solved; a 2^(n^2) table per visit is too large beyond that
    nn = n * n
    count = 1 << nn
    ident = encode_matrix(mat_identity(n), n)
    mul = _product_table(n) if n <= 3 else None
    images = [0] * len(levels)

    def product(w: tuple[int, ...]) -> int:
        m = ident
        if mul is not None:
            for i in w:
                m = mul[m][images[i]]
                if not m:
                    break
        else:
            mm = decode_matrix(m, n)
            for i in w:
                mm = mat_mul(mm, decode_matrix(images[i], n))
            m = encode_matrix(mm, n)
        return m

    def value(const: int, words: list) -> int:
        acc = ident if const else 0
        for w in words:
            acc ^= product(w)
        return acc

    def enumerate_level(i: int, closing: list):
        # yields each candidate that passes, trying none the budget would
        # not pay for: the driver charges up to the next yield
        for cand in range(count):
            if nodes + cand + 1 - tried[i] > budget:
                return
            images[i] = cand
            if not any(value(const, words) for const, words in closing):
                yield cand

    # zeros of each affine map solved so far, keyed by (base, *units), so
    # that levels and visits with equal maps share one tuple
    solved: dict[tuple[int, ...], tuple[int, ...]] = {}

    def solve_level(system):
        # the closing relations, relation j at bit j * nn of one int, are
        # affine in X: base at X = 0, plus units[b] for each bit b
        base = 0
        units = [0] * nn
        for shift, const, plain, linear in system:
            base ^= value(const, plain) << shift
            for before, after in linear:
                a = product(before)
                b = product(after) if a else 0
                if not b:
                    continue
                # the unit at bit k is A E_k B, two lookups in the table
                row = mul[a]
                for k in range(nn):
                    units[k] ^= mul[row[1 << k]][b] << shift
        affine = (base, *units)
        zeros = solved.get(affine)
        if zeros is None:
            zeros = solved[affine] = tuple(
                c for c, v in enumerate(_subset_xor(base, units)) if not v)
        return zeros

    # the levels below i read only the images of frontier i: the generators
    # up to i that a relation closing after i mentions.  Where the frontier
    # stops growing, some generator has left it, so equal images on it can
    # recur; there a failed subtree is remembered by those images and its
    # node count charged again instead of replaying it.  A solved level's
    # zeros depend only on its reads, the other generators in its closing
    # words, and are kept where those are fewer than the frontier entering
    # it, whose images cannot recur before a solution
    last_use = [-1] * len(levels)
    for i, closing in enumerate(levels):
        for _, words in closing:
            for w in words:
                for j in w:
                    last_use[j] = i
    slot = [(count - 1) << i * nn for i in range(len(levels))]
    # how each level picks its candidates: every code when it closes
    # nothing, (system, key mask, zero lists or None) when it is solved,
    # and its closing relations when it is enumerated
    plans: list = []
    frontier = []
    width = 0
    for i, closing in enumerate(levels):
        reads = {j for _, words in closing for w in words for j in w} - {i}
        if not closing:
            plans.append(range(count))
        elif mul is not None and all(w.count(i) <= 1 for _, words in closing for w in words):
            system = []
            for j, (const, words) in enumerate(closing):
                plain = [w for w in words if i not in w]
                linear = [(w[:w.index(i)], w[w.index(i) + 1:]) for w in words if i in w]
                system.append((j * nn, const, plain, linear))
            plans.append((system, sum(slot[j] for j in reads), {} if len(reads) < width else None))
        else:
            plans.append(closing)
        reads = [j for j in range(i + 1) if last_use[j] > i]
        frontier.append(sum(slot[j] for j in reads) if len(reads) <= width else None)
        width = len(reads)
    memo: list[dict[int, int]] = [{} for _ in levels]

    # depth-first over levels; packed holds the images of levels up to i,
    # image j at bit j * nn, and a key is packed masked to what it reads;
    # tried[i] is the next code plain enumeration would try at level i, so
    # skipped candidates are charged as they pass; entered[i] and
    # hits_entered[i] are the node and hit counts entering level i + 1
    last = len(levels) - 1
    pending = [iter(())] * len(levels)
    tried = [0] * len(levels)
    entered = [0] * len(levels)
    hits_entered = [0] * len(levels)
    below = [(1 << i * nn) - 1 for i in range(len(levels))]
    nodes = hits = packed = i = 0
    plan = plans[0]
    pending[0] = (iter(solve_level(plan[0])) if type(plan) is tuple
                  else enumerate_level(0, plan) if type(plan) is list else iter(plan))
    while True:
        cand = next(pending[i], None)
        if cand is None:
            nodes += count - tried[i]
            if nodes > budget:
                return "budget", budget
            if i == 0:
                return "exhausted", nodes
            i -= 1
            if frontier[i] is not None and hits == hits_entered[i]:
                memo[i][packed & frontier[i]] = nodes - entered[i]
            continue
        nodes += cand + 1 - tried[i]
        if nodes > budget:
            return "budget", budget
        tried[i] = cand + 1
        images[i] = cand
        if i == last:
            hits += 1
            yield tuple(images), nodes
            continue
        packed = packed & below[i] | cand << i * nn
        if frontier[i] is not None:
            charged = memo[i].get(packed & frontier[i])
            if charged is not None:
                nodes += charged
                if nodes > budget:
                    return "budget", budget
                continue
            entered[i] = nodes
            hits_entered[i] = hits
        i += 1
        plan = plans[i]
        if type(plan) is tuple:
            system, mask, seen = plan
            if seen is None:
                zeros = solve_level(system)
            else:
                key = packed & mask
                zeros = seen.get(key)
                if zeros is None:
                    zeros = seen[key] = solve_level(system)
            pending[i] = iter(zeros)
        elif type(plan) is list:
            pending[i] = enumerate_level(i, plan)
        else:
            pending[i] = iter(plan)
        tried[i] = 0


def _search(g: DGA, n: int, budget: int) -> tuple[Optional[MatRepAssignment], str, int]:
    """search_matrix_rep's hit, why the search stopped, and its node count.

    The reason is "found", "exhausted" or "budget"; the count is _walk's.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    gens, _, levels = _compile(g)
    try:
        codes, nodes = next(_walk(levels, n, budget))
    except StopIteration as stop:
        return (None, *stop.value)
    rho = MatRepAssignment(n, {g_: decode_matrix(c, n) for g_, c in zip(gens, codes)})
    return rho, "found", nodes


def search_matrix_rep(g: DGA, n: int, budget: int = 10 ** 8) -> Optional[MatRepAssignment]:
    """First Mat_n(F2) representation in deterministic order, or None.

    Generators are assigned in presentation order, candidate matrices in
    increasing row-major bit encoding, and every relation is checked as soon
    as its support is complete.  For n <= 3, a level whose closing relations
    contain its generator at most once per word is solved rather than
    enumerated: those relations are affine in the new image X, so n^2 + 1
    evaluations give their value at every candidate, and the zeros are
    visited in increasing code order.  Levels that close nothing or are not
    linear in X, and all levels for n >= 4, are enumerated one candidate at
    a time, stopping as soon as a candidate passes or the budget runs out.
    Below level i the search reads only the images of the frontier, the
    generators up to i that a relation closing after i mentions.  Where the
    frontier stops growing, a subtree that fails is stored under the
    frontier's images with the number of candidates it charged; when they
    recur, that count is charged again and the subtree is skipped.  A solved
    level keeps its zeros under the images of the other generators in the
    words it closes, where those are fewer than the frontier entering it
    (else they cannot recur before the first hit); equal affine maps share
    one zero list, so each is tabulated once.  A key is one int, the images
    assigned so far (generator j at bit j * n^2) masked to the generators
    the entry depends on.  A visit of a level charges 2^(n^2) candidates
    once done, and each entry comes from one visit, so a search of `nodes`
    candidates stores at most nodes / 2^(n^2) of each, plus one per level
    for the visits still open when it stops.  The budget counts candidates
    in enumeration order throughout, so the first hit, the node count and
    the budget's meaning do not depend on solving or remembering.
    Exhausting the node budget returns None, which is inconclusive:
    nonexistence claims are the business of certificate replay, never of
    this search.
    """
    return _search(g, n, budget)[0]


# ---- augmentations: the search at n = 1 ----

def _augmentations(g: DGA, graded: bool,
                   budget: float) -> tuple[list[dict[str, int]], str, int]:
    """The augmentations found within budget, why the search stopped, its node count.

    The reason is "exhausted" or "budget", and the count is _walk's at n = 1.
    With graded set, _compile pins the generators of nonzero degree mod the
    grading's modulus to 0; the search skips them and they come back as 0.
    """
    gens, free, levels = _compile(g, graded)
    walk = _walk(levels, 1, budget)
    found = []
    while True:
        try:
            codes, _ = next(walk)
        except StopIteration as stop:
            return (found, *stop.value)
        eps = dict(zip(free, codes))
        found.append({x: eps.get(x, 0) for x in gens})


def find_augmentations(g: DGA, graded: bool = False) -> list[dict[str, int]]:
    """All algebra maps to F2 killing every differential, in lexicographic order.

    These are the one-dimensional representations: every solution of the
    matrix search's engine at n = 1, with no node budget.  `graded` keeps
    only the maps that vanish on every generator of nonzero degree mod the
    grading's modulus; the compile step pins those generators to 0.
    """
    return _augmentations(g, graded, math.inf)[0]


# ---- the explicit torus-knot homomorphism ----

def torus_rep(p: int, q: int, labeling: TorusLabeling) -> MatRepAssignment:
    """Two-dimensional representation of the T(p,-q) DGA from its labeling.

    Crossings x_{i,i+1} and y_{j,j+p-1} go to the upper-right elementary
    matrix, x_{1,p} and y_{j,j+1} to its transpose, everything else
    (including all right cusps) to zero.
    """
    a = (2, 0)
    b = (0, 1)
    zero = (0, 0)
    images: dict[str, Mat] = {}
    for i in range(1, p):
        if (i, i + 1) not in labeling.x:
            raise ValueError(f"labeling missing crossing x_({i},{i + 1})")
    if (1, p) not in labeling.x:
        raise ValueError(f"labeling missing crossing x_(1,{p})")
    for (i, j), name in labeling.x.items():
        if j == i + 1:
            images[name] = a
        elif (i, j) == (1, p):
            images[name] = b
        else:
            images[name] = zero
    for (i, j), name in labeling.y.items():
        if j == i + 1:
            images[name] = b
        elif j == i + p - 1:
            images[name] = a
        else:
            images[name] = zero
    for name in labeling.z.values():
        images[name] = zero
    return MatRepAssignment(2, images)


# ---- the 16-element presentation of Mat_2(F2) ----

_BASIS = ((), ("a",), ("b",), ("a", "b"))


def _reduce_word(word: tuple[str, ...]) -> frozenset:
    """Rewrite with aa -> 0, bb -> 0, ba -> 1 + ab; value is a set of basis words."""
    if word in _BASIS:
        return frozenset([word])
    for i in range(len(word) - 1):
        pair = word[i:i + 2]
        if pair in (("a", "a"), ("b", "b")):
            return frozenset()
        if pair == ("b", "a"):
            rest = word[:i] + word[i + 2:]
            swapped = word[:i] + ("a", "b") + word[i + 2:]
            return _reduce_word(rest) ^ _reduce_word(swapped)
    raise AssertionError(f"irreducible word {word} outside basis")


def mat2_presentation_check() -> bool:
    """Confirm that {a^2 = b^2 = 0, ab + ba = 1} presents the 2x2 matrix algebra.

    Exhaustive: the quotient is spanned by 1, a, b, ab, so its 16 subsets
    exhaust the elements; the map a -> E12, b -> E21 must be a bijective
    ring homomorphism onto Mat_2(F2).
    """
    n = 2
    mats = {(): mat_identity(n), ("a",): (2, 0), ("b",): (0, 1)}
    mats[("a", "b")] = mat_mul(mats[("a",)], mats[("b",)])
    if mat_add(mats[("a", "b")], mat_mul(mats[("b",)], mats[("a",)])) != mat_identity(n):
        return False
    if _reduce_word(("b", "a")) != frozenset([(), ("a", "b")]):
        return False

    def phi(elem: frozenset) -> Mat:
        m = mat_zero(n)
        for w in elem:
            m = mat_add(m, mats[w])
        return m

    elements = [frozenset(s) for r in range(5) for s in itertools.combinations(_BASIS, r)]
    image = {e: phi(e) for e in elements}
    if len(elements) != 16 or len(set(image.values())) != 16:
        return False
    # every reduced product is a subset of the basis, so one of the elements
    reduced = {(wx, wy): _reduce_word(wx + wy) for wx in _BASIS for wy in _BASIS}
    for x in elements:
        for y in elements:
            prod: frozenset = frozenset()
            for wx in x:
                for wy in y:
                    prod ^= reduced[wx, wy]
            if image[prod] != mat_mul(image[x], image[y]):
                return False
    return True


# ---- truncated operators on span(v_0 .. v_{N-1}) ----

@dataclass(frozen=True)
class TruncatedOp:
    """Right-acting operator truncated to N coordinates.

    rows[i] is the image of v_i as a bitmask over v_0..v_{N-1}, so a word
    acts as the mat_mul product of its letters' rows, leftmost letter first.
    Basis vectors pushed past the truncation are silently dropped, so results
    are only trusted on v_0..v_{_valid_domain(N, slope, offset)}, and the
    checks compute only those rows.  The affine bound index -> slope*index +
    offset dominates the operator's untruncated index growth.
    """

    N: int
    rows: tuple[int, ...]
    slope: int
    offset: int

    def __post_init__(self):
        if len(self.rows) != self.N:
            raise ValueError("row count disagrees with truncation size")
        if self.slope < 1 or self.offset < 0:
            raise ValueError("growth bound must be monotone")
        if min(self.rows, default=0) < 0 or max(self.rows, default=0) >> self.N:
            raise ValueError(f"a row is not a bitmask over {self.N} coordinates")


def _valid_domain(N: int, slope: int, offset: int) -> int:
    return min(N - 1, (N - 1 - offset) // slope)


# operator -> guarded affine pieces (M, r, lowest, targets), 0 <= r < M and
# a >= 1: each piece sends v_i, i = M*t + r >= lowest, to the sum of
# v_{a*t + b} over (a, b) in targets, and an operator sums its pieces
_R_PIECES = {
    "f": ((1, 0, 0, ((2, 0),)),),
    "g": ((1, 0, 0, ((2, 1),)),),
    "p": ((1, 0, 1, ((1, -1),)),),
    "s": ((1, 0, 0, ((1, 1), (2, 2))),),
    "c": ((2, 0, 0, ((1, 0),)),),
}
# the two-case diagram formulas collapse to uniform shifts: acting by a sends
# v_m to v_{m-1} on both parities, and b sends v_m to v_{m+1} + v_{2m+2}, so
# a and b agree with p and s pointwise and share their pieces
_R_PIECES["a"], _R_PIECES["b"] = _R_PIECES["p"], _R_PIECES["s"]


def _truncate(N: int, pieces) -> TruncatedOp:
    """The pieces' operator on v_0..v_{N-1}, with the growth bound that
    a*t + b <= ceil(a/M)*i + b for i = M*t + r gives."""
    rows = [0] * N
    for M, r, lowest, targets in pieces:
        t0 = max(0, -((r - lowest) // M))
        for a, b in targets:
            for i, j in zip(range(M * t0 + r, N, M), range(a * t0 + b, N, a)):
                rows[i] ^= 1 << j
    slope = max([1] + [-(-a // M) for M, _, _, targets in pieces for a, _ in targets])
    offset = max([0] + [b for _, _, _, targets in pieces for _, b in targets])
    return TruncatedOp(N, tuple(rows), slope, offset)


def build_R_truncated(N: int) -> dict[str, TruncatedOp]:
    """The seven operators of the nontriviality witness, truncated to size N.

    Each is built from its pieces in _R_PIECES: f doubles indices, g doubles
    and shifts, p shifts down, s shifts up and doubles; a, b, c are the
    closed forms obtained by composing the block identifications of the
    even/odd splitting (tests re-derive them from the block maps directly).
    """
    if N < 8:
        raise ValueError("need N >= 8")
    built = {pieces: _truncate(N, pieces) for pieces in dict.fromkeys(_R_PIECES.values())}
    return {key: built[pieces] for key, pieces in _R_PIECES.items()}


def _growth(p: NcPoly, ops: Mapping[str, TruncatedOp]) -> tuple[int, int]:
    """(slope, offset) of an affine bound on p's untruncated index growth.

    Along a word the letters' bounds compose in the order they act; over
    the terms the larger slope and the larger offset are kept.  Slopes are
    >= 1 and offsets >= 0, so no intermediate index truncates below the
    resulting valid domain.
    """
    slope, offset = 1, 0
    for word in p.terms:
        s, o = 1, 0
        for g in word:
            op = _image(ops, g)
            s, o = s * op.slope, op.slope * o + op.offset
        slope, offset = max(slope, s), max(offset, o)
    return slope, offset


# (name, left, right): each check asserts left = right on the valid domain;
# the first four are the defining relations, the rest composition identities
# written in application order, so p.s realizes s o p
_R_CHECKS = (
    ("1 + c(1+ab) + ac(1+ba)", "1 + c + c.a.b + a.c + a.c.b.a", "0"),
    ("(1+ba)c", "c + b.a.c", "0"),
    ("1 + (1+ab)c", "1 + c + a.b.c", "0"),
    ("1 + (1+ba)ac", "1 + a.c + b.a.a.c", "0"),
    ("s o p = f + 1", "p.s", "f + 1"),
    ("p o g = f", "g.p", "f"),
    ("p o s = g + 1", "s.p", "g + 1"),
)


@dataclass(frozen=True)
class RRelationCheck:
    name: str
    checked_upto: int
    ok: bool


@dataclass(frozen=True)
class RRelationReport:
    ok: bool
    checks: tuple[RRelationCheck, ...]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "ok" if c.ok else "FAILED"
            out.append(f"{verdict:6s} {c.name}  on v_0..v_{c.checked_upto}")
        return out


def _check(ops: Mapping[str, TruncatedOp], N: int, table) -> RRelationReport:
    """Check each left = right on its valid domain, computing only those rows."""
    if any(op.N != N for op in ops.values()):
        raise ValueError("mismatched truncation sizes")
    rows = {key: op.rows for key, op in ops.items()}
    checks = []
    for name, left, right in table:
        sides = [parse(left, F2), parse(right, F2)]
        upto = min(_valid_domain(N, *_growth(q, ops)) for q in sides)
        if upto < 0:
            raise ValueError(f"empty valid domain for {name}; increase N")
        value = evaluate_poly(sides[0] + sides[1], rows, upto + 1)
        checks.append(RRelationCheck(name, upto, not any(value)))
    return RRelationReport(all(c.ok for c in checks), tuple(checks))


def check_R_relations(ops: Mapping[str, TruncatedOp], N: int) -> RRelationReport:
    """Evaluate the four defining relations against a given operator family."""
    return _check(ops, N, _R_CHECKS[:4])


def verify_R_relations(N: int = 256) -> RRelationReport:
    """Defining relations plus the auxiliary composition identities.

    Everything is checked on the composed words' valid domains; with
    N = 256 those domains contain v_0..v_31 comfortably.
    """
    if N < 64:
        raise ValueError("need N >= 64")
    return _check(build_R_truncated(N), N, _R_CHECKS)


# ---- representation files ----

def serialize_rep(rho: MatRepAssignment) -> str:
    lines = [f"rep n={rho.n}"]
    for g in sorted(rho.images, key=lambda name: word_key((name,))):
        # the code's bits, least significant first
        bits = f"{encode_matrix(rho.images[g], rho.n):0{rho.n * rho.n}b}"[::-1]
        lines.append(f"map {g} = {bits}")
    return "\n".join(lines) + "\n"


def deserialize_rep(text: str) -> MatRepAssignment:
    n = 0  # until the header is read
    images: dict[str, Mat] = {}
    for lineno, ln in content_lines(text):
        try:
            if not n:
                if not ln.startswith("rep n="):
                    raise ValueError("missing 'rep n=<dim>' header")
                try:
                    n = int(ln[len("rep n="):])
                except ValueError:
                    raise ValueError(f"bad dimension in header {ln!r}") from None
                if n < 1:
                    raise ValueError("dimension must be positive")
                continue
            if not ln.startswith("map ") or "=" not in ln:
                raise ValueError(f"expected 'map <gen> = <bits>', got {ln!r}")
            gen, bits = (part.strip() for part in ln[len("map "):].split("=", 1))
            if gen in images:
                raise ValueError(f"duplicate image for {gen}")
            if len(bits) != n * n or set(bits) - {"0", "1"}:
                raise ValueError(f"image of {gen} must be {n * n} bits")
            images[gen] = decode_matrix(int(bits[::-1], 2), n)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not n:
        raise ValueError("missing 'rep n=<dim>' header")
    return MatRepAssignment(n, images)
