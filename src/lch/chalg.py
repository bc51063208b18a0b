"""Characteristic algebras as finitely presented quotients, and certificates.

The characteristic algebra of a DGA is the quotient of the free algebra by
the two-sided ideal generated by all differentials.  Triviality questions
about such quotients are undecidable in general, so nontrivial facts are
established by *certificates*: explicit step-by-step derivations that are
replayed and checked exactly, with no search.  Every step registers a new
named relation that is, by construction, an element of the ideal:

  diff  - the differential of an arbitrary expression (Im d lies in the ideal)
  comb  - a two-sided linear combination  sum_k  u_k * r_k * v_k  of prior
          relations with polynomial cofactors
  subst - a prior relation rewritten by oriented rules g -> p, each backed by
          an already registered relation equal to +-(g - p)

plus two assertion forms (`assert-unit`, `assert`) that check the derived
values.  Dependency sets are tracked per relation so that adjoin_and_derive
can enforce its precondition (see the Lemma encoded there).

Replay is deterministic: substitution rule sets must be acyclic (checked).
Each rule's image is resolved until no ruled generator is left in it, and
the source relation is substituted once.  That is the fixpoint of repeated
simultaneous substitution, which the acyclicity makes finite and
strategy-independent.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .dga import DGA
from .freealg import (
    F2,
    GradedPresentation,
    NcPoly,
    parse as parse_poly,
    substitute,
)


class CertificateError(ValueError):
    """Malformed certificate text or ill-founded step."""


# ---------------------------------------------------------------------------
# relation sets


@dataclass(frozen=True)
class RelationSet:
    """A presentation together with an ordered table of named relations.

    Relations are the ideal generators of the quotient; a relation named n
    with value p asserts p = 0 in the quotient algebra.  Instances are
    immutable; adjoining returns a new set.
    """

    presentation: GradedPresentation
    relations: tuple[tuple[str, NcPoly], ...]
    source: Optional[DGA] = None

    def __post_init__(self) -> None:
        seen = set()
        known = set(self.presentation.generators)
        for name, value in self.relations:
            if name in seen:
                raise ValueError(f"duplicate relation name {name!r}")
            seen.add(name)
            if value.ring != self.presentation.ring:
                raise ValueError(f"relation {name!r} ring mismatch")
            unknown = value.generators() - known
            if unknown:
                raise ValueError(
                    f"relation {name!r} uses unknown generators {sorted(unknown)}"
                )

    @property
    def ring(self) -> str:
        return self.presentation.ring

    def table(self) -> dict[str, NcPoly]:
        return dict(self.relations)

    def adjoin_all(self, items: Iterable[tuple[str, NcPoly]]) -> "RelationSet":
        extra = tuple((name, value) for name, value in items)
        return RelationSet(self.presentation, self.relations + extra, self.source)


def char_algebra(g: DGA) -> RelationSet:
    """Relation set presenting the characteristic algebra of a DGA.

    One relation per generator, named d_<generator>, equal to its
    differential; zero differentials are kept as (vacuous) relations so the
    table is in bijection with the generators.
    """
    rels = tuple((f"d_{x}", g.d(x)) for x in g.presentation.generators)
    return RelationSet(g.presentation, rels, source=g)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class DiffStep:
    name: str
    expr: NcPoly


@dataclass(frozen=True)
class CombStep:
    name: str
    # terms (u, r, v): left cofactor, prior relation name, right cofactor
    terms: tuple[tuple[NcPoly, str, NcPoly], ...]


@dataclass(frozen=True)
class SubstStep:
    name: str
    source: str
    rules: tuple[tuple[str, NcPoly], ...]


@dataclass(frozen=True)
class AssertUnitStep:
    name: str


@dataclass(frozen=True)
class AssertEqualStep:
    name: str
    expr: NcPoly


Step = Union[DiffStep, CombStep, SubstStep, AssertUnitStep, AssertEqualStep]


@dataclass(frozen=True)
class Certificate:
    steps: tuple[Step, ...]


_NAME = r"[A-Za-z_]\w*"
_DIFF_RE = re.compile(rf"^diff\s+({_NAME})\s*=\s*D\(\s*(.*?)\s*\)$")
_COMB_RE = re.compile(rf"^comb\s+({_NAME})\s*=\s*(.*)$")
_COMB_TERM_RE = re.compile(rf"^\(\s*(.*?)\s*\)\s*\*\s*({_NAME})\s*\*\s*\(\s*(.*?)\s*\)$")
_SUBST_RE = re.compile(rf"^subst\s+({_NAME})\s*=\s*({_NAME})\s+with\s+(.*)$")
_RULE_RE = re.compile(rf"^({_NAME})\s*->\s*(.*)$")
_AUNIT_RE = re.compile(rf"^assert-unit\s+({_NAME})$")
_AEQ_RE = re.compile(rf"^assert\s+({_NAME})\s*=\s*(.*)$")


def _split_outside_parens(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CertificateError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(ch)
        i += 1
    if depth != 0:
        raise CertificateError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_certificate(text: str, ring: str = F2) -> Certificate:
    """Parse the line-oriented certificate format.

    Grammar (one step per line, # starts a comment line):
      diff <name> = D( <poly> )
      comb <name> = ( <poly> ) * <rel> * ( <poly> ) [ + ... ]
      subst <name> = <rel> with <gen> -> <poly> [; <gen> -> <poly> ...]
      assert-unit <name>
      assert <name> = <poly>
    """
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            steps.append(_parse_step(line, ring))
        except CertificateError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from exc
    return Certificate(tuple(steps))


def _parse_step(line: str, ring: str) -> Step:
    m = _DIFF_RE.match(line)
    if m:
        return DiffStep(m.group(1), parse_poly(m.group(2), ring))
    m = _SUBST_RE.match(line)
    if m:
        rules = []
        for chunk in m.group(3).split(";"):
            rm = _RULE_RE.match(chunk.strip())
            if not rm:
                raise CertificateError(f"bad substitution rule {chunk.strip()!r}")
            rules.append((rm.group(1), parse_poly(rm.group(2), ring)))
        return SubstStep(m.group(1), m.group(2), tuple(rules))
    m = _COMB_RE.match(line)
    if m:
        terms = []
        for chunk in _split_outside_parens(m.group(2), "+"):
            tm = _COMB_TERM_RE.match(chunk.strip())
            if not tm:
                raise CertificateError(f"bad combination term {chunk.strip()!r}")
            terms.append(
                (parse_poly(tm.group(1), ring), tm.group(2), parse_poly(tm.group(3), ring))
            )
        return CombStep(m.group(1), tuple(terms))
    m = _AUNIT_RE.match(line)
    if m:
        return AssertUnitStep(m.group(1))
    m = _AEQ_RE.match(line)
    if m:
        return AssertEqualStep(m.group(1), parse_poly(m.group(2), ring))
    raise CertificateError(f"unrecognized step {line!r}")


def render_certificate(cert: Certificate) -> str:
    lines = []
    for step in cert.steps:
        if isinstance(step, DiffStep):
            lines.append(f"diff {step.name} = D( {step.expr.render()} )")
        elif isinstance(step, CombStep):
            body = " + ".join(
                f"( {u.render()} ) * {r} * ( {v.render()} )" for u, r, v in step.terms
            )
            lines.append(f"comb {step.name} = {body}")
        elif isinstance(step, SubstStep):
            body = "; ".join(f"{g} -> {p.render()}" for g, p in step.rules)
            lines.append(f"subst {step.name} = {step.source} with {body}")
        elif isinstance(step, AssertUnitStep):
            lines.append(f"assert-unit {step.name}")
        elif isinstance(step, AssertEqualStep):
            lines.append(f"assert {step.name} = {step.expr.render()}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown step {step!r}")
    return "\n".join(lines) + "\n"


_ASSUME_RE = re.compile(r"^#\s*assume\s+([A-Za-z_]\w*)\s*=\s*(.+?)\s*$")
_WITNESS_RE = re.compile(r"^#\s*witness\s+([ab])\s*=\s*(.+?)\s*$")


@dataclass(frozen=True)
class CertDirectives:
    """Machine-readable comments carried by a certificate file.

    `assume` lines name the extra relations (beyond the differentials) the
    replay expects on the table; `witness` lines record the pair whose
    product is asserted invertible when the file is fed to
    adjoin_and_derive.  They live in comments so the step grammar stays
    closed; parse_certificate ignores them entirely.
    """

    assumptions: tuple[tuple[str, NcPoly], ...]
    witnesses: Mapping[str, NcPoly]


def parse_cert_directives(text: str, ring: str = F2) -> CertDirectives:
    assumptions: list[tuple[str, NcPoly]] = []
    witnesses: dict[str, NcPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        try:
            m = _ASSUME_RE.match(line)
            if m:
                assumptions.append((m.group(1), parse_poly(m.group(2), ring)))
                continue
            m = _WITNESS_RE.match(line)
            if m:
                if m.group(1) in witnesses:
                    raise CertificateError(f"duplicate witness {m.group(1)}")
                witnesses[m.group(1)] = parse_poly(m.group(2), ring)
        except CertificateError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from exc
    return CertDirectives(tuple(assumptions), witnesses)


# ---------------------------------------------------------------------------
# replay


@dataclass
class CertReport:
    ok: bool
    table: dict[str, NcPoly]
    deps: dict[str, frozenset[str]]
    registered: tuple[str, ...]
    failure: Optional[str] = None
    failed_index: Optional[int] = None
    residual: Optional[NcPoly] = None

    def lines(self) -> list[str]:
        out = [f"steps registered: {len(self.registered)}"]
        if self.ok:
            out.append("certificate: PASS")
        else:
            out.append(f"certificate: FAIL at step {self.failed_index}: {self.failure}")
            if self.residual is not None:
                out.append(f"residual: {self.residual.render()}")
        return out


def _resolve_rules(rules: Sequence[tuple[str, NcPoly]]) -> Optional[dict[str, NcPoly]]:
    """Each ruled generator's image with no ruled generator left in it, found
    depth first on an explicit stack; None when the rules are cyclic."""
    rule_map = dict(rules)
    done: dict[str, NcPoly] = {}
    on_path: set[str] = set()
    for root in rule_map:
        if root in done:
            continue
        on_path.add(root)
        path = [(root, iter(rule_map[root].generators()))]
        while path:
            g, targets = path[-1]
            h = next((h for h in targets if h in rule_map and h not in done), None)
            if h is None:
                done[g] = _substitute_resolved(rule_map[g], done)
                on_path.discard(g)
                path.pop()
            elif h in on_path:
                return None
            else:
                on_path.add(h)
                path.append((h, iter(rule_map[h].generators())))
    return done


def _substitute_resolved(value: NcPoly, done: Mapping[str, NcPoly]) -> NcPoly:
    return substitute(value, {g: done[g] if g in done else NcPoly.gen(g, value.ring)
                              for g in value.generators()})


def _backing_relation(
    table: Mapping[str, NcPoly],
    gen: str,
    image: NcPoly,
    ring: str,
) -> Optional[str]:
    want = NcPoly.gen(gen, ring) - image
    wneg = -want
    for name, value in table.items():
        if value == want or value == wneg:
            return name
    return None


def verify_certificate(rs: RelationSet, cert: Certificate) -> CertReport:
    """Replay a certificate against a relation set, checking every step.

    Returns a report carrying the final relation table (initial relations
    plus every registered one) and per-relation dependency sets.  Soundness:
    each registered value is an explicit two-sided combination of initial
    relations and differentials, so it lies in the defining ideal.  A step
    that reads a generator outside the presentation raises CertificateError
    before any step is replayed.
    """
    known = set(rs.presentation.generators)
    for step in cert.steps:
        names = set()
        if isinstance(step, (DiffStep, AssertEqualStep)):
            names = step.expr.generators()
        elif isinstance(step, CombStep):
            names = names.union(*(u.generators() | v.generators() for u, _, v in step.terms))
        elif isinstance(step, SubstStep):
            names = names.union(*({g} | p.generators() for g, p in step.rules))
        if names - known:
            raise CertificateError(f"relation {step.name!r} uses unknown generators "
                                   f"{sorted(names - known)}")
    ring = rs.ring
    table = rs.table()
    deps: dict[str, frozenset[str]] = {name: frozenset({name}) for name in table}
    registered: list[str] = []
    derive: Optional[Callable[[NcPoly], NcPoly]] = None

    def fail(i: int, msg: str, residual: Optional[NcPoly] = None) -> CertReport:
        return CertReport(False, table, deps, tuple(registered), msg, i, residual)

    for i, step in enumerate(cert.steps):
        if isinstance(step, (DiffStep, CombStep, SubstStep)):
            if step.name in table:
                return fail(i, f"relation name {step.name!r} already registered")
        if isinstance(step, DiffStep):
            if rs.source is None:
                return fail(i, "diff step requires a relation set with a source DGA")
            if derive is None:
                derive = rs.source.derivation()
            if step.expr.ring != ring:
                return fail(i, "expression ring mismatch")
            value = derive(step.expr)
            dep: frozenset[str] = frozenset()
        elif isinstance(step, CombStep):
            value = NcPoly.zero(ring)
            dep = frozenset()
            for u, r, v in step.terms:
                if r not in table:
                    return fail(i, f"unknown relation {r!r}")
                value = value + u * table[r] * v
                dep |= deps[r]
        elif isinstance(step, SubstStep):
            if step.source not in table:
                return fail(i, f"unknown relation {step.source!r}")
            if len({g for g, _ in step.rules}) != len(step.rules):
                return fail(i, "duplicate generator in rule set")
            resolved = _resolve_rules(step.rules)
            if resolved is None:
                return fail(i, "substitution rules are cyclic")
            dep = deps[step.source]
            bad = None
            for g, p in step.rules:
                backing = _backing_relation(table, g, p, ring)
                if backing is None:
                    bad = g
                    break
                dep |= deps[backing]
            if bad is not None:
                return fail(i, f"rule {bad!r} not backed by a registered relation")
            value = _substitute_resolved(table[step.source], resolved)
        elif isinstance(step, AssertUnitStep):
            if step.name not in table:
                return fail(i, f"unknown relation {step.name!r}")
            if not table[step.name].is_one():
                return fail(i, f"relation {step.name!r} is not 1", table[step.name])
            continue
        elif isinstance(step, AssertEqualStep):
            if step.name not in table:
                return fail(i, f"unknown relation {step.name!r}")
            if table[step.name] != step.expr:
                return fail(
                    i,
                    f"relation {step.name!r} differs from asserted value",
                    table[step.name] - step.expr,
                )
            continue
        else:  # pragma: no cover - defensive
            return fail(i, f"unknown step type {type(step).__name__}")
        table[step.name] = value
        deps[step.name] = dep
        registered.append(step.name)
    return CertReport(True, table, deps, tuple(registered))


# ---------------------------------------------------------------------------
# unit certificates and the no-representation lemma


def verify_unit(g: DGA, e: NcPoly) -> bool:
    """True iff the differential of e normalizes to exactly 1.

    Such an e makes the characteristic algebra trivial (0 = 1), hence the
    contact homology vanishes.  As a consistency check, a successful witness
    must be homogeneous of grading 1 when gradings are present (the
    differential has degree -1); one that is not raises CertificateError.
    An e naming generators the DGA lacks raises ValueError.
    """
    unknown = sorted(e.generators() - set(g.presentation.generators))
    if unknown:
        raise ValueError(f"unknown generator(s) {', '.join(unknown)} in unit witness")
    value = g.derivation()(e)
    if not value.is_one():
        return False
    pres = g.presentation
    if pres.grading is not None:
        want = 1 % pres.modulus if pres.modulus else 1
        if any(pres.word_degree(word) != want for word in e.terms):
            raise CertificateError("unit witness is not homogeneous of grading 1")
    return True


@dataclass(frozen=True)
class NoRepVerdict:
    ok: bool
    detail: str
    report: CertReport


def adjoin_and_derive(rs: RelationSet, a: NcPoly, b: NcPoly, cert: Certificate) -> NoRepVerdict:
    """Decide "no finite-dimensional representation" via the one-sided-unit trick.

    If the quotient contains a relation a*b = 1 and adjoining b*a = 1 makes
    the algebra trivial, then no homomorphism to any matrix algebra Mat_n(F)
    exists: matrices with a one-sided inverse are invertible, so any
    representation would factor through the adjoined quotient, which is zero.

    The certificate is replayed with the extra relation named 'adjoined'
    (value b*a - 1).  Its first steps must establish a*b - 1 without using
    'adjoined' (or a*b - 1 must already be a relation), and it must end with
    assert-unit.  Only then is the verdict issued.
    """
    ring = rs.ring
    one = NcPoly.one(ring)
    target = a * b - one
    adjoined = b * a - one
    rs2 = rs.adjoin_all([("adjoined", adjoined)])
    report = verify_certificate(rs2, cert)
    if not report.ok:
        return NoRepVerdict(False, f"certificate failed: {report.failure}", report)
    if not cert.steps or not isinstance(cert.steps[-1], AssertUnitStep):
        return NoRepVerdict(False, "certificate does not end with assert-unit", report)

    names = list(report.table)
    first_use = None
    for idx, name in enumerate(names):
        if name != "adjoined" and "adjoined" in report.deps[name]:
            first_use = idx
            break
    established = None
    for idx, name in enumerate(names):
        if name == "adjoined" or "adjoined" in report.deps[name]:
            continue
        v = report.table[name]
        if v == target or v == -target or v.is_one():
            established = idx
            break
    if established is None:
        return NoRepVerdict(False, "a*b - 1 was never established without 'adjoined'", report)
    if first_use is not None and established > first_use:
        return NoRepVerdict(
            False, "'adjoined' was used before a*b - 1 was established", report
        )
    return NoRepVerdict(True, "derived 0 = 1 after adjoining b*a = 1", report)
