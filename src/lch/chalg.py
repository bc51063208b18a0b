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
values.

Replay is deterministic: substitution rule sets must be acyclic (checked).
The rules resolve in dependency order, each image after the ruled generators
it names, so no ruled generator is left in any image, and the source
relation is substituted once.  That is the fixpoint of repeated simultaneous
substitution, which the acyclicity makes finite and strategy-independent.
"""
from __future__ import annotations

import re
from graphlib import CycleError, TopologicalSorter
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .dga import DGA
from .freealg import (
    F2,
    GradedPresentation,
    NcPoly,
    content_lines,
    parse as parse_poly,
    record,
    substitute,
)


class CertificateError(ValueError):
    """Malformed certificate text or ill-founded step."""


# ---------------------------------------------------------------------------
# relation sets


@record
class RelationSet(NamedTuple("RelationSet", [
        ("source", DGA), ("relations", tuple[tuple[str, NcPoly], ...])])):
    """A DGA together with an ordered table of named relations over its
    presentation.

    Relations are the ideal generators of the quotient; a relation named n
    with value p asserts p = 0 in the quotient algebra.  The DGA's
    differential is what a certificate's diff step applies.  Instances are
    immutable; adjoining returns a new set.
    """

    __slots__ = ()

    def __new__(cls, source: DGA, relations: tuple[tuple[str, NcPoly], ...]):
        seen = set()
        known = set(source.presentation.generators)
        for name, value in relations:
            if name in seen:
                raise ValueError(f"duplicate relation name {name!r}")
            seen.add(name)
            if value.ring != source.presentation.ring:
                raise ValueError(f"relation {name!r} ring mismatch")
            unknown = value.generators() - known
            if unknown:
                raise ValueError(
                    f"relation {name!r} uses unknown generators {sorted(unknown)}"
                )
        return super().__new__(cls, source, relations)

    @property
    def presentation(self) -> GradedPresentation:
        return self.source.presentation

    @property
    def ring(self) -> str:
        return self.presentation.ring

    def table(self) -> dict[str, NcPoly]:
        return dict(self.relations)

    def adjoin_all(self, items: Iterable[tuple[str, NcPoly]]) -> "RelationSet":
        extra = tuple((name, value) for name, value in items)
        return RelationSet(self.source, self.relations + extra)


def char_algebra(g: DGA) -> RelationSet:
    """Relation set presenting the characteristic algebra of a DGA.

    One relation per generator, named d_<generator>, equal to its
    differential; zero differentials are kept as (vacuous) relations so the
    table is in bijection with the generators.
    """
    rels = tuple((f"d_{x}", g.d(x)) for x in g.presentation.generators)
    return RelationSet(g, rels)


# ---------------------------------------------------------------------------
# certificates


@record
class DiffStep(NamedTuple):
    name: str
    expr: NcPoly


@record
class CombStep(NamedTuple):
    name: str
    # terms (u, r, v): left cofactor, prior relation name, right cofactor
    terms: tuple[tuple[NcPoly, str, NcPoly], ...]


@record
class SubstStep(NamedTuple):
    name: str
    source: str
    rules: tuple[tuple[str, NcPoly], ...]


@record
class AssertUnitStep(NamedTuple):
    name: str


@record
class AssertEqualStep(NamedTuple):
    name: str
    expr: NcPoly


Step = Union[DiffStep, CombStep, SubstStep, AssertUnitStep, AssertEqualStep]


class Certificate(NamedTuple):
    steps: tuple[Step, ...]
    # the line each step was read from; equality compares the steps alone
    lines: tuple[int, ...]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.steps == other.steps

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.steps)


_NAME = r"[A-Za-z_]\w*"
_DIFF_RE = re.compile(rf"^diff\s+({_NAME})\s*=\s*D\(\s*(.*?)\s*\)$")
_COMB_RE = re.compile(rf"^comb\s+({_NAME})\s*=\s*(.*)$")
# a cofactor holds no parenthesis (parse_poly reads none), so each match is
# one way through the text and a malformed line is refused in linear time
_COMB_TERM = rf"\(([^()]*)\)\s*\*\s*({_NAME})\s*\*\s*\(([^()]*)\)"
_COMB_BODY_RE = re.compile(rf"{_COMB_TERM}(?:\s*\+\s*{_COMB_TERM})*")
_SUBST_RE = re.compile(rf"^subst\s+({_NAME})\s*=\s*({_NAME})\s+with\s+(.*)$")
_RULE_RE = re.compile(rf"^({_NAME})\s*->\s*(.*)$")
_AUNIT_RE = re.compile(rf"^assert-unit\s+({_NAME})$")
_AEQ_RE = re.compile(rf"^assert\s+({_NAME})\s*=\s*(.*)$")


def parse_certificate(text: str, ring: str = F2) -> Certificate:
    """Parse the line-oriented certificate format.

    Grammar (one step per line, # starts a comment):
      diff <name> = D( <poly> )
      comb <name> = ( <poly> ) * <rel> * ( <poly> ) [ + ... ]
      subst <name> = <rel> with <gen> -> <poly> [; <gen> -> <poly> ...]
      assert-unit <name>
      assert <name> = <poly>
    A comb cofactor, like every <poly>, holds no parentheses.
    """
    steps: list[Step] = []
    lines: list[int] = []
    for lineno, line in content_lines(text):
        try:
            steps.append(_parse_step(line, ring))
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
        lines.append(lineno)
    return Certificate(tuple(steps), tuple(lines))


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
        body = m.group(2)
        if not _COMB_BODY_RE.fullmatch(body):
            raise CertificateError(
                f"bad combination {body!r}: expected ( <poly> ) * <rel> * ( <poly> ) [ + ... ]")
        return CombStep(m.group(1), tuple(
            (parse_poly(u.strip(), ring), r, parse_poly(v.strip(), ring))
            for u, r, v in re.findall(_COMB_TERM, body)))
    m = _AUNIT_RE.match(line)
    if m:
        return AssertUnitStep(m.group(1))
    m = _AEQ_RE.match(line)
    if m:
        return AssertEqualStep(m.group(1), parse_poly(m.group(2), ring))
    raise CertificateError(f"unrecognized step {line!r}")


# a directive's polynomial ends where a trailing '#' comment starts
_ASSUME_RE = re.compile(rf"^#\s*assume\s+({_NAME})\s*=\s*([^#]+?)\s*(?:#.*)?$")
_WITNESS_RE = re.compile(r"^#\s*witness\s+([ab])\s*=\s*([^#]+?)\s*(?:#.*)?$")


class Directive(NamedTuple):
    line: int
    kind: str  # "assume" or "witness"
    name: str  # the assumed relation's name, or the witness "a" or "b"
    value: NcPoly


@record
class CertDirectives(NamedTuple):
    """Machine-readable comments carried by a certificate file.

    `assume` lines name the extra relations (beyond the differentials) the
    replay expects on the table; `witness` lines record the pair whose
    product is asserted invertible when the file is fed to
    adjoin_and_derive.  They live in comments so the step grammar stays
    closed; parse_certificate ignores them entirely.  Each is kept with its
    line, so that `check` can name the line it refuses.
    """

    entries: tuple[Directive, ...]

    @property
    def assumptions(self) -> tuple[tuple[str, NcPoly], ...]:
        return tuple((d.name, d.value) for d in self.entries if d.kind == "assume")

    @property
    def witnesses(self) -> dict[str, NcPoly]:
        return {d.name: d.value for d in self.entries if d.kind == "witness"}

    def check(self, presentation: GradedPresentation) -> None:
        """Raise CertificateError, naming the line and the directive, at the
        first directive that uses a generator the presentation lacks, or
        assumes a name that is repeated or reserved: d_<generator> names a
        differential, and 'adjoined' is the relation adjoin_and_derive adds."""
        known = set(presentation.generators)
        reserved = {f"d_{g}" for g in known} | {"adjoined"}
        seen: set[str] = set()
        for d in self.entries:
            where = f"line {d.line}: {d.kind} {d.name}"
            if d.kind == "assume":
                if d.name in reserved:
                    raise CertificateError(f"{where}: relation name {d.name!r} is reserved")
                if d.name in seen:
                    raise CertificateError(f"{where}: duplicate relation name {d.name!r}")
                seen.add(d.name)
            unknown = d.value.generators() - known
            if unknown:
                raise CertificateError(f"{where}: unknown generators {sorted(unknown)}")


def parse_cert_directives(text: str, ring: str = F2) -> CertDirectives:
    entries: list[Directive] = []
    witnesses: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        try:
            m = _ASSUME_RE.match(line)
            if m:
                entries.append(Directive(lineno, "assume", m.group(1),
                                         parse_poly(m.group(2), ring)))
                continue
            m = _WITNESS_RE.match(line)
            if m:
                if m.group(1) in witnesses:
                    raise CertificateError(f"duplicate witness {m.group(1)}")
                witnesses.add(m.group(1))
                entries.append(Directive(lineno, "witness", m.group(1),
                                         parse_poly(m.group(2), ring)))
        except ValueError as exc:
            raise CertificateError(f"line {lineno}: {exc}") from None
    return CertDirectives(tuple(entries))


# ---------------------------------------------------------------------------
# replay


@record
class CertReport(NamedTuple):
    ok: bool
    table: dict[str, NcPoly]
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
    """Each ruled generator's image with no ruled generator left in it,
    resolved after the ruled generators it names; None when the rules are
    cyclic, as a rule whose image names its own generator is."""
    rule_map = dict(rules)
    order = TopologicalSorter({g: p.generators() & rule_map.keys() for g, p in rule_map.items()})
    try:
        ruled = list(order.static_order())
    except CycleError:
        return None
    done: dict[str, NcPoly] = {}
    for g in ruled:
        done[g] = _substitute_resolved(rule_map[g], done)
    return done


def _substitute_resolved(value: NcPoly, done: Mapping[str, NcPoly]) -> NcPoly:
    return substitute(value, {g: done[g] if g in done else NcPoly.gen(g, value.ring)
                              for g in value.generators()})


def _backed(table: Mapping[str, NcPoly], gen: str, image: NcPoly, ring: str) -> bool:
    """Whether a registered relation equals +-(gen - image)."""
    want = NcPoly.gen(gen, ring) - image
    wneg = -want
    return any(value == want or value == wneg for value in table.values())


def verify_certificate(rs: RelationSet, cert: Certificate) -> CertReport:
    """Replay a certificate against a relation set, checking every step.

    Returns a report carrying the final relation table (initial relations
    plus every registered one).  Soundness: each registered value is an
    explicit two-sided combination of initial relations and differentials,
    so it lies in the defining ideal.  A step that reads a generator outside
    the presentation raises CertificateError, naming the step's line, before
    any step is replayed.
    """
    known = set(rs.presentation.generators)
    for step, line in zip(cert.steps, cert.lines):
        names = set()
        if isinstance(step, (DiffStep, AssertEqualStep)):
            names = step.expr.generators()
        elif isinstance(step, CombStep):
            names = names.union(*(u.generators() | v.generators() for u, _, v in step.terms))
        elif isinstance(step, SubstStep):
            names = names.union(*({g} | p.generators() for g, p in step.rules))
        if names - known:
            raise CertificateError(f"line {line}: relation {step.name!r} uses unknown "
                                   f"generators {sorted(names - known)}")
    ring = rs.ring
    table = rs.table()
    registered: list[str] = []
    derive: Optional[Callable[[NcPoly], NcPoly]] = None

    def fail(i: int, msg: str, residual: Optional[NcPoly] = None) -> CertReport:
        return CertReport(False, table, tuple(registered), msg, i, residual)

    for i, step in enumerate(cert.steps):
        if isinstance(step, (DiffStep, CombStep, SubstStep)):
            if step.name in table:
                return fail(i, f"relation name {step.name!r} already registered")
        if isinstance(step, DiffStep):
            if derive is None:
                derive = rs.source.derivation()
            if step.expr.ring != ring:
                return fail(i, "expression ring mismatch")
            value = derive(step.expr)
        elif isinstance(step, CombStep):
            value = NcPoly.zero(ring)
            for u, r, v in step.terms:
                if r not in table:
                    return fail(i, f"unknown relation {r!r}")
                value = value + u * table[r] * v
        elif isinstance(step, SubstStep):
            if step.source not in table:
                return fail(i, f"unknown relation {step.source!r}")
            if len({g for g, _ in step.rules}) != len(step.rules):
                return fail(i, "duplicate generator in rule set")
            resolved = _resolve_rules(step.rules)
            if resolved is None:
                return fail(i, "substitution rules are cyclic")
            bad = next((g for g, p in step.rules if not _backed(table, g, p, ring)), None)
            if bad is not None:
                return fail(i, f"rule {bad!r} not backed by a registered relation")
            value = _substitute_resolved(table[step.source], resolved)
        elif isinstance(step, AssertUnitStep):
            if step.name not in table:
                return fail(i, f"unknown relation {step.name!r}")
            if not table[step.name].is_one():
                return fail(i, f"relation {step.name!r} is not 1", table[step.name])
            continue
        else:  # AssertEqualStep, the last of the five step types parse_certificate builds
            if step.name not in table:
                return fail(i, f"unknown relation {step.name!r}")
            if table[step.name] != step.expr:
                return fail(
                    i,
                    f"relation {step.name!r} differs from asserted value",
                    table[step.name] - step.expr,
                )
            continue
        table[step.name] = value
        registered.append(step.name)
    return CertReport(True, table, tuple(registered))


# ---------------------------------------------------------------------------
# unit certificates and the no-representation lemma


def verify_unit(g: DGA, e: NcPoly) -> bool:
    """True iff the differential of e normalizes to exactly 1.

    Such an e makes the characteristic algebra trivial (0 = 1), hence the
    contact homology vanishes.  As a consistency check, a successful witness
    must be homogeneous of grading 1 mod the modulus (the differential has
    degree -1); one that is not raises CertificateError.
    An e naming generators the DGA lacks raises ValueError.
    """
    unknown = sorted(e.generators() - set(g.presentation.generators))
    if unknown:
        raise ValueError(f"unknown generator(s) {', '.join(unknown)} in unit witness")
    value = g.derivation()(e)
    if not value.is_one():
        return False
    if g.presentation.off_degree(e, 1) is not None:
        raise CertificateError("unit witness is not homogeneous of grading 1")
    return True


@record
class NoRepVerdict(NamedTuple):
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
    (value b*a - 1), and it must end with assert-unit.  Precondition: a*b - 1
    (up to sign), or 1, lies in rs's own ideal.  It is checked by replaying
    the certificate again on rs alone, which stops at the first step that
    needs 'adjoined' and registers only relations of rs's ideal: that table
    must hold a*b - 1 or 1.  Only then is the verdict issued.
    """
    one = NcPoly.one(rs.ring)
    inverse = (a * b - one, one - a * b)
    report = verify_certificate(rs.adjoin_all([("adjoined", b * a - one)]), cert)
    if not report.ok:
        return NoRepVerdict(False, f"certificate failed: {report.failure}", report)
    if not cert.steps or not isinstance(cert.steps[-1], AssertUnitStep):
        return NoRepVerdict(False, "certificate does not end with assert-unit", report)
    if any(v in inverse or v.is_one() for v in verify_certificate(rs, cert).table.values()):
        return NoRepVerdict(True, "derived 0 = 1 after adjoining b*a = 1", report)
    if any(v in inverse for name, v in report.table.items() if name != "adjoined"):
        return NoRepVerdict(
            False, "'adjoined' was used before a*b - 1 was established", report)
    return NoRepVerdict(False, "a*b - 1 was never established without 'adjoined'", report)
