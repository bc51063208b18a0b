"""Command-line entry point for the whole pipeline.

Thin dispatchers only: each subcommand parses its inputs, calls one library
operation, and prints a deterministic report.  Exit codes are scriptable:
0 means verified or completed, 1 means an assertion failed, 2 means the
input or usage was bad.  Input faults surface as ValueError (CertificateError
and GradingError are subclasses), and main turns every one into a one-line
message and exit 2, as it does a MemoryError or RecursionError.  A fault in
an input file, whether in its syntax or against the DGA, names the file.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import chalg, dga as dgamod, reps
from .freealg import F2, ZT, NcPoly, content_lines, parse as parse_poly
from .plat import FrontDiagram, build_front, classical_invariants, maslov_grading, parse_plat

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_RINGS = {"f2": F2, "zt": ZT}

_T = TypeVar("_T")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _naming(path: str):
    """A ValueError raised inside is about this file, and names it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_file(path: str, parse: Callable[[str], _T]) -> _T:
    """parse applied to the file's text; a parse error names the file."""
    text = _read(path)
    with _naming(path):
        return parse(text)


def _load_dga(path: str) -> dgamod.DGA:
    return _parse_file(path, dgamod.deserialize)


def _load_f2_dga(path: str) -> dgamod.DGA:
    """A table for the representation commands, which work over F2 only."""
    g = _load_dga(path)
    if g.presentation.ring != F2:
        raise ValueError(f"{path}: representations are supported over F2 only")
    return g


def _front_from_args(args) -> FrontDiagram:
    return build_front(parse_plat(args.word, args.strands))


def _parse_error(text: str, ring: str) -> Optional[ValueError]:
    """parse's error on text cut after its last factor, if it has one."""
    text = re.sub(r"[\s+*-]+$", "", text)
    try:
        if text:
            parse_poly(text, ring)
    except ValueError as exc:
        return exc
    return None


def _element_from_file(path: str, ring: str) -> NcPoly:
    """The polynomial that the file's lines spell, # comments aside.

    A line break is whitespace to the grammar, so a term may span lines.  A
    bad file names the first line at which the lines read so far, cut after
    their last factor, fail, or else the last line, whose ending separator
    is then at fault.  Lines that fail still fail with one more line read
    (unless its t cancels a term's t over F2), so a bisection finds it.  The
    message is the line's own error, leading separators cut, or if the line
    is good alone, the error of all the lines read.
    """
    def parse(text: str) -> NcPoly:
        lines = list(content_lines(text))
        body = "\n".join(ln for _, ln in lines)
        try:
            return parse_poly(body, ring)
        except ValueError as exc:
            if re.fullmatch(r"[\s+]*", body):
                raise  # the file holds no term, which no line is to blame for

            def read_to(i: int) -> Optional[ValueError]:
                return _parse_error("\n".join(ln for _, ln in lines[:i + 1]), ring)
            i = min(bisect.bisect_left(range(len(lines)), True, key=lambda i: bool(read_to(i))),
                    len(lines) - 1)
            n, ln = lines[i]
            alone = _parse_error(re.sub(r"^[\s+*]+", "", ln), ring)
            raise ValueError(f"line {n}: {alone or read_to(i) or exc}") from None
    return _parse_file(path, parse)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# ---- subcommands ----

def cmd_dga(args) -> int:
    front = _front_from_args(args)
    try:
        g = dgamod.compute_dga(front, _RINGS[args.ring])
    except RuntimeError as exc:  # the disk sweep's cap on words held after a crossing
        raise ValueError(str(exc)) from None
    _emit(dgamod.serialize(g), args.out)
    return EXIT_OK


def cmd_invariants(args) -> int:
    front = _front_from_args(args)
    tb, r = classical_invariants(front)
    print(f"tb = {tb}")
    print(f"r = {r}")
    return EXIT_OK


def cmd_grading(args) -> int:
    front = _front_from_args(args)
    table = maslov_grading(front)
    print(f"modulus = {table.modulus}")
    for name in front.generator_names:
        print(f"deg {name} = {table.grading[name]}")
    return EXIT_OK


def cmd_torus_dga(args) -> int:
    front, g, lab = dgamod.torus_dga(args.p, args.q)
    _emit(dgamod.serialize(g), args.out)
    return EXIT_OK


def cmd_verify_d2(args) -> int:
    g = _load_dga(args.dga)
    bad = dgamod.check_d_squared(g)
    if bad is None:
        print("d2 = 0 on all generators")
        return EXIT_OK
    name, residue = bad
    print(f"FAILED d2({name}) = {residue.render()}")
    return EXIT_FAIL


def cmd_verify_unit(args) -> int:
    g = _load_dga(args.dga)
    e = _element_from_file(args.element_file, g.presentation.ring)
    with _naming(args.element_file):  # e names a generator the DGA lacks
        try:
            ok = chalg.verify_unit(g, e)
        except chalg.CertificateError as exc:
            print(f"FAILED {exc}")
            return EXIT_FAIL
    if ok:
        print("d(element) = 1: algebra is trivial")
        return EXIT_OK
    print("FAILED d(element) is not the unit")
    return EXIT_FAIL


def _load_cert(args):
    """The DGA, and the certificate's steps and directives in its ring, the
    directives checked against the DGA's generators."""
    g = _load_dga(args.dga)
    ring = g.presentation.ring

    def parse(text: str):
        cert = chalg.parse_certificate(text, ring=ring)
        directives = chalg.parse_cert_directives(text, ring=ring)
        directives.check(g.presentation)
        return cert, directives
    return g, *_parse_file(args.cert, parse)


def cmd_verify_cert(args) -> int:
    g, cert, directives = _load_cert(args)
    rs = chalg.char_algebra(g).adjoin_all(directives.assumptions)
    with _naming(args.cert):  # a step names a generator the DGA lacks
        report = chalg.verify_certificate(rs, cert)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify_norep(args) -> int:
    g, cert, directives = _load_cert(args)
    witnesses = directives.witnesses
    with _naming(args.cert):
        missing = {"a", "b"} - set(witnesses)
        if missing:
            raise ValueError(f"certificate lacks witness line(s) for {sorted(missing)}")
        verdict = chalg.adjoin_and_derive(
            chalg.char_algebra(g), witnesses["a"], witnesses["b"], cert)
    print(verdict.detail)
    return EXIT_OK if verdict.ok else EXIT_FAIL


def cmd_verify_rep(args) -> int:
    g = _load_f2_dga(args.dga)
    rho = _parse_file(args.rep, reps.deserialize_rep)
    with _naming(args.rep):  # an image missing, or one for a generator the DGA lacks
        ok = reps.verify_matrix_rep(g, rho)
    print(f"representation of dimension {rho.n}: {'verified' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_torus(args) -> int:
    front, g, lab = dgamod.torus_dga(args.p, args.q)
    rho = reps.torus_rep(args.p, args.q, lab)
    ok = reps.verify_matrix_rep(g, rho)
    print(f"torus({args.p},{args.q}) representation: {'verified' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify_R(args) -> int:
    report = reps.verify_R_relations(args.n)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_search_aug(args) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    g = _load_f2_dga(args.dga)
    found, reason, _ = reps._augmentations(g, args.graded, args.budget)
    gens = g.presentation.generators
    for eps in found:
        print(" ".join(f"{name}={eps[name]}" for name in gens))
    if reason == "budget":
        print(f"{len(found)} augmentation(s) within budget (inconclusive)")
    else:
        print(f"{len(found)} augmentation(s)")
    return EXIT_OK


def cmd_search_matrep(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be a positive dimension, got {args.n}")
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    g = _load_f2_dga(args.dga)
    rho, reason, _ = reps._search(g, args.n, args.budget)
    if reason == "budget":
        print("0 representation(s) within budget (inconclusive)")
        return EXIT_OK
    if reason == "exhausted":
        print("0 representation(s): search space exhausted (not a nonexistence certificate)")
        return EXIT_OK
    if not reps.verify_matrix_rep(g, rho):
        print("FAILED the representation found does not verify")
        return EXIT_FAIL
    _emit(reps.serialize_rep(rho), args.out)
    print("1 representation(s)")
    return EXIT_OK


# ---- argument plumbing ----

def _add_plat_args(sp) -> None:
    sp.add_argument("word", help="comma-separated braid letters, may be empty")
    sp.add_argument("--strands", type=int, required=True,
                    help="even number of strands of the plat")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lch",
        description="Legendrian knot DGAs, characteristic algebras, and representations")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dga", help="compute and print a plat DGA")
    _add_plat_args(p)
    p.add_argument("--ring", choices=sorted(_RINGS), default="f2")
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.set_defaults(fn=cmd_dga)

    p = sub.add_parser("invariants", help="Thurston-Bennequin and rotation numbers")
    _add_plat_args(p)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("grading", help="Maslov degrees of all generators")
    _add_plat_args(p)
    p.set_defaults(fn=cmd_grading)

    p = sub.add_parser("torus-dga", help="DGA of the maximal torus knot T(p,-q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_torus_dga)

    v = sub.add_parser("verify", help="replay a check; exit 0 iff it passes")
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("d2", help="differential squares to zero")
    p.add_argument("--dga", required=True)
    p.set_defaults(fn=cmd_verify_d2)

    p = vsub.add_parser("unit", help="an element's differential is exactly 1")
    p.add_argument("--dga", required=True)
    p.add_argument("--element-file", required=True)
    p.set_defaults(fn=cmd_verify_unit)

    p = vsub.add_parser("cert", help="replay a derivation certificate")
    p.add_argument("--dga", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify_cert)

    p = vsub.add_parser("norep", help="no finite-dimensional representations")
    p.add_argument("--dga", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify_norep)

    p = vsub.add_parser("rep", help="a matrix representation file verifies")
    p.add_argument("--dga", required=True)
    p.add_argument("--rep", required=True)
    p.set_defaults(fn=cmd_verify_rep)

    p = vsub.add_parser("torus", help="the explicit torus representation verifies")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=cmd_verify_torus)

    p = vsub.add_parser("R", help="truncated operator model of the quotient algebra")
    p.add_argument("--n", type=int, default=256)
    p.set_defaults(fn=cmd_verify_R)

    s = sub.add_parser("search", help="enumerate representations")
    ssub = s.add_subparsers(dest="kind", required=True)

    p = ssub.add_parser("aug", help="all augmentations of a DGA file")
    p.add_argument("--dga", required=True)
    p.add_argument("--graded", action="store_true")
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="candidate values to try, counted in enumeration order")
    p.set_defaults(fn=cmd_search_aug)

    p = ssub.add_parser("matrep", help="first matrix representation, if any")
    p.add_argument("--dga", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="candidate matrices to try, counted in enumeration order")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_search_matrep)

    return ap


_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the parser is built once per process, on the first call, and reused:
    # parse_args keeps no state between calls, and building the tree costs
    # far more than parsing with it
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # bad file or argument contents
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as exc:  # an input beyond a resource limit
        print(f"error: input too large: {type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
