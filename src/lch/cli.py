"""Command-line entry point for the whole pipeline.

Thin dispatchers only: each subcommand parses its inputs, calls one library
operation, and prints a deterministic report.  Exit codes are scriptable:
0 means verified or completed, 1 means an assertion failed, 2 means the
input or usage was bad.  Input faults surface as ValueError (CertificateError
and GradingError are subclasses), and main turns every one into a one-line
message and exit 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

from . import chalg, dga as dgamod, reps
from .freealg import F2, ZT, NcPoly, parse as parse_poly
from .plat import build_front, classical_invariants, maslov_grading, parse_plat

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


def _parse_file(path: str, parse: Callable[[str], _T]) -> _T:
    """parse applied to the file's text; a parse error names the file."""
    text = _read(path)
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_dga(path: str) -> dgamod.DGA:
    return _parse_file(path, dgamod.deserialize)


def _front_from_args(args) -> "FrontDiagram":
    return build_front(parse_plat(args.word, args.strands), base_cusp=args.base_cusp)


def _element_from_file(path: str, ring: str) -> NcPoly:
    def parse(text: str) -> NcPoly:
        return parse_poly("\n".join(ln for ln in text.splitlines()
                                    if not ln.strip().startswith("#")), ring)
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
    except RuntimeError as exc:  # the disk sweep's state cap
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
    """The DGA, and the certificate's steps and directives in its ring."""
    g = _load_dga(args.dga)
    ring = g.presentation.ring
    return g, *_parse_file(args.cert, lambda text: (chalg.parse_certificate(text, ring=ring),
                                                    chalg.parse_cert_directives(text, ring=ring)))


def cmd_verify_cert(args) -> int:
    g, cert, directives = _load_cert(args)
    rs = chalg.char_algebra(g).adjoin_all(directives.assumptions)
    report = chalg.verify_certificate(rs, cert)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_verify_norep(args) -> int:
    g, cert, directives = _load_cert(args)
    missing = {"a", "b"} - set(directives.witnesses)
    if missing:
        raise ValueError(f"certificate lacks witness line(s) for {sorted(missing)}")
    verdict = chalg.adjoin_and_derive(
        chalg.char_algebra(g), directives.witnesses["a"], directives.witnesses["b"], cert)
    print(verdict.detail)
    return EXIT_OK if verdict.ok else EXIT_FAIL


def cmd_verify_rep(args) -> int:
    g = _load_dga(args.dga)
    rho = _parse_file(args.rep, reps.deserialize_rep)
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
    g = _load_dga(args.dga)
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
    g = _load_dga(args.dga)
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
    sp.add_argument("--base-cusp", default=None,
                    help="right cusp carrying the base point (default: last)")


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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
