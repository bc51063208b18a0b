#!/usr/bin/env python3
"""Regenerate the bundled files that are computed from lch.refdata.

These are the two reference tables, the k1 unit expression and the k1
triviality certificate.  The k2 certificates are not built here: the files
in certs/ are their hand-written source, pinned by digest in the tier-1
suite.  `--check` writes nothing: it compares the files on disk with these
builders byte for byte and exits 1 when any is stale.  The tier-1 suite
runs that check (tests/test_cli.py), so rerun this script after touching
either side.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lch import refdata
from lch.dga import serialize


def targets(root: pathlib.Path) -> dict[pathlib.Path, str]:
    return {
        root / "data" / "k1_appendixA.dga": serialize(refdata.k1_reference_dga()),
        root / "data" / "k2_appendixB.dga": serialize(refdata.k2_reference_dga()),
        root / "certs" / "k1_trivial.cert": refdata.k1_trivial_cert_text(),
        root / "certs" / "k1_unit.expr": refdata.k1_unit_expr_text(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1])
    ap.add_argument("--check", action="store_true",
                    help="verify files instead of writing them")
    args = ap.parse_args()

    stale = []
    for path, text in targets(args.root).items():
        if args.check:
            if not path.exists() or path.read_text() != text:
                stale.append(path)
                print(f"STALE {path}")
            else:
                print(f"ok    {path}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            print(f"wrote {path} ({len(text)} bytes)")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
