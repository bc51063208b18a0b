#!/usr/bin/env python3
"""Search for the two-dimensional representation of the m(9_42) plat DGA.

The backtracking search is deterministic, so the committed rep file is
reproducible; expect a run of about half a minute.  The script prints how
many candidate matrices the search tried and why it stopped: "found",
"exhausted" (every candidate was tried) or "budget" (the node budget ran
out first).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lch import refdata
from lch.dga import compute_dga
from lch.freealg import F2
from lch.reps import _search, serialize_rep, verify_matrix_rep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--budget", type=int, default=10 ** 8)
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[1]
                    / "reps" / "m9_42_dim2.rep")
    args = ap.parse_args()

    g = compute_dga(refdata.m942_front(), F2)
    print(f"searching dim {args.n}, {len(g.presentation.generators)} generators ...")
    t0 = time.time()
    rho, reason, nodes = _search(g, args.n, args.budget)
    took = time.time() - t0
    print(f"stopped: {reason} after {nodes} nodes in {took:.1f}s")
    if rho is None:
        return 1
    if not verify_matrix_rep(g, rho):
        print("FAILED the representation found does not verify")
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(serialize_rep(rho))
    print(f"verified; wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
