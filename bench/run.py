"""Benchmark of the lch pipeline: one seeded workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 32 --trace 0

The run sets up several times (import of lch from ./src, reading of the
bundled files, the workload's seeded inputs) and keeps the last set-up.  It
then makes a fixed number of passes over the workload's items and checks
every verdict against its known answer.  The first pass takes the items in
their listed order, so that the memory peak read after it does not depend on
the seed; later passes take them in an order shuffled by the seed.  With
--trace 1 every other pass records one span per call into lch; the passes
in between stay untraced, which gives the tracing overhead.

Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The run record, with
the spans of a traced run, is written under bench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median, median_low
from types import SimpleNamespace

import items
from measure import Tracer, call_totals, layer_self_times, tail

LAYERS = ("plat", "dga", "freealg", "chalg", "reps", "cli")
SETUPS = 9
SHOW_FAILURES = 5

# a run makes round(seconds / PASS_S) passes, a number fixed by --seconds
# alone, so every run of a workload pools the same number of samples and the
# tail rule picks the same rank.  A pass takes about 1.1 s (sweep), 2.7 s
# (certify) and 11 s (search) on a 2-core x86-64 VM.
PASS_S = {"sweep": 1.3, "certify": 2.6, "search": 11.0}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

CALLS = (
    "plat.parse_plat", "plat.build_front", "plat.classical_invariants",
    "plat.maslov_grading",
    "dga.compute_dga", "dga.torus_dga", "dga.check_d_squared", "dga.check_homogeneous",
    "dga.dga_diag_equivalent", "dga.specialize_dga", "dga.serialize", "dga.deserialize",
    "freealg.derive", "freealg.parse",
    "chalg.parse_certificate", "chalg.parse_cert_directives", "chalg.char_algebra",
    "chalg.adjoin_all", "chalg.verify_certificate", "chalg.adjoin_and_derive",
    "chalg.verify_unit",
    "reps.verify_R_relations.N256", "reps.verify_R_relations.N512",
    "reps.verify_R_relations.N1024", "reps.search_matrix_rep.n2",
    "reps.search_matrix_rep.n3", "reps.find_augmentations", "reps.verify_matrix_rep",
    "reps.torus_rep", "reps.mat2_presentation_check", "reps.serialize_rep",
    "reps.deserialize_rep", "reps.build_R_truncated", "reps.check_R_relations",
    "cli.main",
)
COUNTS = (
    "dga.compute_dga.terms", "freealg.derive.terms", "chalg.verify_certificate.steps",
    "reps.search_matrix_rep.found", "reps.search_matrix_rep.inconclusive",
    "reps.find_augmentations.solutions",
)


def per_layer_units() -> list[tuple[str, str]]:
    """Every metric a traced run prints, in order, with its unit."""
    out = []
    for name in CALLS:
        out += [(f"{name}.s", "s"), (f"{name}.calls", "count")]
    out += [(name, "count") for name in COUNTS]
    out += [(f"{layer}.self.s", "s") for layer in LAYERS + ("bench",)]
    out += [
        ("trace.overhead_pct", "%"),
        ("trace.spans", "count"),
        ("fail_ratio", "ratio"),
        ("verdict_ms.tail.pct", "%"),
        ("verdict_ms.samples", "count"),
    ]
    return out


class SetupError(Exception):
    """The checkout lacks what the benchmark needs."""


def setup(root: Path, work: Path, workload: str, seed: int):
    """Import lch afresh from root/src and make the workload's inputs."""
    if not (root / "src" / "lch" / "__init__.py").is_file():
        raise SetupError(f"no lch package under {root / 'src'}")
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    for name in [m for m in sys.modules if m == "lch" or m.startswith("lch.")]:
        del sys.modules[name]
    lch = SimpleNamespace(**{m: importlib.import_module(f"lch.{m}")
                             for m in LAYERS + ("refdata",)})
    origin = Path(lch.cli.__file__).resolve()
    if not origin.is_relative_to((root / "src").resolve()):
        raise SetupError(f"lch was imported from {origin}, not from {root / 'src'}")
    try:
        inp = items.prepare(lch, root, work, workload, seed)
    except OSError as exc:
        raise SetupError(f"cannot read the bundled files: {exc}") from None
    return lch, inp


def run_item(item: items.Item, tr: Tracer) -> tuple[str, str]:
    """Outcome of one item: ok, wrong, refused or error, with a detail."""
    try:
        with tr.item(item.id):
            item.run(tr)
    except items.WrongVerdict as exc:
        return "wrong", str(exc)
    except items.Refused as exc:
        return "refused", str(exc)
    except Exception as exc:  # any other exception is a failed item, not a crash
        return "error", f"{type(exc).__name__}: {exc}"
    return "ok", ""


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(items.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    out_dir = Path(__file__).resolve().parent / "out"
    setup_s = []
    try:
        for _ in range(SETUPS):
            start = time.perf_counter()
            lch, inp = setup(root, out_dir / "work", args.workload, args.seed)
            setup_s.append(time.perf_counter() - start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    todo = items.WORKLOADS[args.workload](lch, inp)
    passes = max(2 if args.trace else 1, round(args.seconds / PASS_S[args.workload]))
    order_rng = random.Random(f"order:{args.seed}")
    samples = []
    walls = {False: [], True: []}  # pass times by tracing
    traced: list[Tracer] = []
    outcomes: dict[str, int] = {}
    failures: dict[str, str] = {}
    peak_rss_mb = 0.0
    for p in range(passes):
        tr = Tracer(enabled=bool(args.trace) and p % 2 == 0)
        order = list(todo)
        if p > 0:
            order_rng.shuffle(order)
        pass_s = 0.0
        for it in order:
            start = time.perf_counter()
            outcome, detail = run_item(it, tr)
            took = time.perf_counter() - start
            samples.append(took)
            pass_s += took
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if outcome != "ok":
                failures.setdefault(it.id, f"{outcome}: {detail}")
        walls[tr.enabled].append(pass_s)
        if tr.enabled:
            traced.append(tr)
        if p == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(samples)
    failed = attempted - outcomes.get("ok", 0)
    correct = not outcomes.get("wrong") and not outcomes.get("error")
    tail_s, tail_pct, beyond = tail(samples)
    fail_ratio = failed / attempted
    if args.trace:
        metrics = per_layer(traced, walls)
        metrics.update({"fail_ratio": fail_ratio, "verdict_ms.tail.pct": tail_pct,
                        "verdict_ms.samples": attempted})
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": median(setup_s),
            "wall_s": median(walls[False]),
            "verdict_ms.p50": 1000 * median(samples),
            "verdict_ms.tail": 1000 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  items/pass {len(todo)}")
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"fail_ratio = {fail_ratio:.6g} ratio")
    print(f"outcomes of {attempted} items: "
          + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    print(f"verdict_ms.tail at p{tail_pct:.2f} of {attempted} samples, {beyond} beyond")
    for item_id, why in sorted(failures.items())[:SHOW_FAILURES]:
        print(f"failed {item_id}: {why}")
    if len(failures) > SHOW_FAILURES:
        print(f"... {len(failures) - SHOW_FAILURES} more failed items in the run record")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes, "items_per_pass": len(todo),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)), "git_commit": git_commit(root),
        "setup_s": setup_s, "pass_s": walls[False], "traced_pass_s": walls[True],
        "peak_rss_mb_after_first_pass": peak_rss_mb,
        "peak_rss_mb_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tail": {"percentile": tail_pct, "samples": attempted, "beyond": beyond},
        "fail_ratio": fail_ratio, "outcomes": outcomes, "failures": failures,
        "correct": correct, "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as fh:
            for k, tr in enumerate(traced):
                for i, s in enumerate(tr.spans):
                    fh.write(json.dumps([k, i, s.name, s.start, s.end, s.parent, s.item]) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


def per_layer(traced: list[Tracer], walls: dict[bool, list[float]]) -> dict[str, float]:
    """Per-layer medians over the traced passes, and the tracing overhead."""
    rows = []
    for tr in traced:
        seconds, calls = call_totals(tr.spans)
        unknown = set(seconds) - set(CALLS) - {"bench.item"}
        if unknown:
            raise ValueError(f"spans without a metric: {sorted(unknown)}")
        row = {}
        for name in CALLS:
            row[f"{name}.s"] = seconds.get(name, 0.0)
            row[f"{name}.calls"] = calls.get(name, 0)
        row.update({name: tr.counts.get(name, 0) for name in COUNTS})
        own = layer_self_times(tr.spans)
        row.update({f"{layer}.self.s": own.get(layer, 0.0)
                    for layer in LAYERS + ("bench",)})
        row["trace.spans"] = len(tr.spans)
        rows.append(row)
    out = {name: (median if name.endswith(".s") else median_low)([r[name] for r in rows])
           for name in rows[0]}
    out["trace.overhead_pct"] = 100 * (median(walls[True]) / median(walls[False]) - 1)
    return out


if __name__ == "__main__":
    sys.exit(main())
