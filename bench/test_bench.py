"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/test_bench.py

Run from the root of the repository; the last tests import lch from src/.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import items
import run
from measure import Span, Tracer, layer_self_times, self_times, tail

ROOT = Path(__file__).resolve().parents[1]


# ---- the tail rule ----

def test_tail_has_exactly_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    assert tail(samples) == (90.0, 90.0, 10)


def test_tail_percentile_follows_the_sample_count():
    value, pct, beyond = tail([float(v) for v in range(1, 27)])
    assert (value, beyond) == (16.0, 10)
    assert pct == pytest.approx(100 * 16 / 26)


def test_tail_never_falls_below_the_median():
    value, pct, beyond = tail([float(v) for v in range(1, 13)])
    assert (value, pct, beyond) == (6.0, 50.0, 6)
    assert tail([7.0]) == (7.0, 100.0, 0)


def test_tail_counts_ties_by_rank():
    assert tail([1.0] * 5 + [2.0] * 30) == (2.0, 100 * 25 / 35, 10)


# ---- span self time ----

def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        Span("bench.item", 0.0, 10.0, None, "i"),
        Span("dga.compute_dga", 1.0, 3.0, 0, "i"),
        Span("dga.serialize", 2.0, 5.0, 0, "i"),  # overlaps its sibling
        Span("reps.torus_rep", 8.0, 12.0, 0, "i"),  # sticks out of the parent
        Span("freealg.derive", 1.5, 2.5, 1, "i"),  # grandchild
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])
    assert layer_self_times(spans) == pytest.approx(
        {"bench": 4.0, "dga": 4.0, "reps": 4.0, "freealg": 1.0})


def test_tracer_nests_spans_and_stays_silent_when_disabled():
    tr = Tracer(enabled=True)
    with tr.item("x"):
        assert tr.call("plat.outer", lambda: tr.call("plat.inner", lambda: 7)) == 7
    tr.count("plat.things", 2)
    names = [(s.name, s.parent, s.item) for s in tr.spans]
    assert names == [("bench.item", None, "x"), ("plat.outer", 0, "x"), ("plat.inner", 1, "x")]
    assert all(s.start <= s.end for s in tr.spans)
    assert tr.counts == {"plat.things": 2}
    off = Tracer(enabled=False)
    with off.item("x"):
        assert off.call("plat.outer", lambda: 7) == 7
    off.count("plat.things", 2)
    assert off.spans == [] and off.counts == {}


# ---- known answers ----

M942_REP = (ROOT / "reps" / "m9_42_dim2.rep").read_text()


def test_pinned_digest_rejects_a_flipped_bit(monkeypatch):
    monkeypatch.setattr(items, "PINS", {"rep": items.digest(M942_REP)})
    items.expect_pin("rep", M942_REP)
    flipped = items.flip_rep_bit(M942_REP, "x10", 0)
    assert flipped.count("\n") == M942_REP.count("\n") and flipped != M942_REP
    with pytest.raises(items.WrongVerdict):
        items.expect_pin("rep", flipped)


def certify_items(lch=None):
    real, inp = run.setup(ROOT, ROOT / "bench" / "out" / "work", "certify", 0)
    return {it.id: it for it in items.certify(lch or real, inp)}, real


def test_program_rejects_the_flipped_rep():
    todo, _ = certify_items()
    for name in ("certify.m942_rep", "certify.neg.rep_bit_flipped"):
        assert run.run_item(todo[name], Tracer(False)) == ("ok", "")


def test_an_accepted_negative_control_is_a_wrong_verdict():
    _, real = certify_items()
    lenient = SimpleNamespace(**vars(real))
    lenient.reps = SimpleNamespace(**vars(real.reps))
    lenient.reps.verify_matrix_rep = lambda target, rho: True
    todo, _ = certify_items(lenient)
    outcome, detail = run.run_item(todo["certify.neg.rep_bit_flipped"], Tracer(False))
    assert (outcome, detail) == ("wrong", "flipped bit must fail")


# ---- refusals ----

def sweep_with_failing_compute(message: str, kind=RuntimeError):
    real, _ = run.setup(ROOT, ROOT / "bench" / "out" / "work", "search", 0)
    lch = SimpleNamespace(**vars(real))
    lch.dga = SimpleNamespace(**vars(real.dga))

    def compute_dga(front, ring):
        raise kind(message)
    lch.dga.compute_dga = compute_dga
    ref = lch.refdata
    return (items.sweep_plat_item(lch, "k2", ref.K2_WORD, ref.K2_STRANDS, tb=-1),
            items.sweep_plat_item(lch, None, "2,2,2", 4))


CAP = "disk sweep for c3 exceeded 200000 states per slice"


def test_only_the_sweep_cap_on_a_random_plat_is_a_refusal():
    fixed, random_plat = sweep_with_failing_compute(CAP)
    assert run.run_item(random_plat, Tracer(False)) == ("refused", CAP)
    outcome, detail = run.run_item(fixed, Tracer(False))
    assert (outcome, detail) == ("error", f"RuntimeError: {CAP}")


@pytest.mark.parametrize("message, kind", [
    ("disk sweep for c3 left 4 open states", RuntimeError),
    (CAP, RecursionError),
])
def test_other_sweep_failures_are_errors(message, kind):
    for it in sweep_with_failing_compute(message, kind):
        assert run.run_item(it, Tracer(False))[0] == "error"


# ---- the metric lists agree with BENCHMARK.json ----

def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(items.WORKLOADS)
