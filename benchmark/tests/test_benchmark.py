"""Self-tests of the benchmark's own arithmetic and bookkeeping."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import measure  # noqa: E402
import spans as sp  # noqa: E402
from rdmpt2 import vqe  # noqa: E402
from workloads import WORKLOADS, point_outcome  # noqa: E402


def test_self_time_of_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7] and d [6.5, 8],
    # which overlap, so b's covered time is their union [6, 8].
    spans = [sp.Span("root", 0.0, 10.0),
             sp.Span("a", 1.0, 4.0, parent=0),
             sp.Span("b", 5.0, 9.0, parent=0),
             sp.Span("c", 6.0, 7.0, parent=2),
             sp.Span("d", 6.5, 8.0, parent=2)]
    assert sp.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    assert sp.roots(spans) == [0, 0, 0, 0, 0]
    assert sp.union_length([(0, 2), (1, 3), (5, 6)], lo=0.5, hi=5.5) == pytest.approx(3.0)


def test_tracer_nests_patches_and_restores():
    ticks = iter(range(100))
    owner = SimpleNamespace(inner=lambda x: x + 1)
    holder = SimpleNamespace(outer=lambda x: owner.inner(x) * 2)
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))
    tracer.patch(owner, "inner", "inner", note=lambda r: r)
    tracer.patch(holder, "outer", lambda args, kwargs: f"outer{args[0]}")
    assert holder.outer(3) == 8
    tracer.restore()
    assert holder.outer(3) == 8 and len(tracer.spans) == 2
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("outer3", None)
    assert (inner_span.name, inner_span.parent, inner_span.note) == ("inner", 0, 4)
    with pytest.raises(AttributeError):
        tracer.patch(owner, "renamed", "x")


def test_tracer_records_errors():
    tracer = sp.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.span("boom"):
            1 / 0
    assert tracer.spans[0].error == "ZeroDivisionError"
    assert tracer.spans[0].end >= tracer.spans[0].start


def test_tail_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        sp.tail_percentile(range(49), 80)
    values = list(range(50))
    p80 = sp.tail_percentile(values, 80)
    assert p80 == pytest.approx(39.2)  # linear interpolation, like numpy's default
    assert sum(v > p80 for v in values) == 10
    assert sp.tail_percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        sp.tail_percentile(range(99), 90)


def test_missing_fixture_counts_as_failed_point():
    workload = WORKLOADS["nah_exact"]
    spec = vqe.ScanSpec(molecule="nah", geometries=[9.99], shots=None, noise=None)
    record, = vqe.run_scan(spec)
    assert record.error is not None
    attempted, failed, problems = point_outcome(record, workload)
    assert (attempted, failed) == (1, 1)
    assert problems and "point error" in problems[0]


def test_failed_evaluations_are_counted():
    workload = WORKLOADS["nah_exact"]
    good = {"e_raw": -1.0, "e_pure": -1.0, "e_pt2_frozen": -1.0, "e_pt2_full": -1.0}
    record = vqe.RunRecord(fixture_id="x", geometry=1.0, seed=0, iterations=[
        good, dict(good, e_pure=None, note="purification failed: x"),
        dict(good, e_pt2_full=None), good])
    record.references = {"e_fci_frozen": -1.0, "e_fci_full": -1.2, "e_hf_mp2_full": -1.1}
    record.finalize()
    attempted, failed, problems = point_outcome(record, workload)
    # four evaluations plus the point; two evaluations failed and the point
    # misses the full-space check (0.2 Ha from FCI against HF-MP2's 0.1)
    assert (attempted, failed) == (5, 3)
    assert len(problems) == 1 and "HF-MP2" in problems[0]


def test_noisy_allowance_does_not_widen_with_scatter():
    # e_pure is 2 mHa above FCI on average, and its last five iterations
    # scatter by 5 mHa: still outside H2's fixed allowance, inside LiH's.
    fci = -1.0
    iterations = [{"e_raw": fci, "e_pure": fci + 2e-3 + d, "e_pt2_frozen": fci,
                   "e_pt2_full": -1.2} for d in (-5e-3, 5e-3, -5e-3, 5e-3, 0.0)]
    record = vqe.RunRecord(fixture_id="x", geometry=1.0, seed=0, iterations=iterations)
    record.references = {"e_fci_frozen": fci, "e_fci_full": -1.2, "e_hf_mp2_full": -1.1}
    record.finalize()
    assert record.combined_error["e_pure"] > 4e-3
    h2_problems = point_outcome(record, WORKLOADS["h2_shots8192"])[2]
    assert len(h2_problems) == 1 and h2_problems[0].startswith("|e_pure")
    assert point_outcome(record, WORKLOADS["lih_bootstrap"])[2] == []


def test_benchmark_json_lists_every_reported_metric():
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in cfg["per_layer"]} == measure.per_layer_units()
    assert [w["name"] for w in cfg["workloads"]] == list(WORKLOADS)
