"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest e2ebench/tests -q``.
"""

from __future__ import annotations

import json

import pytest

import common
import fleet
import layers
import pins
import points
import run
import spans
import sweep
from common import BenchError


def test_self_time_subtracts_union_of_nested_children():
    recorded = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),        # overlaps a
        spans.Span("a.inner", 1.0, 2.0, parent=1),
        spans.Span("late", 9.0, 12.0, parent=0),    # runs past its parent
    ]
    own = spans.self_times(recorded)
    # root: 10 minus the union [1, 6] and [9, 10] of its children.
    assert own == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    totals = spans.self_time_by_name(recorded + [
        spans.Span("a", 20.0, 21.0)])
    assert totals["a"] == pytest.approx(3.0)


def test_recorder_links_parents_and_instrument_wraps():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.spans[inner].parent == outer
    assert recorder.spans[outer].parent is None
    assert not spans.instrument(recorder, "repro.nowhere:missing", "x")
    assert recorder.missing == ["repro.nowhere:missing"]


def test_worker_spans_merge_after_the_parents(tmp_path):
    recorder = spans.Recorder(tmp_path)
    recorder.end(recorder.begin("parent"))
    (tmp_path / "123.jsonl").write_text(json.dumps([
        ["job", 0.0, 2.0, None, 123, {}],
        ["kernel", 0.5, 1.5, 0, 123, {"lanes": 6}]]) + "\n")
    merged = recorder.merged()
    assert [s.name for s in merged] == ["parent", "job", "kernel"]
    assert merged[2].parent == 1
    assert spans.self_times(merged)[1:] == pytest.approx([1.0, 1.0])
    assert not list(tmp_path.glob("*.jsonl"))


def test_percentile_needs_ten_samples_beyond_it():
    assert common.percentile(range(100), 90) == 89
    with pytest.raises(BenchError):
        common.percentile(range(99), 90)
    assert common.percentile(range(20), 50) == 9
    with pytest.raises(BenchError):
        common.percentile(range(19), 50)
    with pytest.raises(BenchError):
        common.percentile([], 50)


def test_windowed_percentile_is_the_median_of_each_windows_percentile():
    def entries(latencies, start):
        return [{"slot": points.Slot(start + i / len(latencies), "fresh",
                                     "alice", 0), "latency": latency}
                for i, latency in enumerate(latencies)]

    # Three one-second windows of 100 samples; the last one is slow.
    run = (entries(range(100), 0.0) + entries(range(100, 200), 1.0)
           + entries(range(1000, 1100), 2.0))
    assert fleet.windowed_percentile(run, 90, 3.0) == 189
    assert fleet.windowed_percentile(run, 50, 3.0) == 149
    # Every window needs its own ten samples beyond the percentile.
    with pytest.raises(BenchError):
        fleet.windowed_percentile(run[:-1], 90, 3.0)


def test_fresh_parts_cover_each_slice_once():
    slots = points.fleet_schedule(points.MAX_FLEET_SECONDS)
    parts = [(s.k, s.part) for s in slots if s.kind == "fresh"]
    fresh, _ = points.fleet_slices(points.MAX_FLEET_SECONDS)
    assert sorted(parts) == [(k, part) for k in range(fresh)
                             for part in range(points.FRESH_PARTS)]
    slice_pins = pins.load()["fleet"]["0"]["fresh"][0]
    assert [pin for part in range(points.FRESH_PARTS)
            for pin in points.take_part(slice_pins, part)] == slice_pins
    replay = next(s for s in slots if s.kind == "replay")
    assert len(points.fleet_slot_points(0, replay)) == \
        6 * fresh // points.fleet_cycles(points.MAX_FLEET_SECONDS)


def test_bucket_quantile_interpolates_gained_counts():
    before = {'h_bucket{le="1"}': 1.0, 'h_bucket{le="2"}': 1.0,
              'h_bucket{le="+Inf"}': 1.0}
    after = {'h_bucket{le="1"}': 1.0, 'h_bucket{le="2"}': 11.0,
             'h_bucket{le="+Inf"}': 11.0}
    assert fleet.bucket_quantile(before, after, "h", 0.5) == \
        pytest.approx(1.5)
    assert fleet.bucket_quantile(after, after, "h", 0.5) == 0.0


def _fleet_entry(pin_doc, k: int) -> dict:
    expected = pin_doc["0"]["matrix"][k]
    slot = points.Slot(0.0, "matrix", "bob", k)
    return {"slot": slot, "job": "c0001", "due_wall": 1.0,
            "snap": {"state": "done", "created_at": 1.0,
                     "finished_at": 2.0},
            "results": {"points": [{"ok": True, "source": "sim",
                                    "cycles": 0.0, "instructions": 0}
                                   for _ in expected]}}


def test_tampered_fleet_pin_fails_the_check():
    pin_doc = pins.load()["fleet"]
    entry = _fleet_entry(pin_doc, 0)
    measured = {"submitted": [entry], "pins": pin_doc["0"]}
    fleet.check(measured)
    # Zero cycles can never match a real pin.
    assert entry["failures"] == ["c0001: pin mismatch"]


def test_tampered_sweep_pin_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "TMP", tmp_path)
    monkeypatch.setattr(sweep, "fresh_dir", lambda name: tmp_path / name)
    group = next(g for g in points.sweep_groups(0)
                 if g.name == "cohort-of-1")
    pin = pins.load()["sweep"]["0"][points.sweep_points(0).index(
        group.points[0])]
    clean = sweep.run_unit(list(group.points), [pin])
    assert clean["failures"] == []
    tampered = "0" * len(pin)
    unit = sweep.run_unit(list(group.points), [tampered])
    assert len(unit["failures"]) == 2          # cold and replay
    assert all("pin mismatch" in f for f in unit["failures"])


def test_benchmark_json_lists_what_the_runs_print():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [m["name"] for m in document["per_layer"]] == layers.names()
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == \
        layers.units()
    assert [w["name"] for w in document["workloads"]] == \
        list(run.WORKLOADS)


def test_trace_seed_space_is_what_the_pins_cover():
    pin_doc = pins.load()
    assert pin_doc["trace_seeds"] == points.TRACE_SEEDS
    for seed in range(points.TRACE_SEEDS):
        assert len(pin_doc["sweep"][str(seed)]) == \
            len(points.sweep_points(seed))
        fresh, matrix = points.fleet_slices(points.MAX_FLEET_SECONDS)
        assert len(pin_doc["fleet"][str(seed)]["fresh"]) == fresh
        assert len(pin_doc["fleet"][str(seed)]["matrix"]) == matrix
    assert sorted(pin_doc["paper"]["experiments"]) == \
        sorted(layers.EXPERIMENT_IDS)
