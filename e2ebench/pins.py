"""Scalar-engine pins for every output the benchmark checks.

``python3 e2ebench/run.py --pin`` recomputes ``pins.json`` with
``engine="scalar"``: the digest of ``(cycles, instructions)`` for every
point any seed can generate (every trace seed of the sweep point set and
of every fleet slice up to the longest schedule), and the digest of every
experiment's summary and rows for the paper pass. Every run checks every
output against these pins; a mismatch is a failed operation, so a
divergence in a batched or columnar kernel shows as a failure rather than
as a slower run.
"""

from __future__ import annotations

import json
import os
import sys

import points
from common import BENCH_DIR, BenchError, stats_digest

PIN_FILE = BENCH_DIR / "pins.json"


def load() -> dict:
    try:
        return json.loads(PIN_FILE.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {PIN_FILE.name}: {exc}") from None


def _scalar_digests(point_list) -> list[str]:
    from repro.orchestrator import Campaign

    campaign = Campaign(cache=None, jobs=2, engine="scalar", retries=0)
    campaign.extend(point_list)
    digests = []
    for result in campaign.run():
        if result.stats is None:
            raise BenchError(f"pin run of {result.point.name} failed: "
                             f"{result.error}")
        digests.append(stats_digest(result.stats))
    return digests


def _paper_pins() -> dict:
    import paper
    import spans

    recorder = spans.Recorder()
    for dotted, name in (("repro.pipeline.core:OoOCore._run", "run"),
                         ("repro.inorder.core:InOrderCore._run", "run")):
        spans.instrument(recorder, dotted, name,
                         lambda _a, _k, r, _t: {"instrs": r.instructions})
    result = paper.run_pass(paper.experiment_calls())
    if result["failures"]:
        raise BenchError(f"paper pin pass failed: {result['failures']}")
    return {"experiments": result["digests"],
            "instructions_per_pass":
                int(spans.attr_sum(recorder.spans, "run", "instrs"))}


def build() -> dict:
    """Recompute every pin (minutes: everything runs scalar)."""
    os.environ["REPRO_ENGINE"] = "scalar"
    out: dict = {"trace_seeds": points.TRACE_SEEDS}
    print("pinning paper", file=sys.stderr)
    out["paper"] = _paper_pins()
    out["sweep"] = {}
    out["fleet"] = {}
    fresh_count, matrix_count = points.fleet_slices(points.MAX_FLEET_SECONDS)
    for seed in range(points.TRACE_SEEDS):
        print(f"pinning sweep and fleet, trace seed {seed}", file=sys.stderr)
        out["sweep"][str(seed)] = _scalar_digests(points.sweep_points(seed))
        fresh = [points.fleet_fresh(seed, k) for k in range(fresh_count)]
        matrix = [points.fleet_matrix(seed, k)
                  for k in range(matrix_count)]
        flat = _scalar_digests([p for group in fresh + matrix
                                for p in group])
        sizes = [len(group) for group in fresh + matrix]
        groups, cursor = [], 0
        for size in sizes:
            groups.append(flat[cursor:cursor + size])
            cursor += size
        out["fleet"][str(seed)] = {"fresh": groups[:fresh_count],
                                   "matrix": groups[fresh_count:]}
    return out


def write(document: dict) -> None:
    PIN_FILE.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n")
