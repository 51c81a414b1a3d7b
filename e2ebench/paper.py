"""``paper``: repeated reduced reproductions of every registered experiment.

A closed loop with one caller in one process. Each pass runs every
experiment of ``repro.experiments.all_experiments()`` in the order
``python -m repro.experiments all`` uses, with a reduced trace length and
app subset and a reduced fig19 thread list, starting from cold process
caches and no disk cache. The registered experiments fix their own trace
seeds, so this workload's inputs do not depend on ``--seed``.

Operations are experiment calls; a unit is one pass.
"""

from __future__ import annotations

import inspect
import time
import warnings

import points
from common import BenchError, json_digest, median, percentile

# An experiment call slower than this misses the workload's latency
# limit. Far above every call of a healthy pass (the slowest is well
# under a second here), so the ratio only falls on a gross slowdown.
SLO_LIMIT_S = 3.0


def experiment_calls() -> list[tuple[str, object, dict]]:
    """(id, experiment, kwargs) in the CLI's ``all`` order."""
    from repro.experiments import all_experiments

    calls = []
    for experiment_id, experiment in sorted(all_experiments().items()):
        params = inspect.signature(experiment.run).parameters
        kwargs: dict = {}
        if "length" in params:
            kwargs["length"] = points.PAPER_LENGTH
        if "apps" in params:
            kwargs["apps"] = points.PAPER_APPS
        if "app" in params:
            kwargs["app"] = points.PAPER_APPS[0]
        if "threads" in params:
            kwargs["threads"] = points.PAPER_THREADS
        calls.append((experiment_id, experiment, kwargs))
    return calls


def cold_caches() -> None:
    """Drop every process-wide cache a pass could reuse: the runner memo,
    interned traces, warm-memory templates and memory scripts."""
    import importlib

    from repro.experiments import clear_cache
    from repro.experiments.runner import configure_disk_cache

    configure_disk_cache(None)
    clear_cache()
    for module_name, func in (("repro.workloads.interning", "clear"),
                              ("repro.memory.prewarm", "clear"),
                              ("repro.engine.memscript", "clear_scripts")):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        clear = getattr(module, func, None)
        if clear is not None:
            clear()


def result_digest(result) -> str:
    return json_digest({"summary": result.summary, "rows": result.rows})


def run_pass(calls, recorder=None, check=None) -> dict:
    """One cold pass. ``check(id, digest)`` returns False on a pin
    mismatch. Returns per-call latencies, failures and the pass time."""
    from repro.experiments.runner import cache_counters

    cold_caches()
    latencies, digests, failures = [], {}, []
    missed = 0
    start = time.monotonic()
    for experiment_id, experiment, kwargs in calls:
        failed_before = len(failures)
        began = time.monotonic()
        index = recorder.begin(f"experiments.{experiment_id}") \
            if recorder is not None else None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                result = experiment(**kwargs)
        except Exception as exc:  # noqa: BLE001 — a failed operation
            failures.append(f"{experiment_id}: {exc!r}")
            result = None
        finally:
            if recorder is not None:
                recorder.end(index)
        latency = time.monotonic() - began
        latencies.append(latency)
        if result is not None:
            digests[experiment_id] = result_digest(result)
            if check is not None and not check(experiment_id,
                                               digests[experiment_id]):
                failures.append(f"{experiment_id}: pin mismatch")
        if len(failures) > failed_before or latency > SLO_LIMIT_S:
            missed += 1
    elapsed = time.monotonic() - start
    counters = cache_counters()
    return {"seconds": elapsed, "latencies": latencies, "digests": digests,
            "failures": failures, "missed": missed,
            "l1_hits": counters["l1_hits"],
            "l1_misses": counters["l1_misses"]}


def measure(seconds: float, pins: dict, recorder=None,
            min_passes: int = 4) -> dict:
    """Passes until ``seconds`` have elapsed (at least ``min_passes``)."""
    calls = experiment_calls()
    expected = pins["experiments"]
    unknown = sorted(set(c[0] for c in calls) - set(expected))
    if unknown:
        raise BenchError(f"experiments without a pin: {unknown}")

    def check(experiment_id: str, digest: str) -> bool:
        return expected[experiment_id] == digest

    passes = []
    deadline = time.monotonic() + seconds
    while len(passes) < min_passes or time.monotonic() < deadline:
        passes.append(run_pass(calls, recorder, check))
    return {"passes": passes, "calls": len(calls)}


def end_to_end(measured: dict, pins: dict) -> tuple[dict, int, int, dict]:
    """(metrics, attempted, failed, info) from :func:`measure`."""
    passes = measured["passes"]
    pass_seconds = [p["seconds"] for p in passes]
    latencies = [lat for p in passes for lat in p["latencies"]]
    attempted = measured["calls"] * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    wall = median(pass_seconds)
    total = sum(pass_seconds)
    metrics = {
        "wall_s": wall,
        "sim_instrs_per_s": pins["instructions_per_pass"] * len(passes)
        / total,
        "replay_points_per_s": sum(p["l1_hits"] for p in passes) / total,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "slo_met_ratio":
            1.0 - sum(p["missed"] for p in passes) / attempted,
    }
    info = {"passes": len(passes), "latency_samples": len(latencies),
            "failures": [f for p in passes for f in p["failures"]][:10]}
    return metrics, attempted, failed, info
