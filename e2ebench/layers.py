"""Per-layer metrics of a traced run.

Every traced run prints every name in :func:`names` (the ``per_layer``
list of ``BENCHMARK.json``); a layer the workload does not exercise reads
0. A ``*_s`` metric is self time per unit of the workload (a pass, a
sweep unit, a campaign).

Which end-to-end metric each layer should move, and on which workload:

* ``experiments.*``, ``memory.*``, ``pipeline``/``inorder``/``multicore``
  and ``orchestrator.execute.*`` -> ``paper/wall_s`` (the scalar matrix
  slices also tie the kernels to ``fleet/latency_p50_s``);
* ``workloads.interning.*`` -> ``paper/wall_s``, ``sweep/sim_instrs_per_s``
  and ``fleet/setup_s`` (worker preload);
* ``engine.*`` -> ``sweep/sim_instrs_per_s`` (small on fleet latency, none
  on paper);
* ``orchestrator.cache.put_s`` and ``orchestrator.campaign.ipc_s`` ->
  ``sweep/sim_instrs_per_s``; cache get, decode and digest ->
  ``sweep/replay_points_per_s`` and ``fleet/latency_p50_s``;
* ``service.*`` and ``observe.*`` -> ``fleet/latency_p50_s``,
  ``fleet/latency_p90_s`` and ``fleet/slo_met_ratio``.
"""

from __future__ import annotations

import spans as sp
from sweep import KERNELS, WIDTH_BANDS

# Ids of the experiments registered at the commit that introduced the
# benchmark; the paper pins cover exactly these.
EXPERIMENT_IDS = (
    "ablation-async", "ablation-boundary", "ablation-coalescing",
    "ablation-integrity", "ext-inorder", "ext-psp", "ext-region-length",
    "ext-sbgate", "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig5", "fig8", "fig9",
    "litmus", "sec713", "tab1", "tab4", "tab5", "tab6")

BANDS = tuple(name for name, _, _ in WIDTH_BANDS)
# The function each lane kernel enters through.
KERNEL_TARGETS = {
    "vector": "repro.engine.columns:run_cohort_vector",
    "list": "repro.engine.batched:_run_cohort_lists",
    "inorder": "repro.engine.inorder_lanes:run_inorder_cohort",
}

# name -> unit, in the order BENCHMARK.json lists them.
_FIXED = (
    ("experiments.runner.l1_hit_ratio", "ratio"),
    ("workloads.interning.interned_trace_s", "s"),
    ("workloads.interning.build_ratio", "ratio"),
    ("memory.prewarm.warmed_memory_s", "s"),
    ("orchestrator.execute.simulate_point_s", "s"),
    ("orchestrator.execute.simulate_point_calls", "count"),
    ("pipeline.instrs_per_s", "instr/s"),
    ("inorder.instrs_per_s", "instr/s"),
    ("multicore.run_profile_s", "s"),
    ("multicore.instrs_per_s", "instr/s"),
    ("engine.plan.plan_points_s", "s"),
    ("engine.plan.cohorts", "count"),
    ("engine.plan.scalar_points", "count"),
    ("engine.memscript.memory_script_s", "s"),
    ("engine.memscript.build_ratio", "ratio"),
    ("engine.batched.run_cohort_s", "s"),
) + tuple((f"engine.batched.ms_per_lane.{k}", "ms")
          for k in KERNELS + BANDS) + (
    ("engine.batched.lane_success_ratio", "ratio"),
    ("orchestrator.serialize.encode_s", "s"),
    ("orchestrator.serialize.decode_s", "s"),
    ("orchestrator.serialize.payload_bytes", "bytes"),
    ("orchestrator.cache.put_s", "s"),
    ("orchestrator.cache.get_s", "s"),
    ("orchestrator.cache.point_digest_s", "s"),
    ("orchestrator.cache.hit_ratio", "ratio"),
    ("orchestrator.campaign.worker_utilization", "ratio"),
    ("orchestrator.campaign.ipc_s", "s"),
    ("service.client.submit_s", "s"),
    ("service.scheduler.queue_wait_p50_s", "s"),
    ("service.scheduler.queue_wait_p90_s", "s"),
    ("service.scheduler.point_latency_p50_s", "s"),
    ("service.scheduler.dedup_ratio", "ratio"),
    ("service.scheduler.cache_hit_ratio", "ratio"),
    ("service.scheduler.pool_busy_ratio", "ratio"),
    ("service.scheduler.pool_resets", "count"),
    ("service.scheduler.timeouts", "count"),
    ("observe.metrics_scrape_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("fleet.generator_lag_p90_s", "s"),
    ("failed_ratio", "ratio"),
)

def units() -> dict[str, str]:
    out = {f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS}
    out.update(dict(_FIXED))
    return out


def names() -> list[str]:
    return list(units())


def instrument_all(recorder: sp.Recorder) -> None:
    """Wrap each layer's entry points (import order matters: wrappers
    replace every binding already imported by name)."""
    import importlib

    for module in ("repro.engine.batched", "repro.engine.columns",
                   "repro.engine.inorder_lanes", "repro.engine.memscript",
                   "repro.engine.plan", "repro.experiments",
                   "repro.multicore.system", "repro.orchestrator",
                   "repro.workloads.interning"):
        try:
            importlib.import_module(module)
        except ImportError:
            recorder.missing.append(module)

    def builds() -> int:
        from repro.workloads import interning

        return interning.stats["builds"]

    def instrs(_a, _k, result, _t):
        return {"instrs": getattr(result, "instructions", 0)}

    def lanes(args, kwargs, result, _t):
        return {"lanes": len(result)}

    def cohort(args, kwargs, result, _t):
        return {"lanes": len(result),
                "ok": sum(1 for lane in result
                          if getattr(lane, "engine", "") == "batched")}

    def plan(_a, _k, result, _t):
        return {"cohorts": len(result.cohorts),
                "scalar": len(result.scalar_indices)}

    def encoded(_a, _k, result, _t):
        import json

        return {"bytes": len(json.dumps(result, allow_nan=False))}

    def job_points(args, kwargs, result, _t):
        first = args[0] if args else kwargs.get("points")
        batch = first if isinstance(first, list) else [first]
        return {"points": [p.name for p in batch]}

    targets = [
        ("repro.workloads.interning:interned_trace",
         "workloads.interning.interned_trace",
         lambda _a, _k, _r, t: {"built": builds() - t}, builds),
        ("repro.workloads.interning:interned_thread_traces",
         "workloads.interning.interned_trace",
         lambda _a, _k, _r, t: {"built": builds() - t}, builds),
        ("repro.memory.prewarm:warmed_memory",
         "memory.prewarm.warmed_memory", None, None),
        ("repro.orchestrator.execute:simulate_point",
         "orchestrator.execute.simulate_point", None, None),
        ("repro.pipeline.core:OoOCore._run", "pipeline.run", instrs, None),
        ("repro.inorder.core:InOrderCore._run", "inorder.run", instrs,
         None),
        ("repro.multicore.system:MulticoreSystem.run_profile",
         "multicore.run_profile",
         lambda _a, _k, r, _t: {"instrs": r.total_instructions}, None),
        ("repro.engine.plan:plan_points", "engine.plan.plan_points", plan,
         None),
        ("repro.engine.memscript:memory_script",
         "engine.memscript.memory_script", None, None),
        ("repro.engine.memscript:build_script",
         "engine.memscript.build_script", None, None),
        ("repro.engine.batched:run_cohort", "engine.batched.run_cohort",
         cohort, None),
    ] + [(dotted, f"engine.kernel.{kernel}", lanes, None)
         for kernel, dotted in KERNEL_TARGETS.items()] + [
        ("repro.orchestrator.serialize:payload_from_run",
         "orchestrator.serialize.encode", encoded, None),
        ("repro.orchestrator.serialize:stats_from_payload",
         "orchestrator.serialize.decode", None, None),
        ("repro.orchestrator.cache:ResultCache.put",
         "orchestrator.cache.put", None, None),
        ("repro.orchestrator.cache:ResultCache.get",
         "orchestrator.cache.get",
         lambda _a, _k, r, _t: {"hit": int(r is not None)}, None),
        ("repro.orchestrator.cache:point_digest",
         "orchestrator.cache.point_digest", None, None),
    ]
    for dotted, name, attrs_of, before in targets:
        sp.instrument(recorder, dotted, name, attrs_of, before)
    for dotted in ("repro.orchestrator.execute:run_cohort_payloads",
                   "repro.orchestrator.execute:run_point_payload"):
        sp.instrument(recorder, dotted, "orchestrator.execute.worker_job",
                      job_points, worker_entry=True)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_spans(spans: list[sp.Span], units_traced: int) -> dict:
    """Span-derived per-layer metrics (self time per unit)."""
    own = sp.self_time_by_name(spans)
    per_unit = max(1, units_traced)

    def self_s(name: str) -> float:
        return own.get(name, 0.0) / per_unit

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    out = {f"experiments.{eid}_s": self_s(f"experiments.{eid}")
           for eid in EXPERIMENT_IDS}
    interned = [s for s in spans
                if s.name == "workloads.interning.interned_trace"]
    out.update({
        "workloads.interning.interned_trace_s":
            self_s("workloads.interning.interned_trace"),
        "workloads.interning.build_ratio": _ratio(
            sum(s.attrs.get("built", 0) for s in interned), len(interned)),
        "memory.prewarm.warmed_memory_s":
            self_s("memory.prewarm.warmed_memory"),
        "orchestrator.execute.simulate_point_s":
            self_s("orchestrator.execute.simulate_point"),
        "orchestrator.execute.simulate_point_calls":
            sp.count(spans, "orchestrator.execute.simulate_point")
            / per_unit,
        "pipeline.instrs_per_s": _ratio(
            sp.attr_sum(spans, "pipeline.run", "instrs"),
            own.get("pipeline.run", 0.0)),
        "inorder.instrs_per_s": _ratio(
            sp.attr_sum(spans, "inorder.run", "instrs"),
            own.get("inorder.run", 0.0)),
        "multicore.run_profile_s": self_s("multicore.run_profile"),
        "multicore.instrs_per_s": _ratio(
            sp.attr_sum(spans, "multicore.run_profile", "instrs"),
            total("multicore.run_profile")),
        "engine.plan.plan_points_s": self_s("engine.plan.plan_points"),
        "engine.plan.cohorts":
            sp.attr_sum(spans, "engine.plan.plan_points", "cohorts")
            / per_unit,
        "engine.plan.scalar_points":
            sp.attr_sum(spans, "engine.plan.plan_points", "scalar")
            / per_unit,
        "engine.memscript.memory_script_s":
            (own.get("engine.memscript.memory_script", 0.0)
             + own.get("engine.memscript.build_script", 0.0)) / per_unit,
        "engine.memscript.build_ratio": _ratio(
            sp.count(spans, "engine.memscript.build_script"),
            sp.count(spans, "engine.memscript.memory_script")),
        "engine.batched.run_cohort_s": self_s("engine.batched.run_cohort"),
    })
    for kernel in KERNELS:
        name = f"engine.kernel.{kernel}"
        out[f"engine.batched.ms_per_lane.{kernel}"] = 1000.0 * _ratio(
            total(name), sp.attr_sum(spans, name, "lanes"))
    cohorts = [s for s in spans if s.name == "engine.batched.run_cohort"]
    for band, low, high in WIDTH_BANDS:
        chosen = [s for s in cohorts
                  if low <= s.attrs.get("lanes", 0) <= high]
        out[f"engine.batched.ms_per_lane.{band}"] = 1000.0 * _ratio(
            sum(s.duration for s in chosen),
            sum(s.attrs["lanes"] for s in chosen))
    gets = [s for s in spans if s.name == "orchestrator.cache.get"]
    encodes = [s for s in spans if s.name == "orchestrator.serialize.encode"]
    out.update({
        "engine.batched.lane_success_ratio": _ratio(
            sp.attr_sum(spans, "engine.batched.run_cohort", "ok"),
            sp.attr_sum(spans, "engine.batched.run_cohort", "lanes")),
        "orchestrator.serialize.encode_s":
            self_s("orchestrator.serialize.encode"),
        "orchestrator.serialize.decode_s":
            self_s("orchestrator.serialize.decode"),
        "orchestrator.serialize.payload_bytes": _ratio(
            sum(s.attrs.get("bytes", 0) for s in encodes), len(encodes)),
        "orchestrator.cache.put_s": self_s("orchestrator.cache.put"),
        "orchestrator.cache.get_s": self_s("orchestrator.cache.get"),
        "orchestrator.cache.point_digest_s":
            self_s("orchestrator.cache.point_digest"),
        "orchestrator.cache.hit_ratio": _ratio(
            sum(s.attrs.get("hit", 0) for s in gets), len(gets)),
        "service.client.submit_s": self_s("service.client.submit"),
    })
    return out


def ipc_seconds(spans: list[sp.Span], accounted: dict[str, float]) \
        -> float:
    """Summed delay from a worker job's return until the parent accounted
    for the last of its points."""
    delay = 0.0
    for span in spans:
        if span.name != "orchestrator.execute.worker_job":
            continue
        times = [accounted[name] for name in span.attrs.get("points", ())
                 if name in accounted]
        if times:
            delay += max(0.0, max(times) - span.end)
    return delay


def assemble(values: dict) -> dict:
    """Every per-layer name, 0 where the workload did not measure it."""
    return {name: float(values.get(name, 0.0)) for name in names()}
