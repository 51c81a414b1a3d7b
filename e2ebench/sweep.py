"""``sweep``: cold campaigns over an empty cache, each followed by a replay.

A closed loop. Each unit is one ``Campaign(engine="auto", jobs=2)`` over
an empty disk cache, then the same points through a fresh ``Campaign``
against the now-full cache. The point set (``points.sweep_groups``) has
cohorts in every width band and on every lane kernel, plus points left
scalar for each unbatchable-reason family. In the cold phase lane
kernels, the planner, memory scripts, pool IPC and cache puts do nearly
all the work; the replay uses the cache the other way (gets and payload
decoding, no simulation).

Operations are points; a unit is one cold campaign plus its replay.
"""

from __future__ import annotations

import time

import points
from common import BenchError, fresh_dir, median, percentile, \
    stats_digest

JOBS = 2

# A point whose result arrives later than this after its campaign
# started misses the workload's latency limit: far above a healthy cold
# campaign, so the ratio only falls on a gross slowdown.
SLO_LIMIT_S = 6.0

WIDTH_BANDS = (("w2-11", 2, 11), ("w12-47", 12, 47), ("w48-up", 48, 10**9))
KERNELS = ("vector", "list", "inorder")
# The auto rule sends out-of-order cohorts of these schemes this wide or
# wider to the columnar kernel.
VECTOR_SCHEMES = ("ppa", "baseline", "eadr", "dram-only")
VECTOR_WIDTH = 48


def width_band(width: int) -> str:
    for name, low, high in WIDTH_BANDS:
        if low <= width <= high:
            return name
    return "w1"


def check_plan(point_list) -> dict:
    """Refuse a point set the planner would not split the way this
    workload claims: a cohort in every width band, a cohort for each lane
    kernel (one wide enough for the columnar kernel, a capri cohort for
    the list kernel, an in-order cohort), and points left scalar for
    every unbatchable family. Traced runs also check that each kernel
    actually ran."""
    from repro.engine.plan import plan_points

    plan = plan_points(point_list, "auto")
    summary = plan.summary()
    bands = {width_band(len(c)) for c in plan.cohorts}
    firsts = [(c.points[0], len(c)) for c in plan.cohorts]
    problems = [f"no cohort in width band {name}"
                for name, _, _ in WIDTH_BANDS if name not in bands]
    if not any(p.core == "ooo" and p.scheme in VECTOR_SCHEMES and
               width >= VECTOR_WIDTH for p, width in firsts):
        problems.append("no cohort wide enough for the columnar kernel")
    if not any(p.scheme == "capri" for p, _ in firsts):
        problems.append("no capri cohort")
    if not any(p.core == "inorder" for p, _ in firsts):
        problems.append("no in-order cohort")
    for family in ("has no batched kernel", "has no batched in-order",
                   "persist-log", "cohort of 1"):
        if not any(family in reason for reason in summary["scalar_reasons"]):
            problems.append(f"no point left scalar for '{family}'")
    if problems:
        raise BenchError("sweep plan: " + "; ".join(problems))
    return summary


def run_unit(point_list, pins, recorder=None, index: int = 0) -> dict:
    """One cold campaign plus its replay."""
    from repro.orchestrator import Campaign
    from repro.orchestrator.cache import ResultCache

    cache_dir = fresh_dir(f"sweep-cache-{index % 2}")
    arrivals: list[float] = []
    accounted: dict[str, float] = {}

    def progress(_telemetry, result) -> None:
        now = time.monotonic()
        arrivals.append(now)
        accounted[result.point.name] = now

    cold = Campaign(cache=ResultCache(cache_dir), jobs=JOBS, engine="auto",
                    progress=progress)
    cold.extend(point_list)
    cold_start = time.monotonic()
    cold_results = cold.run()
    cold_seconds = time.monotonic() - cold_start

    replay = Campaign(cache=ResultCache(cache_dir), jobs=JOBS,
                      engine="auto")
    replay.extend(point_list)
    replay_start = time.monotonic()
    replay_results = replay.run()
    replay_seconds = time.monotonic() - replay_start

    failures = []
    instructions = 0
    for phase, results in (("cold", cold_results),
                           ("replay", replay_results)):
        for result, expected in zip(results, pins):
            if result.stats is None:
                failures.append(f"{phase} {result.point.name}: "
                                f"{result.error}")
                continue
            if stats_digest(result.stats) != expected:
                failures.append(f"{phase} {result.point.name}: "
                                "pin mismatch")
            if phase == "cold":
                instructions += result.stats.instructions
    telemetry = replay.telemetry
    if telemetry.simulated or telemetry.cache_hits != len(point_list):
        raise BenchError(f"sweep replay simulated {telemetry.simulated} "
                         f"points and hit {telemetry.cache_hits} of "
                         f"{len(point_list)}")
    return {
        "started": cold_start,
        "finished": replay_start + replay_seconds,
        "cold_seconds": cold_seconds,
        "replay_seconds": replay_seconds,
        "instructions": instructions,
        "points": len(point_list),
        "arrivals": [t - cold_start for t in arrivals],
        "failures": failures,
        "utilization": cold.telemetry.worker_utilization,
        "accounted": accounted,
    }


def measure(seconds: float, seed: int, pins: dict, recorder=None,
            min_units: int = 2) -> dict:
    point_list = points.sweep_points(seed)
    expected = pins[str(points.trace_seed(seed))]
    if len(expected) != len(point_list):
        raise BenchError("sweep pins do not match the point set")
    units = []
    deadline = time.monotonic() + seconds
    while len(units) < min_units or time.monotonic() < deadline:
        units.append(run_unit(point_list, expected, recorder,
                              index=len(units)))
    return {"units": units}


def prepare(seed: int, pins: dict) -> dict:
    """Check the plan, then run one untimed unit (forks, page cache and
    lazy imports settle). Returns the plan summary."""
    point_list = points.sweep_points(seed)
    plan = check_plan(point_list)
    run_unit(point_list, pins[str(points.trace_seed(seed))])
    return plan


def end_to_end(measured: dict, plan: dict) -> tuple[dict, int, int, dict]:
    units = measured["units"]
    cold = sum(u["cold_seconds"] for u in units)
    replay = sum(u["replay_seconds"] for u in units)
    arrivals = [t for u in units for t in u["arrivals"]]
    attempted = sum(2 * u["points"] for u in units)
    failed = sum(len(u["failures"]) for u in units)
    within = sum(1 for t in arrivals if t <= SLO_LIMIT_S)
    metrics = {
        "wall_s": median([u["cold_seconds"] + u["replay_seconds"]
                          for u in units]),
        "sim_instrs_per_s": sum(u["instructions"] for u in units) / cold,
        "replay_points_per_s": sum(u["points"] for u in units) / replay,
        "latency_p50_s": percentile(arrivals, 50),
        "latency_p90_s": percentile(arrivals, 90),
        "slo_met_ratio": max(0, within - failed) / len(arrivals),
    }
    info = {"units": len(units), "latency_samples": len(arrivals),
            "plan": plan,
            "failures": [f for u in units for f in u["failures"]][:10]}
    return metrics, attempted, failed, info
