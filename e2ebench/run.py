"""End-to-end benchmark of the reproduction: ``paper``, ``sweep``, ``fleet``.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload sweep --seed 2 --seconds 25 --trace 1
    python3 e2ebench/run.py --pin        # recompute e2ebench/pins.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
The line before it holds run-health readings, which are not gated.
See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

import common
from common import BenchError

WORKLOADS = ("paper", "sweep", "fleet")

# Set-up probes per run; the median is reported. The fleet probe starts
# a daemon and warms its pool, so it gets fewer repeats.
SETUP_PROBES = {"paper": 9, "sweep": 9, "fleet": 5}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instrs_per_s": "instr/s",
    "replay_points_per_s": "points/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "slo_met_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PROBE_TIMEOUT_S = 90.0
REAP_TIMEOUT_S = 20.0


def setup_seconds(workload: str) -> float:
    """Median launch-to-ready time of fresh-interpreter set-up probes."""
    samples = []
    for _ in range(SETUP_PROBES[workload]):
        start = time.monotonic()
        probe = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "probe.py"), workload],
            cwd=common.ROOT, env=common.scrubbed_env(),
            stdout=subprocess.PIPE, text=True)
        try:
            line = probe.stdout.readline()
            ready = time.monotonic()
            probe.stdout.read()
            probe.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
            probe.stdout.close()
        if line.strip() != "ready" or probe.returncode != 0:
            raise BenchError(f"{workload} set-up probe failed "
                             f"(exit {probe.returncode})")
        samples.append(ready - start)
    return common.median(samples)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_paper(args, pins, recorder) -> tuple[dict, int, int, dict]:
    import paper

    if recorder is None:
        return paper.end_to_end(paper.measure(args.seconds, pins), pins)
    import layers

    half = args.seconds / 2.0
    plain = paper.measure(half, pins, min_passes=1)
    layers.instrument_all(recorder)
    traced = paper.measure(half, pins, recorder, min_passes=1)
    passes = traced["passes"]
    values = layers.from_spans(recorder.spans, len(passes))
    hits = sum(p["l1_hits"] for p in passes)
    lookups = hits + sum(p["l1_misses"] for p in passes)
    values["experiments.runner.l1_hit_ratio"] = hits / lookups \
        if lookups else 0.0
    values["trace.overhead_ratio"] = (
        common.median([p["seconds"] for p in passes])
        / common.median([p["seconds"] for p in plain["passes"]]))
    every = plain["passes"] + passes
    attempted = plain["calls"] * len(every)
    failed = sum(len(p["failures"]) for p in every)
    return values, attempted, failed, {"passes": len(every)}


def run_sweep(args, pins, recorder) -> tuple[dict, int, int, dict]:
    import sweep

    plan = sweep.prepare(args.seed, pins)
    if recorder is None:
        return sweep.end_to_end(sweep.measure(args.seconds, args.seed,
                                              pins), plan)
    import layers

    half = args.seconds / 2.0
    plain = sweep.measure(half, args.seed, pins, min_units=1)
    layers.instrument_all(recorder)
    traced = sweep.measure(half, args.seed, pins, recorder, min_units=1)
    units = traced["units"]
    every_span = recorder.merged()
    values = layers.from_spans(every_span, len(units))
    # Point names repeat across units, so IPC is matched unit by unit.
    ipc = 0.0
    for unit in units:
        ipc += layers.ipc_seconds(
            [s for s in every_span if s.start >= unit["started"]
             and s.end <= unit["finished"]], unit["accounted"])
    values["orchestrator.campaign.ipc_s"] = ipc / len(units)
    values["orchestrator.campaign.worker_utilization"] = common.median(
        [u["utilization"] for u in units])
    idle = [kernel for kernel, dotted in layers.KERNEL_TARGETS.items()
            if dotted not in recorder.missing
            and not values[f"engine.batched.ms_per_lane.{kernel}"]]
    if idle:
        raise BenchError(f"sweep never ran the {idle} lane kernel(s)")

    def wall(measured):
        return common.median([u["cold_seconds"] + u["replay_seconds"]
                              for u in measured["units"]])

    values["trace.overhead_ratio"] = wall(traced) / wall(plain)
    every = plain["units"] + units
    attempted = sum(2 * u["points"] for u in every)
    failed = sum(len(u["failures"]) for u in every)
    return values, attempted, failed, {"units": len(every)}


def run_fleet(args, pins, recorder, rss) -> tuple[dict, int, int, dict]:
    import fleet
    import points

    daemon = fleet.Daemon("fleet")
    try:
        daemon.start()
        daemon.run_campaign("warmup",
                            points.fleet_warmup_points(args.seed))
        if recorder is not None:
            import layers

            layers.instrument_all(recorder)
        measured = fleet.measure(args.seconds, args.seed, pins, recorder,
                                 daemon)
        rss.sample()
    finally:
        daemon.stop()
    metrics, attempted, failed, info = fleet.end_to_end(measured)
    if recorder is None:
        return metrics, attempted, failed, info
    import layers

    traced = sum(1 for e in measured["submitted"] if e["traced"])
    values = layers.from_spans(recorder.spans, traced)
    values.update(fleet.per_layer(measured))
    return values, attempted, failed, info


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python3 e2ebench/run.py",
        description="End-to-end benchmark: paper, sweep and fleet.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute e2ebench/pins.json and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.make_hermetic()
    except BenchError as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    common.become_subreaper()
    if args.pin:
        import pins

        pins.write(pins.build())
        common.remove_tmp()
        return 0 if not common.reap_descendants(REAP_TIMEOUT_S) else 1

    health = common.Health()
    rss = common.RssWatch()
    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(common.fresh_dir("spans"))
    code = 0
    try:
        import pins

        pin_doc = pins.load()
        # Traced runs report no end-to-end metric, so they skip set-up.
        setup = 0.0 if args.trace else setup_seconds(args.workload)
        if args.workload == "paper":
            values, attempted, failed, info = run_paper(
                args, pin_doc["paper"], recorder)
        elif args.workload == "sweep":
            values, attempted, failed, info = run_sweep(
                args, pin_doc["sweep"], recorder)
        else:
            values, attempted, failed, info = run_fleet(
                args, pin_doc["fleet"], recorder, rss)
    except BenchError as exc:
        print(f"e2ebench: {args.workload}: {exc}", file=sys.stderr)
        code = 3
    except Exception:  # noqa: BLE001 — report, clean up, refuse
        traceback.print_exc()
        code = 4
    finally:
        leaked = common.reap_descendants(REAP_TIMEOUT_S)
        common.remove_tmp()
    if code:
        return code
    if leaked:
        info["leaked_processes"] = leaked
    info["health"] = health.readings()
    info["missing_trace_targets"] = recorder.missing if recorder else []
    print(json.dumps({"info": info}, default=str))

    if args.trace:
        import layers

        values["failed_ratio"] = failed / attempted
        units = layers.units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.assemble(values).items()}
    else:
        values["setup_s"] = setup
        values["peak_rss_mb"] = rss.peak_mb()
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0 and not leaked,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
