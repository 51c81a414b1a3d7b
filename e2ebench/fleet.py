"""``fleet``: an open-loop schedule of campaigns against the daemon.

One generator (this process) submits campaigns on a fixed schedule from
three tenants to a ``FleetScheduler`` daemon (``python -m repro.service
serve``) with two pool workers, over at most two connections: one for
submissions, and in traced runs one for ``GET /metrics`` scrapes. The mix
(``points.FLEET_CYCLE``) is fresh design-space slices (cohorts and cache
puts), scalar-only matrix slices, duplicates sent while their twin is in
flight (single-flight dedup) and exact replays of earlier slices (cache
gets). Each campaign is timed from when it was due, using the daemon's
own ``finished_at`` stamp.

Operations are campaigns.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import points
from common import ROOT, BenchError, fresh_dir, median, percentile, \
    scrubbed_env, volume_digest

WORKERS = 2

# A campaign that finishes later than this after it was due misses the
# service-level objective. Fresh parts take 60-80 ms at the seed commit;
# the limit sits at the upper end of their spread.
SLO_LIMIT_S = 0.1

# The generator may run this late (90th percentile over a run) before
# the offered load stops being the scheduled one.
GENERATOR_SLACK_S = 0.1

# Per-tenant in-flight cap sent with every submission. Under the daemon's
# default (the fleet size) a tenant runs one cohort at a time, which
# would serialize the fresh parts on one of the two workers.
TENANT_QUOTA = 12

# The latency percentiles are taken in this many equal windows of the
# schedule, by due time, and the median over the windows is reported.
# Host speed on a shared VM changes in epochs of several seconds; a
# pooled p90 moves with whichever epoch is slowest, while the median of
# three windows' p90 needs two slow windows to move.
LATENCY_WINDOWS = 3

STARTUP_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


class Daemon:
    """A ``repro.service`` daemon subprocess on a socket in the checkout."""

    def __init__(self, name: str) -> None:
        self.dir = fresh_dir(name)
        # Relative to the checkout root (the daemon's and our cwd), so
        # the path stays short whatever the checkout's location.
        self.socket = str((self.dir / "d.sock").relative_to(ROOT))
        self.process: subprocess.Popen | None = None
        self.client = None

    def start(self) -> None:
        from repro.service.client import ServiceClient

        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--socket", self.socket, "--workers", str(WORKERS),
             "--cache-dir", str(self.dir / "cache"), "--engine", "auto",
             "--heartbeat", "0"],
            cwd=ROOT, env=scrubbed_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        self.client = ServiceClient(socket_path=self.socket, timeout=60.0)
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                self.client.healthz()
                return
            except OSError:
                if self.process.poll() is not None or \
                        time.monotonic() > deadline:
                    raise BenchError("fleet daemon did not start") \
                        from None
                time.sleep(0.01)

    def run_campaign(self, tenant: str, point_list) -> dict:
        """Submit and wait (untimed warm-up and set-up probes)."""
        from repro.orchestrator.serialize import point_to_dict

        job = self.client.submit(tenant, points=[point_to_dict(p)
                                                 for p in point_list],
                                 quota=TENANT_QUOTA)
        return self.wait(job["id"])

    def wait(self, job_id: str) -> dict:
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while True:
            snap = self.client.campaign(job_id)
            if snap["state"] not in ("queued", "running"):
                return snap
            if time.monotonic() > deadline:
                raise BenchError(f"campaign {job_id} did not finish")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            try:
                self.client.shutdown()
            except OSError:
                self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# ---------------------------------------------------------------------------
# /metrics
# ---------------------------------------------------------------------------

def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> {series: value}; series keep their labels."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


def family_total(series: dict[str, float], family: str) -> float:
    """Sum of a family's samples over all label sets."""
    return sum(value for name, value in series.items()
               if name == family or name.startswith(family + "{"))


def bucket_quantile(before: dict, after: dict, family: str,
                    q: float) -> float:
    """``histogram_quantile``-style linear interpolation over the bucket
    counts a family gained between two scrapes (0 when it gained none)."""
    prefix = family + "_bucket{"
    buckets = []
    for name, value in after.items():
        if not name.startswith(prefix) or "le=" not in name:
            continue
        bound = name.split('le="', 1)[1].split('"', 1)[0]
        upper = float("inf") if bound == "+Inf" else float(bound)
        buckets.append((upper, value - before.get(name, 0.0)))
    buckets.sort()
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for upper, cumulative in buckets:
        if cumulative >= rank:
            if upper == float("inf"):
                return lower_bound
            span = cumulative - lower_count
            share = (rank - lower_count) / span if span > 0 else 0.0
            return lower_bound + (upper - lower_bound) * share
        lower_bound, lower_count = upper, cumulative
    return lower_bound


# ---------------------------------------------------------------------------
# The open loop
# ---------------------------------------------------------------------------

def _bodies(seed: int, slots) -> list[list[dict]]:
    from repro.orchestrator.serialize import point_to_dict

    cache: dict[tuple, list[dict]] = {}
    out = []
    for slot in slots:
        key = tuple(points.fleet_slot_slices(slot))
        if key not in cache:
            cache[key] = [point_to_dict(p)
                          for p in points.fleet_slot_points(seed, slot)]
        out.append(cache[key])
    return out


class Scraper(threading.Thread):
    """Times ``GET /metrics`` once a second on the second connection."""

    def __init__(self, client, recorder) -> None:
        super().__init__(daemon=True)
        self.client = client
        self.recorder = recorder
        self.stopping = threading.Event()
        self.seconds: list[float] = []

    def run(self) -> None:
        while not self.stopping.wait(1.0):
            start = time.monotonic()
            try:
                self.client.metrics()
            except OSError:
                continue
            end = time.monotonic()
            self.seconds.append(end - start)
            self.recorder.record("observe.metrics_scrape", start, end)


def measure(seconds: float, seed: int, pins: dict, recorder,
            daemon: Daemon) -> dict:
    """Run the schedule against a started, warmed ``daemon``. With a
    ``recorder``, the second half of the schedule is traced."""
    from repro.service.client import ServiceClient

    if seconds > points.MAX_FLEET_SECONDS:
        raise BenchError(f"fleet pins cover {points.MAX_FLEET_SECONDS}s "
                         "schedules at most")
    slots = points.fleet_schedule(seconds)
    bodies = _bodies(seed, slots)
    client = daemon.client
    before = parse_metrics(client.metrics())
    traced_from = len(slots) // 2 if recorder is not None else len(slots)

    submitted: list[dict] = []
    scraper = None
    t0_mono, t0_wall = time.monotonic() + 0.05, time.time() + 0.05
    for index, (slot, body) in enumerate(zip(slots, bodies)):
        traced = index >= traced_from
        if traced and scraper is None:
            scraper = Scraper(ServiceClient(socket_path=daemon.socket,
                                            timeout=60.0), recorder)
            scraper.start()
        delay = t0_mono + slot.due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        start = time.monotonic()
        span = recorder.begin("service.client.submit") if traced else None
        job_id, error = None, None
        try:
            job_id = client.submit(slot.tenant, points=body,
                                   quota=TENANT_QUOTA)["id"]
        except Exception as exc:  # noqa: BLE001 — a refused campaign
            error = repr(exc)
        if span is not None:
            recorder.end(span)
        submitted.append({"slot": slot, "job": job_id, "error": error,
                          "lag": start - (t0_mono + slot.due),
                          "due_wall": t0_wall + slot.due,
                          "traced": traced})
    if scraper is not None:
        scraper.stopping.set()
        scraper.join(timeout=10)
    schedule_seconds = time.monotonic() - t0_mono

    for entry in submitted:
        if entry["job"] is None:
            continue
        try:
            entry["snap"] = daemon.wait(entry["job"])
            entry["results"] = client.results(entry["job"])
        except (OSError, BenchError) as exc:
            entry["error"] = repr(exc)
    after = parse_metrics(client.metrics())
    return {"submitted": submitted, "before": before, "after": after,
            "schedule_seconds": schedule_seconds,
            "scrapes": scraper.seconds if scraper is not None else [],
            "pins": pins[str(points.trace_seed(seed))]}


def check(measured: dict) -> None:
    """Fill each submission's latency and failures from its results."""
    pins = measured["pins"]
    for entry in measured["submitted"]:
        slot = entry["slot"]
        entry["failures"] = []
        entry["sources"] = {}
        if entry.get("error") or "results" not in entry:
            entry["failures"].append(entry.get("error") or "no results")
            continue
        expected = [digest
                    for kind, k, part in points.fleet_slot_slices(slot)
                    for digest in points.take_part(pins[kind][k], part)]
        outcomes = entry["results"]["points"]
        got = [volume_digest(o.get("cycles", 0.0), o.get("instructions", 0))
               if o and o.get("ok") else None for o in outcomes]
        if got != expected:
            entry["failures"].append(f"{entry['job']}: pin mismatch")
        for outcome in outcomes:
            source = (outcome or {}).get("source", "fail")
            entry["sources"][source] = entry["sources"].get(source, 0) + 1
        snap = entry["snap"]
        if snap["state"] != "done" or snap.get("finished_at") is None:
            entry["failures"].append(f"{entry['job']}: {snap['state']}")
            continue
        entry["latency"] = snap["finished_at"] - entry["due_wall"]
        entry["service"] = snap["finished_at"] - snap["created_at"]


def self_check(submitted: list[dict]) -> None:
    def total(source, kinds):
        return sum(e["sources"].get(source, 0) for e in submitted
                   if e["slot"].kind in kinds)

    problems = []
    if total("dedup", ("dup", "matrix")) == 0:
        problems.append("no single-flight dedup hit")
    if total("hit", ("replay",)) == 0:
        problems.append("no replay cache hit")
    if total("sim", ("matrix", "dup")) == 0:
        problems.append("no scalar slice simulated")
    lags = [e["lag"] for e in submitted]
    lag_p90 = percentile(lags, 90)
    if lag_p90 > GENERATOR_SLACK_S:
        problems.append(f"generator lag p90 {lag_p90:.3f}s beyond its "
                        f"{GENERATOR_SLACK_S}s slack")
    if problems:
        raise BenchError("fleet: " + "; ".join(problems))


def latency_windows(entries: list[dict], horizon: float) \
        -> list[list[float]]:
    """Latencies split into LATENCY_WINDOWS equal windows of the schedule
    (by due time, ``horizon`` seconds in all)."""
    windows: list[list[float]] = [[] for _ in range(LATENCY_WINDOWS)]
    for entry in entries:
        index = int(entry["slot"].due * LATENCY_WINDOWS / horizon)
        windows[min(index, LATENCY_WINDOWS - 1)].append(entry["latency"])
    return windows


def windowed_percentile(entries: list[dict], pct: float,
                        horizon: float) -> float:
    """Median over the latency windows of each window's ``pct``
    percentile; every window's percentile needs its own tail samples."""
    return median([percentile(window, pct)
                   for window in latency_windows(entries, horizon)])


def end_to_end(measured: dict) -> tuple[dict, int, int, dict]:
    submitted = measured["submitted"]
    check(measured)
    self_check(submitted)
    attempted = len(submitted)
    failed = sum(1 for e in submitted if e["failures"])
    ok = [e for e in submitted if not e["failures"]]
    latencies = [e["latency"] for e in ok]
    replays = [e for e in ok if e["slot"].kind == "replay"]
    horizon = max(e["slot"].due for e in submitted) + points.FLEET_PERIOD_S
    simulated_instrs = sum(
        o["instructions"] for e in ok
        for o in e["results"]["points"] if o.get("source") == "sim")
    busy = (family_total(measured["after"], "repro_service_sim_seconds_sum")
            - family_total(measured["before"],
                           "repro_service_sim_seconds_sum"))
    if busy <= 0:
        raise BenchError("fleet: the daemon reported no simulation time")
    metrics = {
        "wall_s": median([e["service"] for e in ok]),
        "sim_instrs_per_s": simulated_instrs / busy,
        "replay_points_per_s": median(
            [len(e["results"]["points"]) / e["latency"] for e in replays]),
        "latency_p50_s": windowed_percentile(ok, 50, horizon),
        "latency_p90_s": windowed_percentile(ok, 90, horizon),
        "slo_met_ratio":
            sum(1 for lat in latencies if lat <= SLO_LIMIT_S) / attempted,
    }
    by_kind = {}
    for entry in ok:
        by_kind.setdefault(entry["slot"].kind, []).append(entry["latency"])
    info = {"campaigns": attempted, "latency_samples": len(latencies),
            "latency_window_samples":
                [len(w) for w in latency_windows(ok, horizon)],
            "latency_by_kind": {
                kind: [round(median(values), 4), round(max(values), 4)]
                for kind, values in sorted(by_kind.items())},
            "failures": [f for e in submitted for f in e["failures"]][:10]}
    return metrics, attempted, failed, info


def per_layer(measured: dict) -> dict:
    """Scheduler and endpoint metrics from the daemon's ``/metrics``."""
    before, after = measured["before"], measured["after"]

    def delta(family: str) -> float:
        return family_total(after, family) - family_total(before, family)

    submitted_points = delta("repro_tenant_submitted_points")
    busy = delta("repro_service_sim_seconds_sum")
    schedule = measured["schedule_seconds"]
    traced = [e for e in measured["submitted"] if e["traced"]]
    untraced = [e for e in measured["submitted"] if not e["traced"]]
    lags = [e["lag"] for e in measured["submitted"]]

    def p50(entries):
        # Fresh slices only: the untraced first half holds the schedule's
        # first cycles, which have no replays yet, so the whole mix would
        # not compare like with like.
        values = [e["service"] for e in entries
                  if "service" in e and e["slot"].kind == "fresh"]
        return median(values) if values else 0.0

    return {
        "service.scheduler.queue_wait_p50_s": bucket_quantile(
            before, after, "repro_service_queue_wait_seconds", 0.5),
        "service.scheduler.queue_wait_p90_s": bucket_quantile(
            before, after, "repro_service_queue_wait_seconds", 0.9),
        "service.scheduler.point_latency_p50_s": bucket_quantile(
            before, after, "repro_service_sim_seconds", 0.5),
        "service.scheduler.dedup_ratio":
            delta("repro_service_single_flight_dedup")
            / max(1.0, submitted_points),
        "service.scheduler.cache_hit_ratio":
            delta("repro_tenant_cache_hits") / max(1.0, submitted_points),
        "service.scheduler.pool_busy_ratio":
            busy / (WORKERS * schedule) if schedule > 0 else 0.0,
        "service.scheduler.pool_resets": delta("repro_service_pool_resets"),
        "service.scheduler.timeouts": delta("repro_service_timeouts"),
        "observe.metrics_scrape_s":
            median(measured["scrapes"]) if measured["scrapes"] else 0.0,
        "fleet.generator_lag_p90_s": percentile(lags, 90),
        "trace.overhead_ratio":
            p50(traced) / p50(untraced) if p50(untraced) > 0 else 0.0,
    }
