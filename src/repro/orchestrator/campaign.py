"""Parallel simulation campaigns over a process pool with an L2 disk cache.

A :class:`Campaign` collects :class:`SimPoint`\\ s, resolves as many as it
can from the content-addressed :class:`ResultCache`, fans the misses out
across a ``ProcessPoolExecutor``, and returns results in submission order
regardless of completion order. Worker failures are retried a bounded
number of times.

Per-point timeouts are real deadlines: at most ``jobs`` points are
outstanding at once, each point's clock starts when it is handed to the
pool (not when the collector gets around to it), and a worker that blows
its deadline is killed and its pool slot reclaimed — one wedged point can
neither inflate later points' budgets nor permanently occupy a worker.

Telemetry (points done, cache hits/misses, retries, worker busy-time) is
kept up to date as points complete and handed to an optional progress
callback after every point.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import sanitize_requested
from repro.memory.writebuffer import PersistOp
from repro.pipeline.stats import CoreStats

from repro.orchestrator.cache import ResultCache, point_digest
from repro.orchestrator.execute import (
    run_cohort_payloads,
    run_point_payload,
    worker_init,
)
from repro.orchestrator.points import SimPoint
from repro.orchestrator.serialize import (
    persist_log_from_payload,
    stats_from_payload,
)


@dataclass
class PointResult:
    """Outcome of one campaign point (order matches submission order)."""

    index: int
    point: SimPoint
    stats: CoreStats | None = None
    persist_log: list[PersistOp] | None = None
    cache_hit: bool = False
    # Simulation time spent inside a worker *during this campaign*; a
    # cache hit costs no simulation, so it reports 0.0 here and carries
    # the original run's time in cached_wall_clock instead. Throughput
    # and utilization math must only ever aggregate wall_clock over
    # simulated (non-hit) points.
    wall_clock: float = 0.0
    cached_wall_clock: float = 0.0   # original sim time of a cache hit
    attempts: int = 0                # simulation attempts (0 for cache hits)
    # Which kernel produced the stats ("scalar"/"batched"); cache hits
    # report the original producer, failures None.
    engine: str | None = None
    error: str | None = None
    # Worker accounting the payload carried ({"pid", "imports",
    # "preloaded"}); None for cache hits. Stripped from the payload before
    # caching — pids are not deterministic.
    worker: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return self.stats is not None

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable digest of the result (no stats payload)."""
        from repro.statsbase import sim_volume

        cycles, instructions = (sim_volume(self.stats)
                                if self.stats is not None else (0.0, 0))
        return {
            "index": self.index,
            "point": self.point.name,
            "ok": self.ok,
            "cache_hit": self.cache_hit,
            "wall_clock": self.wall_clock,
            "cached_wall_clock": self.cached_wall_clock,
            "attempts": self.attempts,
            "engine": self.engine,
            "error": self.error,
            "cycles": cycles,
            "instructions": instructions,
        }


@dataclass
class CampaignTelemetry:
    """Live campaign accounting, snapshotted to progress callbacks."""

    total: int = 0
    done: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    failures: int = 0               # points that exhausted their retries
    retries: int = 0                # extra attempts after a failure
    timeouts: int = 0               # attempts that blew their deadline
    engine: str = "scalar"          # resolved engine mode for this run
    cohorts: int = 0                # lockstep cohorts planned (>= 2 lanes)
    batched_points: int = 0         # points whose result ran batched
    # unbatchable_reason -> count: why planned points stayed on the scalar
    # kernel (engine choice, scheme with no batched kernel, cohort of 1,
    # campaign-wide sanitize/trace instrumentation, ...). Only simulated
    # (cache-missed) points are planned, so hits never show up here.
    scalar_reasons: dict[str, int] = field(default_factory=dict)
    jobs: int = 1
    busy_seconds: float = 0.0       # summed worker simulation time
    # pid -> number of `repro` imports that worker performed (via its
    # initializer). A warm pool shows exactly 1 per worker no matter how
    # many points it ran; serial in-process runs record nothing.
    worker_imports: dict[int, int] = field(default_factory=dict)
    started_at: float = field(default_factory=time.perf_counter)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started_at

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent simulating."""
        wall = self.elapsed * max(1, self.jobs)
        return self.busy_seconds / wall if wall > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "engine": self.engine,
            "cohorts": self.cohorts,
            "batched_points": self.batched_points,
            "scalar_reasons": dict(sorted(self.scalar_reasons.items())),
            "jobs": self.jobs,
            "busy_seconds": self.busy_seconds,
            "worker_imports": {str(pid): count for pid, count
                               in sorted(self.worker_imports.items())},
            "elapsed": self.elapsed,
            "worker_utilization": self.worker_utilization,
        }

    def summary_line(self) -> str:
        return (f"{self.done}/{self.total} points, "
                f"L2 {self.cache_hits} hit / {self.cache_misses} miss, "
                f"{self.simulated} simulated "
                f"({self.batched_points} batched in {self.cohorts} "
                f"cohorts), {self.retries} retries, "
                f"{self.failures} failed, "
                f"{self.elapsed:.1f}s elapsed, "
                f"{100.0 * self.worker_utilization:.0f}% "
                f"worker utilization")


ProgressCallback = Callable[[CampaignTelemetry, PointResult], None]


class CampaignError(RuntimeError):
    """A point exhausted its retries and ``fail_fast`` was requested."""


class Campaign:
    """Submit points, then :meth:`run` them with caching and parallelism."""

    def __init__(self, cache: ResultCache | None = None, jobs: int = 1,
                 timeout: float | None = None, retries: int = 1,
                 progress: ProgressCallback | None = None,
                 fail_fast: bool = False,
                 sanitize: bool | None = None,
                 trace_dir: str | None = None,
                 engine: str | None = None) -> None:
        from repro.engine import resolve_engine

        self.cache = cache
        self.jobs = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.progress = progress
        self.fail_fast = fail_fast
        # Execution engine (repro.engine contract: None resolves
        # REPRO_ENGINE, default "auto"). Cache misses are planned into
        # lockstep cohorts (repro.engine.plan) and each cohort is one
        # schedulable unit; a failed cohort splits back to scalar
        # singletons. Sanitized/traced campaigns need the scalar kernel's
        # instrumentation hooks, so they never plan cohorts.
        self.engine = resolve_engine(engine)
        # Run every simulated point under the persistency sanitizer
        # (repro.sanitizer); None defers to the REPRO_SANITIZE environment
        # variable. Cached hits are returned as-is — the sanitizer checks
        # execution, not payloads.
        self.sanitize = sanitize_requested() if sanitize is None \
            else sanitize
        # With a trace_dir, every *simulated* point (cache hits have no
        # execution to trace) records cycle-level telemetry and drops a
        # Perfetto-loadable Chrome trace named after the point.
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.points: list[SimPoint] = []
        self.telemetry = CampaignTelemetry(jobs=self.jobs)
        # Structured log (repro.observe.slog) or None; resolved per run()
        # so REPRO_LOG set between runs takes effect.
        self._slog = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def add(self, point: SimPoint) -> int:
        """Queue a point; returns its (stable) result index."""
        self.points.append(point)
        return len(self.points) - 1

    def add_run(self, profile, scheme: str, **kwargs: Any) -> int:
        """Convenience: build the point via :func:`make_point` and queue
        it."""
        from repro.orchestrator.points import make_point

        return self.add(make_point(profile, scheme, **kwargs))

    def extend(self, points) -> None:
        for point in points:
            self.add(point)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self) -> list[PointResult]:
        """Execute every queued point; results come back in submission
        order with deterministic content (the simulator is seeded)."""
        from repro.observe.slog import log_for_run

        telemetry = self.telemetry = CampaignTelemetry(jobs=self.jobs,
                                                       engine=self.engine)
        telemetry.total = len(self.points)
        self._slog = log_for_run()
        if self._slog is not None:
            self._slog.emit("campaign.start", points=len(self.points),
                            jobs=self.jobs, engine=self.engine,
                            sanitize=self.sanitize,
                            trace_dir=self.trace_dir)
        results: list[PointResult | None] = [None] * len(self.points)

        misses: list[int] = []
        for index, point in enumerate(self.points):
            result = self._try_cache(index, point)
            if result is not None:
                results[index] = result
                self._account(result)
            else:
                misses.append(index)

        if misses:
            jobs = self._plan_jobs(misses)
            # A timeout needs a worker process to kill: in-process serial
            # execution cannot interrupt a wedged simulation, so a
            # jobs=1 campaign with a deadline runs on a 1-worker pool.
            if self.jobs == 1 and self.timeout is None:
                self._run_serial(jobs, results)
            else:
                self._run_pool(misses, jobs, results)
        assert all(r is not None for r in results)
        if self._slog is not None:
            self._slog.emit("campaign.done",
                            **{key: value for key, value
                               in telemetry.to_dict().items()
                               if key != "worker_imports"})
        return results  # type: ignore[return-value]

    # -- batch planning -------------------------------------------------

    def _plan_jobs(self, misses: list[int]) \
            -> list[tuple[tuple[int, ...], bool]]:
        """Partition the missed indices into schedulable jobs: each job is
        ``(point indices, run_batched)`` — a lockstep cohort or a scalar
        singleton. A width-1 cohort (only possible under
        ``engine="batched"``) is demoted to a singleton: per-point
        execution receives the campaign's engine, so the point still runs
        the batched kernel, while keeping the per-point path — with its
        timeout/retry accounting and test seams — the only way single
        points execute."""
        if self.engine == "scalar" or self.sanitize or \
                self.trace_dir is not None:
            reason = ("engine=scalar" if self.engine == "scalar"
                      else "sanitizer needs scalar instrumentation"
                      if self.sanitize
                      else "tracing needs scalar instrumentation")
            self.telemetry.scalar_reasons[reason] = len(misses)
            return [((index,), False) for index in misses]
        from repro.engine.plan import plan_points

        plan = plan_points([self.points[i] for i in misses], self.engine)
        self.telemetry.scalar_reasons = plan.summary()["scalar_reasons"]
        jobs = [(tuple(misses[i] for i in cohort.indices), True)
                for cohort in plan.cohorts if len(cohort.indices) > 1]
        self.telemetry.cohorts = len(jobs)
        jobs.extend(((misses[cohort.indices[0]],), False)
                    for cohort in plan.cohorts if len(cohort.indices) == 1)
        jobs.extend(((misses[i],), False) for i in plan.scalar_indices)
        return jobs

    # -- cache probe ----------------------------------------------------

    def _try_cache(self, index: int, point: SimPoint) -> PointResult | None:
        if self.cache is None:
            return None
        digest = point_digest(point)
        payload = self.cache.get(digest)
        if payload is None:
            return None
        return PointResult(
            index=index, point=point,
            stats=stats_from_payload(payload),
            persist_log=persist_log_from_payload(payload),
            cache_hit=True,
            cached_wall_clock=payload.get("wall_clock", 0.0),
            engine=payload.get("engine", "scalar"),
        )

    def _store(self, point: SimPoint, payload: dict[str, Any]) -> None:
        if self.cache is not None:
            self.cache.put(point_digest(point), payload,
                           meta={"point": point.name})

    # -- bookkeeping ----------------------------------------------------

    def _account(self, result: PointResult) -> None:
        telemetry = self.telemetry
        telemetry.done += 1
        if result.cache_hit:
            telemetry.cache_hits += 1
        else:
            telemetry.cache_misses += 1
            if result.worker is not None and "pid" in result.worker:
                telemetry.worker_imports[result.worker["pid"]] = \
                    result.worker["imports"]
            if result.ok:
                telemetry.simulated += 1
                telemetry.busy_seconds += result.wall_clock
                if result.engine == "batched":
                    telemetry.batched_points += 1
            else:
                telemetry.failures += 1
        if self._slog is not None:
            self._slog.emit(
                "campaign.point", point=result.point.name,
                index=result.index,
                source=("hit" if result.cache_hit
                        else "sim" if result.ok else "fail"),
                engine=result.engine, wall=result.wall_clock,
                attempts=result.attempts, error=result.error,
                done=telemetry.done, total=telemetry.total)
        if self.progress is not None:
            self.progress(telemetry, result)
        if result.error is not None and self.fail_fast:
            raise CampaignError(
                f"point {result.index} ({result.point.name}) failed after "
                f"{result.attempts} attempts: {result.error}")

    def _result_from_payload(self, index: int, point: SimPoint,
                             payload: dict[str, Any],
                             attempts: int) -> PointResult:
        # Strip worker accounting before the payload reaches the cache:
        # cached payloads must stay deterministic, and a future cache hit
        # ran in no worker at all.
        worker = payload.pop("worker", None)
        result = PointResult(
            index=index, point=point,
            stats=stats_from_payload(payload),
            persist_log=persist_log_from_payload(payload),
            wall_clock=payload.get("wall_clock", 0.0),
            attempts=attempts,
            engine=payload.get("engine", "scalar"),
            worker=worker,
        )
        self._store(point, payload)
        return result

    # -- serial path ----------------------------------------------------

    def _run_serial(self, jobs: list[tuple[tuple[int, ...], bool]],
                    results: list[PointResult | None]) -> None:
        pending = deque(jobs)
        while pending:
            job, batched = pending.popleft()
            if batched:
                try:
                    payloads = run_cohort_payloads(
                        [self.points[i] for i in job], self.sanitize,
                        self.trace_dir)
                except Exception:  # noqa: BLE001 — split and retry scalar
                    # The cohort's failure is not any one point's failure:
                    # re-run each lane as a scalar singleton with its full
                    # attempt budget.
                    pending.extendleft(((i,), False)
                                       for i in reversed(job))
                    continue
                for index, payload in zip(job, payloads):
                    result = self._result_from_payload(
                        index, self.points[index], payload, 1)
                    results[index] = result
                    self._account(result)
                continue
            index = job[0]
            point = self.points[index]
            attempts = 0
            while True:
                attempts += 1
                try:
                    payload = run_point_payload(point, self.sanitize,
                                                self.trace_dir,
                                                engine=self.engine)
                except Exception as exc:  # noqa: BLE001 — retried below
                    if attempts <= self.retries:
                        self.telemetry.retries += 1
                        continue
                    result = PointResult(index=index, point=point,
                                         attempts=attempts, error=repr(exc))
                else:
                    result = self._result_from_payload(
                        index, point, payload, attempts)
                break
            results[index] = result
            self._account(result)

    # -- pool path ------------------------------------------------------

    def _preload_specs(self, misses: list[int]) -> tuple:
        """Trace specs worth interning in every worker up front: the
        ``(profile, length, seed)`` combinations shared by two or more
        submitted points (a sweep varies config/scheme, not the trace)."""
        from collections import Counter

        counts = Counter(
            (self.points[i].profile, self.points[i].length,
             self.points[i].seed) for i in misses)
        return tuple(spec for spec, count in counts.most_common(8)
                     if count >= 2)

    def _make_pool(self, misses: list[int]) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=worker_init,
            initargs=(self._preload_specs(misses),))

    def _run_pool(self, misses: list[int],
                  jobs: list[tuple[tuple[int, ...], bool]],
                  results: list[PointResult | None]) -> None:
        """Completion-order collection over a bounded in-flight window.

        At most ``jobs`` schedulable units are outstanding, so a submitted
        unit is (modulo executor hand-off) a *running* unit and its
        deadline can honestly start at submission. A lockstep cohort is
        one unit: its deadline scales with its lane count, and on any
        failure (worker exception, blown deadline, dead pool) it splits
        back into scalar singletons re-queued at the front with the
        cohort attempt refunded — the cohort's failure is not any one
        point's failure. Results land in ``results`` by index, so the
        caller still observes submission order.
        """
        pool = self._make_pool(misses)
        waiting: deque = deque(jobs)             # not yet (re)submitted
        inflight: dict[Future, tuple[tuple[int, ...], bool]] = {}
        deadlines: dict[tuple, float] = {}
        attempts: dict[int, int] = dict.fromkeys(misses, 0)
        try:
            while waiting or inflight:
                while waiting and len(inflight) < self.jobs:
                    job = waiting.popleft()
                    indices, batched = job
                    for index in indices:
                        attempts[index] += 1
                    if batched:
                        future = pool.submit(
                            run_cohort_payloads,
                            [self.points[i] for i in indices],
                            self.sanitize, self.trace_dir)
                    else:
                        future = pool.submit(
                            run_point_payload, self.points[indices[0]],
                            self.sanitize, self.trace_dir,
                            engine=self.engine)
                    inflight[future] = job
                    if self.timeout is not None:
                        deadlines[job] = (time.monotonic()
                                          + self.timeout * len(indices))
                budget = None
                if deadlines:
                    budget = max(0.0, min(deadlines[j] for j in
                                          inflight.values())
                                 - time.monotonic())
                done, _ = wait(set(inflight), timeout=budget,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    job = inflight.pop(future, None)
                    if job is None:
                        # A sibling's BrokenExecutor already recycled this
                        # job onto the fresh pool.
                        continue
                    deadlines.pop(job, None)
                    indices, batched = job
                    try:
                        payload = future.result()
                    except BrokenExecutor as exc:
                        # The pool is dead (worker OOM/segfault): every
                        # sibling future broke with it, so recycle them
                        # all onto a fresh pool; only this job is
                        # charged.
                        pool = self._recycle_pool(
                            pool, inflight, deadlines, waiting, attempts,
                            kill=False)
                        self._fail_job(waiting, attempts, results, job,
                                       repr(exc))
                    except Exception as exc:  # noqa: BLE001 — worker raised
                        self._fail_job(waiting, attempts, results, job,
                                       repr(exc))
                    else:
                        payloads = payload if batched else [payload]
                        for index, lane_payload in zip(indices, payloads):
                            result = self._result_from_payload(
                                index, self.points[index], lane_payload,
                                attempts[index])
                            results[index] = result
                            self._account(result)
                if self.timeout is not None:
                    pool = self._expire_deadlines(
                        pool, inflight, deadlines, waiting, attempts,
                        results)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _expire_deadlines(self, pool: ProcessPoolExecutor,
                          inflight: dict[Future, tuple],
                          deadlines: dict[tuple, float],
                          waiting: deque,
                          attempts: dict[int, int],
                          results: list[PointResult | None]) \
            -> ProcessPoolExecutor:
        """Fail/retry every in-flight job past its deadline and reclaim
        the pool slots their workers occupy."""
        now = time.monotonic()
        expired = [(future, job) for future, job in inflight.items()
                   if deadlines.get(job, now + 1.0) <= now]
        if not expired:
            return pool
        must_kill = False
        for future, job in expired:
            del inflight[future]
            del deadlines[job]
            self.telemetry.timeouts += 1
            # A future the executor has not started yet cancels cleanly;
            # a running worker must be killed or it keeps the slot.
            if not future.cancel():
                must_kill = True
            self._fail_job(
                waiting, attempts, results, job,
                f"deadline exceeded ({self.timeout}s)")
        if must_kill:
            pool = self._recycle_pool(pool, inflight, deadlines, waiting,
                                      attempts, kill=True)
        return pool

    def _fail_job(self, waiting: deque, attempts: dict[int, int],
                  results: list[PointResult | None],
                  job: tuple[tuple[int, ...], bool], error: str) -> None:
        """Handle one failed schedulable unit: a cohort splits back into
        scalar singletons (front of the line, cohort attempt refunded); a
        singleton retries or records its failure."""
        indices, batched = job
        if batched:
            for index in indices:
                attempts[index] -= 1
            waiting.extendleft(((index,), False)
                               for index in reversed(indices))
            return
        self._finish_failure(waiting, attempts, results, indices[0], error)

    def _finish_failure(self, waiting: deque,
                        attempts: dict[int, int],
                        results: list[PointResult | None], index: int,
                        error: str) -> None:
        """Requeue ``index`` (front of the line) if retry budget remains,
        else record its failed :class:`PointResult`."""
        if attempts[index] <= self.retries:
            self.telemetry.retries += 1
            waiting.appendleft(((index,), False))
            return
        result = PointResult(index=index, point=self.points[index],
                             attempts=attempts[index], error=error)
        results[index] = result
        self._account(result)

    def _recycle_pool(self, pool: ProcessPoolExecutor,
                      inflight: dict[Future, tuple],
                      deadlines: dict[tuple, float], waiting: deque,
                      attempts: dict[int, int],
                      kill: bool) -> ProcessPoolExecutor:
        """Replace a dead (or deliberately killed) pool.

        Surviving in-flight jobs go back to the front of the waiting
        queue with their submission-time attempts refunded — the pool's
        death was not their failure, and resubmission charges them again.
        With ``kill``, worker processes are terminated first so a wedged
        simulation actually releases its slot."""
        if kill:
            for process in getattr(pool, "_processes", {}).values():
                try:
                    process.terminate()
                except OSError:  # pragma: no cover — already reaped
                    pass
        pool.shutdown(wait=False, cancel_futures=True)
        for job in sorted(inflight.values(), reverse=True):
            for index in job[0]:
                attempts[index] -= 1
            waiting.appendleft(job)
        inflight.clear()
        deadlines.clear()
        return self._make_pool([i for job in waiting for i in job[0]])
