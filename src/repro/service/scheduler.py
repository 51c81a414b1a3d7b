"""Fair multi-tenant scheduling over one shared worker fleet.

The :class:`FleetScheduler` owns the daemon's process pool and the L2
result cache. Tenants submit campaigns (lists of :class:`SimPoint`\\ s);
their points queue per tenant, and a single dispatch loop hands them to
the pool in strict round-robin order across tenants — a tenant that
submits 10,000 points cannot starve one that submits 10 — bounded by a
per-tenant in-flight quota.

Every point passes through three tiers:

1. **L2 probe** — the content-addressed :class:`ResultCache`; a hit costs
   no worker slot at all.
2. **Single-flight** — a digest already being simulated (by *any*
   tenant) is joined, not re-run; followers wait on the leader's future
   and the simulation happens exactly once.
3. **Simulate** — a pool worker runs the point under a per-point
   deadline measured from dispatch; a worker that blows its deadline is
   killed and the fleet rebuilt so the slot comes back.

Per-tenant counters (submitted/hits/simulated/deduped/failures/…) live
in a :class:`repro.telemetry.metrics.MetricsRegistry` and surface through
the service status API.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import time
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.config import sanitize_requested
from repro.observe.slog import log_for_run
from repro.telemetry.metrics import MetricsRegistry

from repro.orchestrator.cache import ResultCache, point_digest
from repro.orchestrator.execute import (
    point_trace_filename,
    run_cohort_payloads,
    run_point_payload,
    worker_init,
)
from repro.orchestrator.points import SimPoint

# How many times a point may be bounced by a *pool* death (another
# point's kill, a worker OOM) without being charged a retry of its own.
POOL_BOUNCE_BUDGET = 3


@dataclass
class PointTask:
    """One schedulable unit: a campaign point plus its cache digest."""

    job: "CampaignJob"
    index: int
    point: SimPoint
    digest: str
    attempts: int = 0
    bounces: int = 0
    enqueued_at: float = field(default_factory=time.time)
    # Scheduler-side stitch spans ([{name, start, end}] in wall-clock
    # seconds); a list only when the fleet traces (--trace-dir), so the
    # untraced path stays one `is None` test per record site.
    spans: list[dict[str, Any]] | None = None

    @property
    def width(self) -> int:
        return 1


@dataclass
class CohortTask:
    """A lockstep cohort scheduled as one unit: its lanes advance on one
    worker through the batched kernel (:mod:`repro.engine.batched`).

    The cohort counts ``width`` lanes against its tenant's in-flight
    quota, and any failure splits it back into scalar :class:`PointTask`
    singletons re-queued at the front of the tenant's queue with fresh
    attempt budgets — the cohort's failure is not any one lane's failure.
    """

    job: "CampaignJob"
    indices: list[int]
    points: list[SimPoint]
    digests: list[str]
    enqueued_at: float = field(default_factory=time.time)

    @property
    def width(self) -> int:
        return len(self.indices)


@dataclass
class TenantState:
    """One tenant's queue, quota, and live accounting."""

    name: str
    quota: int
    queue: deque[PointTask] = field(default_factory=deque)
    inflight: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "quota": self.quota,
                "queued": len(self.queue), "inflight": self.inflight}


class CampaignJob:
    """One submitted campaign: points, per-point outcomes, event stream."""

    def __init__(self, job_id: str, tenant: str, points: list[SimPoint],
                 meta: dict[str, Any]) -> None:
        self.id = job_id
        self.tenant = tenant
        self.points = points
        self.meta = meta                      # sweep name/apps/... echo
        self.state = "queued"
        self.created_at = time.time()
        self.finished_at: float | None = None
        self.done = 0
        self.hits = 0
        self.simulated = 0
        self.deduped = 0
        self.failures = 0
        # index -> worker payload (the cache/worker wire form); outcomes
        # carry the light per-point digest for status/results endpoints.
        self.payloads: dict[int, dict[str, Any]] = {}
        # index -> scheduler-side stitch spans (traced fleets only).
        self.sched_spans: dict[int, list[dict[str, Any]]] = {}
        self.outcomes: list[dict[str, Any] | None] = [None] * len(points)
        self.events: list[dict[str, Any]] = []
        self._event_cond = asyncio.Condition()
        self.finished = asyncio.Event()

    @property
    def total(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "cache_hits": self.hits,
            "simulated": self.simulated,
            "deduped": self.deduped,
            "failures": self.failures,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "meta": self.meta,
        }

    async def record(self, event: dict[str, Any]) -> None:
        """Append one progress event and wake streaming readers."""
        async with self._event_cond:
            self.events.append(event)
            self._event_cond.notify_all()

    async def events_since(self, cursor: int) -> list[dict[str, Any]]:
        """Events past ``cursor``, waiting until at least one exists or
        the campaign is finished."""
        async with self._event_cond:
            while cursor >= len(self.events) and not self.finished.is_set():
                try:
                    await asyncio.wait_for(self._event_cond.wait(), 0.5)
                except asyncio.TimeoutError:
                    continue
            return self.events[cursor:]


class FleetScheduler:
    """Round-robin multiplexer of tenant campaigns onto a process pool."""

    # How long one disk-inventory scan is served from memory before the
    # next /v1/status (or /metrics scrape) pays for a fresh one.
    CACHE_INVENTORY_TTL = 10.0

    def __init__(self, cache: ResultCache | None, workers: int = 2,
                 quota: int | None = None, timeout: float | None = None,
                 retries: int = 1, sanitize: bool | None = None,
                 engine: str | None = None,
                 trace_dir: str | None = None,
                 heartbeat: float | None = 10.0) -> None:
        from repro.engine import resolve_engine

        self.cache = cache
        self.workers = max(1, workers)
        # Execution engine (repro.engine contract). Submissions are
        # planned into lockstep cohorts, each a single schedulable unit;
        # sanitized fleets stay scalar (the sanitizer instruments the
        # scalar kernel).
        self.engine = resolve_engine(engine)
        # Per-tenant in-flight cap; by default every tenant may fill the
        # fleet alone — round-robin dispatch still splits it fairly the
        # moment a second tenant shows up.
        self.default_quota = quota if quota is not None else self.workers
        self.timeout = timeout
        self.retries = max(0, retries)
        self.sanitize = sanitize_requested() if sanitize is None \
            else sanitize
        # Traced fleets run scalar (runtime_scalar_reason: the tracer
        # instruments the scalar kernel) and collect scheduler-side
        # stitch spans per point; ``repro.observe stitch`` merges them
        # with the worker kernel traces written under this directory.
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.heartbeat = heartbeat if heartbeat and heartbeat > 0 else None
        self._slog = log_for_run()
        self.metrics = MetricsRegistry()
        self.tenants: dict[str, TenantState] = {}
        self.jobs: dict[str, CampaignJob] = {}
        self._job_ids = itertools.count(1)
        self._rr = deque()                    # tenant round-robin order
        self._inflight_digests: dict[str, asyncio.Future] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._pool_lock: asyncio.Lock | None = None
        self._wakeup: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._point_tasks: set[asyncio.Task] = set()
        # (monotonic deadline, inventory dict) — cache_inventory() TTL.
        self._inventory: tuple[float, dict[str, Any]] | None = None
        self.started_at = time.time()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._pool_lock = asyncio.Lock()
        self._wakeup = asyncio.Event()
        self._pool = self._make_pool()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        if self.heartbeat is not None:
            self._heartbeat_task = asyncio.create_task(
                self._heartbeat_loop())

    async def close(self) -> None:
        self._closed = True
        for looper in (self._dispatcher, self._heartbeat_task):
            if looper is None:
                continue
            looper.cancel()
            try:
                await looper
            except asyncio.CancelledError:
                pass
        for task in list(self._point_tasks):
            task.cancel()
        if self._point_tasks:
            await asyncio.gather(*self._point_tasks,
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def _make_pool(self) -> ProcessPoolExecutor:
        # The daemon holds live client sockets whenever a pool worker is
        # (re)created, so plain fork would copy those fds into long-lived
        # workers — the server's close() then never reaches the client
        # (no FIN while a worker still holds the fd) and event streams
        # hang until the client's socket timeout. forkserver workers fork
        # from an exec'd helper that never saw our sockets.
        context = multiprocessing.get_context("forkserver")
        # Preload the simulator in the forkserver so each worker fork is
        # cheap; a no-op once the forkserver is already running.
        context.set_forkserver_preload(["repro.orchestrator.execute"])
        return ProcessPoolExecutor(max_workers=self.workers,
                                   mp_context=context,
                                   initializer=worker_init)

    async def _heartbeat_loop(self) -> None:
        """Periodic liveness beat on every unfinished campaign's event
        stream, so a client tailing a stalled campaign (wedged worker,
        quota starvation) sees progress *of time* even when no point
        completes between beats. ``client.wait()`` ignores non-point
        event types, so old clients are unaffected."""
        while True:
            await asyncio.sleep(self.heartbeat)
            now = time.time()
            for job in list(self.jobs.values()):
                if job.finished.is_set():
                    continue
                await job.record({
                    "type": "heartbeat", "campaign": job.id,
                    "tenant": job.tenant, "ts": now,
                    "done": job.done, "total": job.total,
                    "age": now - job.created_at,
                })

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def tenant(self, name: str, quota: int | None = None) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = self.tenants[name] = TenantState(
                name=name, quota=quota or self.default_quota)
            self._rr.append(name)
        elif quota is not None:
            state.quota = quota
        return state

    async def submit(self, tenant_name: str, points: list[SimPoint],
                     meta: dict[str, Any] | None = None,
                     quota: int | None = None) -> CampaignJob:
        """Queue one campaign for ``tenant_name``; returns immediately."""
        if self._closed:
            raise RuntimeError("scheduler is shut down")
        if not points:
            raise ValueError("a campaign needs at least one point")
        tenant = self.tenant(tenant_name, quota)
        job = CampaignJob(f"c{next(self._job_ids):04d}", tenant_name,
                          points, meta or {})
        self.jobs[job.id] = job
        job.state = "running"
        for task in self._plan_tasks(job, points):
            tenant.queue.append(task)
        self._counter(tenant_name, "submitted_points").inc(len(points))
        self.metrics.counter("service.campaigns").inc()
        if self._slog is not None:
            self._slog.emit("campaign.submitted", campaign=job.id,
                            tenant=tenant_name, points=len(points),
                            meta=job.meta)
        self._wakeup.set()
        return job

    def _counter(self, tenant: str, name: str):
        return self.metrics.counter(f"tenant.{tenant}.{name}")

    def _record_queue_wait(self, tenant: TenantState,
                           task: PointTask | CohortTask) -> None:
        wait = max(0.0, time.time() - task.enqueued_at)
        self.metrics.histogram("service.queue_wait_seconds").add(wait)
        self.metrics.histogram(
            f"tenant.{tenant.name}.queue_wait_seconds").add(wait)
        if isinstance(task, PointTask) and task.spans is not None:
            task.spans.append({"name": "queue-wait",
                               "start": task.enqueued_at,
                               "end": time.time()})

    @staticmethod
    def _span(task: PointTask, name: str, start: float) -> None:
        """Record one closed scheduler-side span (traced fleets only)."""
        if task.spans is not None:
            task.spans.append({"name": name, "start": start,
                               "end": time.time()})

    def _lane_metrics(self, payload: dict[str, Any], wall: float) -> None:
        """Engine introspection counters from one simulated payload:
        which kernel actually ran, lockstep divergence, and retired
        instruction throughput split batched-vs-scalar."""
        engine = payload.get("engine", "scalar")
        self.metrics.counter(f"service.lanes_{engine}").inc()
        if payload.get("diverged_at") is not None:
            self.metrics.counter("service.lane_divergences").inc()
        instructions = payload.get("instructions", 0)
        if wall > 0 and instructions:
            self.metrics.histogram(
                f"service.{engine}_instrs_per_sec").add(
                    instructions / wall)

    def _count_scalar_reasons(self, reasons: dict[str, int]) -> None:
        """Fleet-wide ``service.scalar_reason.<slug>`` counters: why
        planned points stayed on the scalar kernel, keyed by the
        planner's ``unbatchable_reason`` strings (slugged for metric
        names). Answers "why didn't this sweep batch?" from /metrics."""
        import re

        for reason, count in reasons.items():
            slug = re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")
            self.metrics.counter(f"service.scalar_reason.{slug}").inc(
                count)

    def _plan_tasks(self, job: CampaignJob, points: list[SimPoint]) \
            -> list[PointTask | CohortTask]:
        """Schedulable units for one submission: lockstep cohorts plus
        scalar singletons, ordered by first point index."""
        tracing = self.trace_dir is not None

        def singleton(index: int) -> PointTask:
            return PointTask(
                job=job, index=index, point=points[index],
                digest=point_digest(points[index]),
                spans=[] if tracing else None)

        # Traced fleets stay scalar for the same reason sanitized ones
        # do: runtime_scalar_reason() forces the scalar kernel in the
        # worker, so a cohort would only be re-split there anyway.
        if self.engine == "scalar" or self.sanitize or tracing:
            reason = ("engine=scalar" if self.engine == "scalar"
                      else "sanitizer needs scalar instrumentation"
                      if self.sanitize
                      else "tracing needs scalar instrumentation")
            self._count_scalar_reasons({reason: len(points)})
            return [singleton(index) for index in range(len(points))]
        from repro.engine.plan import plan_points

        plan = plan_points(points, self.engine)
        self._count_scalar_reasons(plan.summary()["scalar_reasons"])
        # Width-1 cohorts (engine="batched" only) are demoted to point
        # tasks: the worker receives the scheduler's engine with the point,
        # so the point still runs the batched kernel while keeping the
        # singleton retry/dedup machinery the only per-point path.
        tasks: list[PointTask | CohortTask] = [
            CohortTask(job=job, indices=list(cohort.indices),
                       points=list(cohort.points),
                       digests=[point_digest(p) for p in cohort.points])
            for cohort in plan.cohorts if len(cohort.indices) > 1]
        self.metrics.counter("service.cohorts").inc(len(tasks))
        for cohort_task in tasks:
            self.metrics.histogram("service.cohort_width").add(
                float(cohort_task.width))
        tasks.extend(singleton(cohort.indices[0])
                     for cohort in plan.cohorts
                     if len(cohort.indices) == 1)
        tasks.extend(singleton(index) for index in plan.scalar_indices)
        tasks.sort(key=lambda t: t.indices[0]
                   if isinstance(t, CohortTask) else t.index)
        return tasks

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _next_task(self) \
            -> tuple[TenantState, PointTask | CohortTask] | None:
        """Strict round-robin: the first tenant (in rotation order) with
        queued work and quota headroom; the rotation advances past every
        tenant inspected, so service alternates under contention.

        A cohort at the head of a tenant's queue counts its full lane
        width against the quota; a cohort wider than the quota itself is
        only dispatched when the tenant has nothing else in flight
        (otherwise it could never run at all)."""
        for _ in range(len(self._rr)):
            name = self._rr[0]
            self._rr.rotate(-1)
            tenant = self.tenants[name]
            if not tenant.queue:
                continue
            width = tenant.queue[0].width
            if tenant.inflight and \
                    tenant.inflight + width > tenant.quota:
                self._counter(name, "quota_deferred").inc()
                continue
            return tenant, tenant.queue.popleft()
        return None

    def _has_runnable(self) -> bool:
        return any(t.queue and (not t.inflight or
                                t.inflight + t.queue[0].width <= t.quota)
                   for t in self.tenants.values())

    async def _dispatch_loop(self) -> None:
        while True:
            picked = self._next_task()
            if picked is None:
                quota_blocked = any(t.queue for t in self.tenants.values())
                if quota_blocked:
                    self.metrics.counter("service.quota_waits").inc()
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            tenant, task = picked
            tenant.inflight += task.width
            if isinstance(task, CohortTask):
                runner = asyncio.create_task(
                    self._run_cohort(tenant, task))
            else:
                runner = asyncio.create_task(
                    self._run_point(tenant, task))
            self._point_tasks.add(runner)
            runner.add_done_callback(self._point_tasks.discard)

    # ------------------------------------------------------------------
    # Point execution
    # ------------------------------------------------------------------

    async def _run_point(self, tenant: TenantState,
                         task: PointTask) -> None:
        try:
            self._record_queue_wait(tenant, task)
            payload, source, wall, error = await self._resolve(tenant, task)
            await self._finish_point(tenant, task, payload, source, wall,
                                     error)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — never kill the loop
            await self._finish_point(tenant, task, None, "fail", 0.0,
                                     f"internal: {exc!r}")
        finally:
            tenant.inflight -= 1
            self._wakeup.set()

    async def _run_cohort(self, tenant: TenantState,
                          task: CohortTask) -> None:
        """Run one lockstep cohort: cache-probe every lane, batch the
        misses through one worker, and on any failure split the cohort
        back into scalar singletons at the front of the tenant's queue."""
        loop = asyncio.get_running_loop()
        lanes: list[PointTask] = []           # cache misses, in lane order
        try:
            self._record_queue_wait(tenant, task)
            for index, point, digest in zip(task.indices, task.points,
                                            task.digests):
                lane = PointTask(job=task.job, index=index, point=point,
                                 digest=digest)
                payload = None
                if self.cache is not None:
                    payload = await loop.run_in_executor(
                        None, self.cache.get, digest)
                if payload is not None:
                    self._counter(tenant.name, "cache_hits").inc()
                    await self._finish_point(tenant, lane, payload, "hit",
                                             0.0, None)
                else:
                    lanes.append(lane)
            if not lanes:
                return
            await self._simulate_cohort(tenant, task, lanes)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — never kill the loop
            self._split_cohort(tenant, lanes, f"internal: {exc!r}")
        finally:
            tenant.inflight -= task.width
            self._wakeup.set()

    async def _simulate_cohort(self, tenant: TenantState, task: CohortTask,
                               lanes: list[PointTask]) -> None:
        loop = asyncio.get_running_loop()
        # Lead the single-flight for every lane not already claimed —
        # followers of another leader are simply simulated again here
        # (bit-exact, so the duplicate is harmless).
        flights: dict[str, asyncio.Future] = {}
        for lane in lanes:
            if lane.digest not in self._inflight_digests:
                flight = loop.create_future()
                flights[lane.digest] = flight
                self._inflight_digests[lane.digest] = flight
        generation = self._pool_generation
        timeout = (self.timeout * len(lanes)
                   if self.timeout is not None else None)
        for lane in lanes:
            lane.attempts = 1
        try:
            try:
                payloads = await asyncio.wait_for(
                    loop.run_in_executor(
                        self._pool, run_cohort_payloads,
                        [lane.point for lane in lanes], self.sanitize,
                        None),
                    timeout=timeout)
            except asyncio.TimeoutError:
                self.metrics.counter("service.timeouts").inc()
                self._counter(tenant.name, "timeouts").inc()
                await self._reset_pool(generation)
                self._split_cohort(
                    tenant, lanes,
                    f"cohort deadline exceeded ({timeout}s)")
                return
            except asyncio.CancelledError:
                if self._closed or generation == self._pool_generation:
                    raise
                self._split_cohort(tenant, lanes, "pool reset")
                return
            except BrokenExecutor as exc:
                await self._reset_pool(generation)
                self._split_cohort(tenant, lanes, repr(exc))
                return
            except Exception as exc:  # noqa: BLE001 — worker raised
                self._split_cohort(tenant, lanes, repr(exc))
                return
            for lane, payload in zip(lanes, payloads):
                payload.pop("worker", None)   # pids are not deterministic
                self._counter(tenant.name, "simulated").inc()
                self.metrics.counter("service.simulated").inc()
                wall = payload.get("wall_clock", 0.0)
                self.metrics.histogram("service.sim_seconds").add(wall)
                self._lane_metrics(payload, wall)
                if self.cache is not None:
                    await loop.run_in_executor(
                        None, self.cache.put, lane.digest, payload,
                        {"point": lane.point.name})
                flight = flights.get(lane.digest)
                if flight is not None and not flight.done():
                    flight.set_result(payload)
                await self._finish_point(tenant, lane, payload, "sim",
                                         wall, None)
        finally:
            for digest, flight in flights.items():
                if self._inflight_digests.get(digest) is flight:
                    self._inflight_digests.pop(digest, None)
                if not flight.done():
                    # The cohort never produced this lane's payload (it
                    # split); followers fail with the leader, exactly as
                    # a failed scalar leader behaves.
                    flight.cancel()

    def _split_cohort(self, tenant: TenantState, lanes: list[PointTask],
                      error: str) -> None:
        """Requeue failed cohort lanes as scalar singletons (front of the
        tenant's queue, fresh attempt budgets — the cohort's failure is
        not any one lane's failure)."""
        self.metrics.counter("service.cohort_splits").inc()
        for lane in reversed(lanes):
            lane.attempts = 0
            tenant.queue.appendleft(lane)

    async def _resolve(self, tenant: TenantState, task: PointTask):
        """(payload, source, wall_clock, error) for one point, through
        cache probe -> single-flight join -> pool simulation."""
        loop = asyncio.get_running_loop()
        if self.cache is not None:
            probe_start = time.time()
            payload = await loop.run_in_executor(None, self.cache.get,
                                                 task.digest)
            self._span(task, "cache-probe", probe_start)
            if payload is not None:
                self._counter(tenant.name, "cache_hits").inc()
                return payload, "hit", 0.0, None

        leader = self._inflight_digests.get(task.digest)
        if leader is not None:
            # Another tenant (or campaign) is already simulating this
            # exact point: join it instead of burning a second slot.
            self._counter(tenant.name, "deduped").inc()
            self.metrics.counter("service.single_flight_dedup").inc()
            join_start = time.time()
            try:
                payload = await asyncio.shield(leader)
            except Exception as exc:  # noqa: BLE001 — leader failed
                return None, "fail", 0.0, f"single-flight leader: {exc!r}"
            self._span(task, "dedup-join", join_start)
            return payload, "dedup", 0.0, None

        flight: asyncio.Future = loop.create_future()
        self._inflight_digests[task.digest] = flight
        try:
            sim_start = time.time()
            payload, wall, error = await self._simulate(tenant, task)
            if payload is not None:
                self._span(task, "simulate", sim_start)
                if self.cache is not None:
                    put_start = time.time()
                    await loop.run_in_executor(
                        None, self.cache.put, task.digest, payload,
                        {"point": task.point.name})
                    self._span(task, "cache-put", put_start)
                flight.set_result(payload)
                return payload, "sim", wall, None
            flight.set_exception(RuntimeError(error or "failed"))
            return None, "fail", wall, error
        finally:
            self._inflight_digests.pop(task.digest, None)
            if not flight.done():
                flight.cancel()               # cancelled mid-simulation
            elif not flight.cancelled():
                flight.exception()            # mark retrieved; no GC warning

    async def _simulate(self, tenant: TenantState, task: PointTask):
        """Run the point on the pool with deadline + bounded retries."""
        loop = asyncio.get_running_loop()
        trace_ctx = None
        if self.trace_dir is not None:
            # The worker stamps this context into its kernel trace as a
            # `trace-context` instant; `repro.observe stitch` matches it
            # against the scheduler manifest to merge both processes
            # into one per-campaign Perfetto trace.
            trace_ctx = {"trace_id": task.job.id,
                         "span_id": f"{task.job.id}/{task.index}"}
        while True:
            task.attempts += 1
            generation = self._pool_generation
            start = time.perf_counter()
            try:
                payload = await asyncio.wait_for(
                    loop.run_in_executor(self._pool, run_point_payload,
                                         task.point, self.sanitize,
                                         self.trace_dir, trace_ctx,
                                         self.engine),
                    timeout=self.timeout)
            except asyncio.TimeoutError:
                self.metrics.counter("service.timeouts").inc()
                self._counter(tenant.name, "timeouts").inc()
                if self._slog is not None:
                    self._slog.emit("point.timeout", campaign=task.job.id,
                                    tenant=tenant.name,
                                    point=task.point.name,
                                    timeout=self.timeout)
                # The worker is wedged past its deadline: kill the fleet
                # generation it runs in so the slot comes back.
                await self._reset_pool(generation)
                error = f"deadline exceeded ({self.timeout}s)"
            except BrokenExecutor:
                # Pool died underneath us (another point's kill, worker
                # OOM). Not this point's fault: bounce, don't charge.
                await self._reset_pool(generation)
                task.attempts -= 1
                task.bounces += 1
                if task.bounces <= POOL_BOUNCE_BUDGET:
                    continue
                error = "worker fleet kept dying (pool bounce budget)"
                task.attempts += 1
            except asyncio.CancelledError:
                # A pool reset cancels submissions still queued on the
                # old executor; that surfaces here as CancelledError.
                # Distinguish it from real task cancellation by the
                # generation bump and bounce like a BrokenExecutor.
                if self._closed or generation == self._pool_generation:
                    raise
                task.attempts -= 1
                task.bounces += 1
                if task.bounces <= POOL_BOUNCE_BUDGET:
                    continue
                error = "worker fleet kept dying (pool bounce budget)"
                task.attempts += 1
            except Exception as exc:  # noqa: BLE001 — worker raised
                error = repr(exc)
            else:
                payload.pop("worker", None)   # pids are not deterministic
                self._counter(tenant.name, "simulated").inc()
                self.metrics.counter("service.simulated").inc()
                wall = payload.get("wall_clock",
                                   time.perf_counter() - start)
                self.metrics.histogram("service.sim_seconds").add(wall)
                self._lane_metrics(payload, wall)
                return payload, wall, None
            if task.attempts <= self.retries:
                self._counter(tenant.name, "retries").inc()
                continue
            self._counter(tenant.name, "failures").inc()
            return None, time.perf_counter() - start, error

    async def _reset_pool(self, generation: int) -> None:
        """Kill and replace the worker fleet (once per generation — many
        tasks observing the same death reset it only once)."""
        async with self._pool_lock:
            if generation != self._pool_generation:
                return                        # a sibling already reset it
            pool = self._pool
            for process in getattr(pool, "_processes", {}).values():
                try:
                    process.terminate()
                except OSError:  # pragma: no cover — already reaped
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self._make_pool()
            self._pool_generation += 1
            self.metrics.counter("service.pool_resets").inc()
            if self._slog is not None:
                self._slog.emit("pool.reset",
                                generation=self._pool_generation,
                                workers=self.workers)

    async def _finish_point(self, tenant: TenantState, task: PointTask,
                            payload: dict[str, Any] | None, source: str,
                            wall: float, error: str | None) -> None:
        job = task.job
        outcome = {
            "index": task.index,
            "point": task.point.name,
            "ok": payload is not None,
            "source": source,                 # hit | sim | dedup | fail
            "wall_clock": wall,
            "attempts": task.attempts,
            "error": error,
        }
        if payload is not None:
            job.payloads[task.index] = payload
            outcome["cycles"] = payload.get("cycles", 0.0)
            outcome["instructions"] = payload.get("instructions", 0)
        job.outcomes[task.index] = outcome
        self.metrics.histogram(
            f"tenant.{tenant.name}.point_seconds").add(wall)
        if task.spans is not None:
            job.sched_spans[task.index] = task.spans
        if self._slog is not None:
            self._slog.emit("point.done", campaign=job.id,
                            tenant=job.tenant, point=task.point.name,
                            index=task.index, source=source, wall=wall,
                            attempts=task.attempts, error=error)
        job.done += 1
        if source == "hit":
            job.hits += 1
        elif source == "sim":
            job.simulated += 1
        elif source == "dedup":
            job.deduped += 1
        if payload is None:
            job.failures += 1
        self._counter(tenant.name, "done_points").inc()
        if job.done == job.total:
            job.state = "failed" if job.failures else "done"
            job.finished_at = time.time()
        await job.record({"type": "point", "campaign": job.id,
                          "tenant": job.tenant, "done": job.done,
                          "total": job.total, **outcome})
        if job.done == job.total:
            if self._slog is not None:
                self._slog.emit("campaign.done", campaign=job.id,
                                tenant=job.tenant, state=job.state,
                                cache_hits=job.hits,
                                simulated=job.simulated,
                                deduped=job.deduped,
                                failures=job.failures)
            if self.trace_dir is not None:
                self._write_stitch_manifest(job)
            await job.record({"type": "campaign", "campaign": job.id,
                              "tenant": job.tenant, "state": job.state,
                              **{k: job.to_dict()[k] for k in
                                 ("cache_hits", "simulated", "deduped",
                                  "failures")}})
            job.finished.set()

    def _write_stitch_manifest(self, job: CampaignJob) -> None:
        """Scheduler-side half of the stitched campaign trace: which
        points ran, their span IDs, their scheduler spans, and (for
        simulated points) which worker trace file carries the kernel
        side. ``repro.observe stitch`` joins the two on span_id."""
        import json
        import pathlib

        from repro.observe.stitch import MANIFEST_SCHEMA, manifest_path

        points = []
        for index, point in enumerate(job.points):
            outcome = job.outcomes[index] or {}
            source = outcome.get("source", "fail")
            points.append({
                "index": index,
                "point": point.name,
                "span_id": f"{job.id}/{index}",
                "source": source,
                "trace_file": (point_trace_filename(point)
                               if source == "sim" else None),
                "spans": job.sched_spans.get(index, []),
            })
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "campaign": job.id,
            "tenant": job.tenant,
            "created_at": job.created_at,
            "trace_id": job.id,
            "points": points,
        }
        try:
            root = pathlib.Path(self.trace_dir)
            root.mkdir(parents=True, exist_ok=True)
            manifest_path(root, job.id).write_text(
                json.dumps(manifest, indent=2) + "\n")
        except OSError:
            # Losing a manifest must never fail the campaign itself.
            if self._slog is not None:
                self._slog.emit("stitch.manifest_error", campaign=job.id,
                                trace_dir=self.trace_dir)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def drop(self, job_id: str) -> bool:
        """Forget a *finished* campaign (frees its retained payloads)."""
        job = self.jobs.get(job_id)
        if job is None or not job.finished.is_set():
            return False
        del self.jobs[job_id]
        return True

    def job_results(self, job: CampaignJob,
                    include_stats: bool = False) -> dict[str, Any]:
        """Full results document for one campaign: per-point outcomes,
        the sweep summary when the submission named one, and (on request)
        the raw worker payloads so a client can rebuild bit-exact stats."""
        out: dict[str, Any] = {"campaign": job.to_dict(),
                               "points": job.outcomes}
        sweep = job.meta.get("sweep")
        if sweep is not None and job.finished.is_set() \
                and not job.failures:
            out["summary"] = self._summarize(job, sweep)
        if include_stats:
            out["payloads"] = {str(index): payload for index, payload
                               in sorted(job.payloads.items())}
        return out

    def _summarize(self, job: CampaignJob, sweep: str) \
            -> list[dict[str, Any]] | None:
        from repro.orchestrator.campaigns import (
            summarize_sweep,
            sweep_spec,
        )
        from repro.orchestrator.serialize import stats_from_payload

        class _Row:
            def __init__(self, point, payload):
                self.point = point
                self.stats = stats_from_payload(payload)
                self.error = None

        try:
            spec = sweep_spec(sweep,
                              apps=job.meta.get("apps") or None,
                              length=job.meta.get("length") or None)
            rows = [_Row(point, job.payloads[index])
                    for index, point in enumerate(job.points)]
            return [{"label": label, "gmean_slowdown": mean}
                    for label, mean in summarize_sweep(spec, rows)]
        except (ValueError, KeyError, RuntimeError):
            return None               # not a stock sweep shape; no summary

    def cache_inventory(self) -> dict[str, Any] | None:
        """Disk-cache breakdown (entry/byte totals, per-engine entry
        counts, stale-schema orphans) for status and /metrics, cached
        for :data:`CACHE_INVENTORY_TTL` so scrapes don't rescan disk."""
        if self.cache is None:
            return None
        now = time.monotonic()
        if self._inventory is not None and now < self._inventory[0]:
            return self._inventory[1]
        info = self.cache.inventory()
        snapshot = {
            "entries": info["entries"],
            "bytes": info["bytes"],
            "engines": info["engines"],
            "stale_schema": info["stale_schema"],
            "tmp_orphans": info["tmp_orphans"],
            "sim_seconds": info["sim_seconds"],
        }
        self._inventory = (now + self.CACHE_INVENTORY_TTL, snapshot)
        return snapshot

    def status(self) -> dict[str, Any]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.id)
        return {
            "uptime": time.time() - self.started_at,
            "workers": self.workers,
            "pool_generation": self._pool_generation,
            "timeout": self.timeout,
            "retries": self.retries,
            "sanitize": self.sanitize,
            "engine": self.engine,
            "heartbeat": self.heartbeat,
            "trace_dir": self.trace_dir,
            "cache_root": (str(self.cache.root)
                           if self.cache is not None else None),
            "cache_counters": ({"hits": self.cache.counters.hits,
                                "misses": self.cache.counters.misses}
                               if self.cache is not None else None),
            "cache_inventory": self.cache_inventory(),
            "tenants": [t.to_dict() for t in self.tenants.values()],
            "campaigns": [j.to_dict() for j in jobs],
            "metrics": self.metrics.to_dict(),
        }
