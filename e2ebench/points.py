"""Seeded inputs: the simulation points the sweep and fleet workloads run.

The benchmark seed picks only the trace seed of every generated point
(``trace_seed``). The amount of work, the point order and the schedule
are the same for every seed, because on a 2-vCPU host a different order
moves latencies more than run-to-run noise does. The trace seed takes a
few values only, so the pin file can hold a scalar-engine digest for
every point any seed can generate.
"""

from __future__ import annotations

from dataclasses import dataclass

TRACE_SEEDS = 3

SWEEP_LENGTH = 1_500
FLEET_LENGTH = 3_000
# Shorter than the fresh points, so a matrix slice (and its dup) ends
# before a fresh part would even when its two points share one worker,
# and the latency percentiles fall among the fresh parts.
FLEET_MATRIX_LENGTH = 1_000

# Paper workload: the reduced reproduction pass.
PAPER_LENGTH = 1_000
PAPER_APPS = ("rb",)
PAPER_THREADS = (4,)

PRF_SIZES = ((80, 80), (100, 100), (120, 120), (140, 140), (180, 168),
             (280, 224))


def trace_seed(seed: int) -> int:
    """The trace seed every generated point of a run uses."""
    return seed % TRACE_SEEDS


def _configs(prf=(), csq=(), wpq=()):
    from repro.config import skylake_default

    base = skylake_default()
    out = []
    for int_size, fp_size in prf or ((None, None),):
        for csq_entries in csq or (None,):
            for wpq_entries in wpq or (None,):
                config = base
                if int_size is not None:
                    config = config.with_prf(int_size, fp_size)
                if csq_entries is not None:
                    config = config.with_csq(csq_entries)
                if wpq_entries is not None:
                    config = config.with_wpq(wpq_entries)
                out.append(config)
    return out


@dataclass(frozen=True)
class Group:
    """Sweep points meant to take one path (a cohort family, or one point
    per unbatchable-reason family); ``sweep.check_plan`` verifies it."""

    name: str
    points: tuple


def sweep_groups(seed: int) -> list[Group]:
    """The sweep workload's point set, grouped by the path each group is
    meant to exercise (checked against the plan at run time)."""
    from repro.orchestrator.points import make_point

    ts = trace_seed(seed)

    def pts(app, scheme, configs, tag, core="ooo", **extra):
        warmup = {"warmup": 0} if core == "inorder" else {}
        return tuple(
            make_point(app, scheme, config=config, length=SWEEP_LENGTH,
                       seed=ts, core=core,
                       label=f"sweep:{tag}:{index}", **warmup, **extra)
            for index, config in enumerate(configs))

    return [
        # >= 48 ppa lanes: the columnar kernel.
        Group("vector-w48",
              pts("mcf", "ppa", _configs(PRF_SIZES, (10, 20, 30, 40),
                                         (8, 16)), "w48")),
        # 12-47 baseline lanes: the columnar kernel.
        Group("vector-w16",
              pts("lbm", "baseline", _configs(PRF_SIZES[:4], (),
                                              (8, 16, 24, 32)), "w16")),
        # 2-11 ppa lanes: the list kernel.
        Group("list-w6",
              pts("rb", "ppa", _configs(PRF_SIZES), "w6")),
        Group("capri-w6",
              pts("rb", "capri", _configs(PRF_SIZES), "capri")),
        Group("inorder-ppa-w4",
              pts("gcc", "ppa", _configs(PRF_SIZES[::2] + PRF_SIZES[-1:]),
                  "io-ppa", core="inorder")),
        Group("inorder-base-w4",
              pts("gcc", "baseline",
                  _configs(PRF_SIZES[::2] + PRF_SIZES[-1:]),
                  "io-base", core="inorder")),
        # One point per unbatchable-reason family.
        Group("no-kernel",
              pts("rb", "replaycache", _configs(), "replaycache")),
        Group("no-inorder-kernel",
              pts("gcc", "eadr", _configs(), "io-eadr", core="inorder")),
        Group("persist-log",
              pts("rb", "ppa", _configs(), "log",
                  capture_persist_log=True)),
        Group("cohort-of-1",
              pts("xsbench", "ppa", _configs(), "single")),
    ]


def sweep_points(seed: int) -> list:
    return [p for group in sweep_groups(seed) for p in group.points]


# ---------------------------------------------------------------------------
# Fleet: an open-loop schedule of campaigns from three tenants
# ---------------------------------------------------------------------------

# Seconds between due times. The 2-worker pool is about a fifth busy
# (``service.scheduler.pool_busy_ratio``). On a 2-vCPU host the daemon
# and the generator share the CPUs with the workers, and from about half
# busy upwards queueing amplified host-speed drift into run-to-run
# latency spreads beyond the bounds. At a fifth, latency reflects
# service time rather than a saturated queue.
FLEET_PERIOD_S = 0.093
# One cycle of slots. Each "fresh" slot submits one part of a fresh
# slice (FRESH_PARTS slots per slice, one lane cohort each), which keeps
# the simulated work per slice while giving the latency percentiles
# enough samples to be taken per window of the run
# (``fleet.LATENCY_WINDOWS``).
# "dup" re-sends the matrix slice just submitted (still in flight:
# single-flight dedup); "replay" re-sends, as one campaign, every fresh
# slice of the cycle REPLAY_LAG cycles earlier (long finished: cache
# hits). Thirty cache gets per replay keep its latency well above the
# daemon's scheduling jitter.
# Fresh parts, whose latency is mostly simulation, are ten thirteenths
# of the mix, so both the median and p90 fall inside that one group
# rather than on a boundary between groups or among the short,
# queue-dominated matrix, dup and replay campaigns.
FLEET_CYCLE = ("fresh",) * 4 + ("matrix", "dup") + ("fresh",) * 6 + \
    ("replay",)
FRESH_PARTS = 2
FLEET_TENANTS = {"fresh": "alice", "matrix": "bob", "dup": "carol",
                 "replay": "carol"}
REPLAY_LAG = 6
# A dup is due this long after its twin, which is then still in flight.
DUP_DELAY_S = 0.01
# Longest schedule the pins cover.
MAX_FLEET_SECONDS = 40

# One app per campaign kind keeps each kind's latencies in one narrow
# group, so a percentile never straddles two apps' costs.
FRESH_APP = "mcf"
MATRIX_APP = "gcc"
MATRIX_SCHEMES = ("replaycache", "sb-gate")


def _timed_slots() -> int:
    """Slots per cycle that take a period of their own (a dup rides
    right behind its twin)."""
    return sum(1 for kind in FLEET_CYCLE if kind != "dup")


def fleet_cycles(seconds: float) -> int:
    return int(seconds / (FLEET_PERIOD_S * _timed_slots()))


def fleet_fresh(seed: int, k: int) -> list:
    """Fresh design-space slice ``k``: six ppa points over the PRF grid at
    a CSQ size no other slice uses, submitted in FRESH_PARTS parts (one
    lane cohort each)."""
    from repro.orchestrator.points import make_point

    return [make_point(FRESH_APP, "ppa", config=config,
                       length=FLEET_LENGTH, seed=trace_seed(seed),
                       label=f"fresh{k}:{index}")
            for index, config in enumerate(_configs(PRF_SIZES, (12 + k,)))]


def fleet_matrix(seed: int, k: int) -> list:
    """Scalar-only matrix slice ``k``: schemes with no batched kernel."""
    from repro.orchestrator.points import make_point

    config = _configs((), (12 + k,))[0]
    return [make_point(MATRIX_APP, scheme, config=config,
                       length=FLEET_MATRIX_LENGTH, seed=trace_seed(seed),
                       label=f"matrix{k}:{scheme}")
            for scheme in MATRIX_SCHEMES]


def fleet_warmup_points(seed: int) -> list:
    """Untimed first campaign (slice -1, never scheduled): starts the
    forkserver and both workers, loads the scalar and lane kernels and
    interns the run's traces, as a long-lived daemon would have."""
    return fleet_fresh(seed, -1) + fleet_matrix(seed, -1)


def fleet_probe_points() -> list:
    """The set-up probe's first campaign: short scalar points that make
    the pool start both workers."""
    from repro.orchestrator.points import make_point

    return [make_point(MATRIX_APP, scheme, length=300)
            for scheme in MATRIX_SCHEMES]


@dataclass(frozen=True)
class Slot:
    due: float        # seconds after the schedule starts
    kind: str         # fresh | matrix | dup | replay
    tenant: str
    k: int            # slice index the points come from
    part: int | None = None  # which part of a fresh slice; None = all


def _slices_per_cycle() -> int:
    return FLEET_CYCLE.count("fresh") // FRESH_PARTS


def fleet_schedule(seconds: float) -> list[Slot]:
    """Every submission of one run, in due order. Fresh slots take the
    next unused part of a fresh slice and matrix slots the next unused
    slice; a dup re-sends the latest matrix slice; a replay (``k`` = its
    first slice) re-sends the fresh slices of the cycle REPLAY_LAG cycles
    earlier and is skipped while there is none."""
    slots: list[Slot] = []
    fresh = matrix = timed = 0
    for cycle in range(fleet_cycles(seconds)):
        for kind in FLEET_CYCLE:
            tenant = FLEET_TENANTS[kind]
            if kind == "dup":
                # FLEET_CYCLE puts each dup right after its matrix slot.
                slots.append(Slot(slots[-1].due + DUP_DELAY_S, kind,
                                  tenant, matrix - 1))
                continue
            due = timed * FLEET_PERIOD_S
            timed += 1
            if kind == "fresh":
                k, part = divmod(fresh, FRESH_PARTS)
                fresh += 1
                slots.append(Slot(due, kind, tenant, k, part))
                continue
            if kind == "matrix":
                k, matrix = matrix, matrix + 1
            else:
                k = (cycle - REPLAY_LAG) * _slices_per_cycle()
            if k >= 0:
                slots.append(Slot(due, kind, tenant, k))
    return slots


def fleet_slices(seconds: float) -> tuple[int, int]:
    """(fresh, matrix) slice counts a schedule of ``seconds`` uses."""
    cycles = fleet_cycles(seconds)
    return (cycles * _slices_per_cycle(),
            cycles * FLEET_CYCLE.count("matrix"))


def fleet_slot_slices(slot: Slot) -> list[tuple[str, int, int | None]]:
    """The (kind, index, part) slices whose points a slot submits, in
    order; part None means the whole slice."""
    if slot.kind == "replay":
        return [("fresh", slot.k + j, None)
                for j in range(_slices_per_cycle())]
    if slot.kind == "fresh":
        return [("fresh", slot.k, slot.part)]
    return [("matrix", slot.k, None)]


def take_part(items: list, part: int | None) -> list:
    """Part ``part`` of FRESH_PARTS equal parts of a slice's ``items``
    (points or their pins); all of them for None."""
    if part is None:
        return list(items)
    size = len(items) // FRESH_PARTS
    return list(items[part * size:(part + 1) * size])


def fleet_slot_points(seed: int, slot: Slot) -> list:
    build = {"fresh": fleet_fresh, "matrix": fleet_matrix}
    return [point for kind, k, part in fleet_slot_slices(slot)
            for point in take_part(build[kind](seed, k), part)]
