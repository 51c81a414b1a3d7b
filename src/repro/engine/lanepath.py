"""The per-lane persist path shared by the list and in-order lane kernels.

The paper's persist path is one mechanism: a committed store merges in
L1D and enters a coalescing write buffer, which drains to the NVM WPQ;
a region boundary waits for that drain. The scalar reference is
:class:`~repro.memory.writebuffer.WriteBuffer` over
:class:`~repro.memory.nvm.NvmModel` (or ``MultiControllerNvm``). This
module is its lane form, used by :mod:`repro.engine.batched` (list
kernel, including Capri's redo buffer) and
:mod:`repro.engine.inorder_lanes`:

* :func:`device` — the NVM controllers of every lane: WPQ rings, write
  and read ports, ``writes``/``reads`` counters;
* :func:`write_buffer` — a write buffer over a device: slot
  backpressure, WPQ-lifetime coalescing, the eviction floor and the
  region persist counter;
* :func:`replayer` — one memory-script entry's NVM terms at lane time.

Each factory returns closures over parallel per-lane lists (lane index
``l`` is every closure's first argument), so kernels bind them to locals
and pay one call per event, no attribute lookups. The float operations
run in the scalar models' order, so results stay bit-exact. The columnar
kernel (:mod:`repro.engine.columns`) keeps its own vectorized twin.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from repro.engine.memscript import MODE_APP_DIRECT, MODE_CONST

_INF = float("inf")


class Device(NamedTuple):
    """Per-lane NVM device closures and their traffic counters."""

    # write(l, line, submit) -> (accepted, done, backpressure)
    write: Callable[[int, int, float], tuple[float, float, float]]
    # read(l, line, submit) -> latency
    read: Callable[[int, int, float], float]
    writes: list[int]
    reads: list[int]


class LaneWriteBuffer(NamedTuple):
    """Per-lane write-buffer closures and the counters finalizers read."""

    # persist_store(l, line, time) -> the store's durable time
    persist_store: Callable[[int, int, float], float]
    advance_floor: Callable[[int, float], None]
    # region_drain_time(l, boundary) -> the region's drain cycle
    region_drain_time: Callable[[int, float], float]
    # reset_region(l, now): clear the counter, advance the floor to now
    reset_region: Callable[[int, float], None]
    issued: list[int]
    coalesced: list[int]
    stall: list[float]


def device(cfgs, controllers: list[int] | None = None) -> Device:
    """``NvmModel``/``MultiControllerNvm`` per lane, from one
    :class:`~repro.config.NvmConfig` per lane.

    ``controllers`` overrides each lane's ``num_controllers`` (Capri's
    dedicated persist path is one device whatever the main memory has).

    The scalar WPQ deque (drain completions <= submit, oldest outstanding
    gates admission) reduces to a ring of the last ``wpq_entries``
    completion times: completions are appended in nondecreasing order, so
    write ``k`` is gated by ``done[k - wpq_entries]`` — but only while
    that entry is still queued. Deque drains are cumulative and submits
    are not monotone (write-buffer persists land late, eviction writes
    early), so an entry popped by an earlier, *later-submitted* write
    never gates again: the drain threshold is the running max of submit
    times.
    """
    n = len(cfgs)
    nctl = controllers or [max(1, c.num_controllers) for c in cfgs]
    cpl = [c.cycles_per_line / 1.0 for c in cfgs]
    cpl_q = [c * 0.25 for c in cpl]
    rcpl = [c.read_cycles_per_line / 1.0 for c in cfgs]
    wlat = [c.write_latency for c in cfgs]
    rlat = [c.read_latency for c in cfgs]
    wpq_n = [c.wpq_entries for c in cfgs]
    port_free = [[0.0] * k for k in nctl]
    rport_free = [[0.0] * k for k in nctl]
    wpq_ring = [[[0.0] * wpq_n[l] for __ in range(nctl[l])]
                for l in range(n)]
    wpq_cnt = [[0] * k for k in nctl]
    # Running max of submit times per controller (see above).
    wpq_smax = [[0.0] * k for k in nctl]
    writes = [0] * n
    reads = [0] * n

    def write(l, line, submit):
        """NvmModel.write_line, per lane."""
        k_ctl = (line >> 6) % nctl[l] if nctl[l] > 1 else 0
        cnt = wpq_cnt[l][k_ctl]
        entries_ = wpq_n[l]
        ring = wpq_ring[l][k_ctl]
        smax = wpq_smax[l][k_ctl]
        if submit > smax:
            smax = submit
            wpq_smax[l][k_ctl] = smax
        accepted = submit
        if cnt >= entries_:
            gate = ring[cnt % entries_]
            if gate > smax:
                accepted = gate
        pf = port_free[l][k_ctl]
        start = accepted if accepted >= pf else pf
        port_free[l][k_ctl] = start + cpl[l]
        done = start + wlat[l]
        ring[cnt % entries_] = done
        wpq_cnt[l][k_ctl] = cnt + 1
        writes[l] += 1
        return accepted, done, accepted - submit

    def read(l, line, submit):
        """NvmModel.read, per lane."""
        k_ctl = (line >> 6) % nctl[l] if nctl[l] > 1 else 0
        rp = rport_free[l][k_ctl]
        start = submit if submit >= rp else rp
        rport_free[l][k_ctl] = start + rcpl[l]
        queue = start - submit
        contention = port_free[l][k_ctl] - submit
        if contention < 0.0:
            contention = 0.0
        q_cap = cpl_q[l]
        if contention > q_cap:
            contention = q_cap
        reads[l] += 1
        return rlat[l] + queue + contention

    return Device(write, read, writes, reads)


def write_buffer(dev: Device, entries: list[int], coalescing: list[bool],
                 path_latency: list[int]) -> LaneWriteBuffer:
    """``WriteBuffer`` per lane over ``dev`` (functional payload writes
    are not tracked: cohorts never capture the persist log). Persist ops
    are ``[durable_at, done_at, region_tag]`` lists."""
    n = len(entries)
    nvm_write = dev.write
    live = [dict() for __ in range(n)]
    done_heap = [[] for __ in range(n)]
    next_done = [_INF] * n
    slots = [[] for __ in range(n)]
    floor = [0.0] * n
    region_ops = [[] for __ in range(n)]
    region_seq = [0] * n
    region_sd = [0.0] * n
    issued = [0] * n
    coalesced = [0] * n
    stall = [0.0] * n

    def advance_floor(l, time):
        """WriteBuffer.advance_floor, per lane."""
        if time <= floor[l]:
            return
        floor[l] = time
        if time < next_done[l]:
            return
        heap = done_heap[l]
        live_map = live[l]
        while heap and heap[0][0] <= time:
            __, line_a = heappop(heap)
            op = live_map.get(line_a)
            if op is not None and op[1] <= time:
                del live_map[line_a]
        next_done[l] = heap[0][0] if heap else _INF

    def persist_store(l, line, time):
        """WriteBuffer.persist_store, per lane; returns the store's
        durability (``store_durable_at`` of its covering op)."""
        op = live[l].get(line) if coalescing[l] else None
        if op is not None and op[1] > time:
            coalesced[l] += 1
        else:
            free = slots[l]
            drained = bisect_right(free, floor[l])
            if drained:
                del free[:drained]
            if len(free) - bisect_right(free, time) >= entries[l]:
                admit = free[len(free) - entries[l]]
            else:
                admit = time
            stall[l] += admit - time
            accepted, done, __ = nvm_write(l, line, admit + path_latency[l])
            op = [accepted, done, region_seq[l]]
            insort(free, accepted)
            if coalescing[l]:
                live[l][line] = op
                heappush(done_heap[l], (done, line))
                if done < next_done[l]:
                    next_done[l] = done
            region_ops[l].append(op)
            issued[l] += 1
        mp = time + path_latency[l]
        durable = op[0] if op[0] >= mp else mp
        if durable > region_sd[l]:
            region_sd[l] = durable
        if op[2] != region_seq[l]:
            op[2] = region_seq[l]
            region_ops[l].append(op)
        return durable

    def region_drain_time(l, boundary):
        """WriteBuffer.region_drain_time, per lane."""
        drained = boundary if boundary >= region_sd[l] else region_sd[l]
        for op in region_ops[l]:
            if op[0] > drained:
                drained = op[0]
        return drained

    def reset_region(l, now):
        """WriteBuffer.reset_region(now), per lane."""
        region_ops[l] = []
        region_seq[l] += 1
        region_sd[l] = 0.0
        advance_floor(l, now)

    return LaneWriteBuffer(persist_store, advance_floor, region_drain_time,
                           reset_region, issued, coalesced, stall)


def replayer(dev: Device) -> Callable[[int, tuple, float, int], float]:
    """``replay(l, entry, base, line)``: the latency of one memory-script
    entry (:mod:`repro.engine.memscript`) at lane time ``base``, with
    its NVM reads and writes applied to ``dev``."""
    nvm_read = dev.read
    nvm_write = dev.write

    def replay(l, entry, base, line):
        mode = entry[0]
        lat = entry[1]
        if mode != MODE_CONST:
            x = base + entry[1]
            if mode == MODE_APP_DIRECT:
                lat = entry[1] + nvm_read(l, line, x)
            else:
                probe = entry[2]
                pr = probe + nvm_read(l, line, x + probe)
                if entry[3] is not None:
                    nvm_write(l, entry[3], x + pr)
                lat = entry[1] + pr
        fills = entry[4]
        if fills:
            back = 0.0
            for fill_line in fills:
                back += nvm_write(l, fill_line, base)[2]
            lat += back
        return lat

    return replay
