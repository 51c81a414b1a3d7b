"""The in-order lockstep kernel: batched value-CSQ lanes.

Same contract as the out-of-order list kernel
(:mod:`repro.engine.batched`), applied to the in-order core model
(:mod:`repro.inorder.core`): a cohort of ``core="inorder"`` points
sharing one interned trace and cache geometry advances one instruction at
a time over per-lane parallel lists, bit-exact with
``InOrderCore._run``.

Two cohort-invariant computations are hoisted out of the lane loop:

* the memory script (:mod:`repro.engine.memscript`, compiled with
  ``core="inorder"`` — the in-order core never issues RFOs, so its
  stores evolve the caches differently from the out-of-order core's);
* the functional value stream: architectural values depend only on
  program order (PC hash chained through register values and functional
  memory), never on timing, so one pass computes every lane's store
  values and CSQ payloads.

The in-order facade always runs cold (no warmup), and both supported
schemes (:data:`repro.engine.batched.INORDER_KERNEL_SCHEMES`) share the
walk: ``"ppa"`` drives the value CSQ + write buffer, ``"baseline"``
replays only the cache/NVM side effects of store merges. The write
buffer, NVM device and memory-script replay are the shared per-lane
persist path (:mod:`repro.engine.lanepath`).
"""

from __future__ import annotations

from repro.engine.batched import (
    LaneResult,
    _latency_list,
    finish_diverged,
)
from repro.engine.lanepath import device, replayer, write_buffer
from repro.engine.memscript import MODE_CONST, memory_script
from repro.inorder.core import InOrderStats
from repro.inorder.value_csq import ValueCsqEntry
from repro.isa.decoded import OP_LOAD, OP_STORE, OP_SYNC
from repro.pipeline.core import _SYNC_LATENCY
from repro.pipeline.stats import RegionRecord
from repro.workloads.interning import interned_trace

_VALUE_MASK = (1 << 64) - 1


def _functional_values(dec) -> list[int]:
    """The lane-invariant value stream: ``value`` as computed by
    ``InOrderCore._run`` at each seq (zero for non-producing ops)."""
    length = dec.length
    opcode_ids = dec.opcode_ids
    dest_cls = dec.dest_cls
    dest_idx = dec.dest_idx
    all_srcs = dec.srcs
    addrs = dec.addrs
    pcs = dec.pcs

    max_regs = [0, 0]
    for seq in range(length):
        dcls = dest_cls[seq]
        if dcls >= 0 and dest_idx[seq] >= max_regs[dcls]:
            max_regs[dcls] = dest_idx[seq] + 1
        for cls, index in all_srcs[seq]:
            if index >= max_regs[cls]:
                max_regs[cls] = index + 1
    values = ([0] * max_regs[0], [0] * max_regs[1])
    fmem: dict[int, int] = {}
    out = [0] * length

    for seq in range(length):
        opcode = opcode_ids[seq]
        srcs = all_srcs[seq]
        dcls = dest_cls[seq]
        if opcode == OP_LOAD:
            value = fmem.get(addrs[seq], 0)
        elif opcode == OP_STORE:
            cls, index = srcs[0]
            value = values[cls][index]
            fmem[addrs[seq]] = value
        elif opcode == OP_SYNC:
            value = 0
        else:
            value = 0
            if dcls >= 0:
                acc = (pcs[seq] * 0x9E3779B97F4A7C15) & _VALUE_MASK
                for cls, index in srcs:
                    acc = (acc ^ values[cls][index]) \
                        * 0x100000001B3 & _VALUE_MASK
                value = acc
        if dcls >= 0:
            values[dcls][dest_idx[seq]] = value
        out[seq] = value
    return out


def run_inorder_cohort(points, *, diverge_at=None) -> list[LaneResult]:
    """Run a compatible ``core="inorder"`` cohort in lockstep."""
    n = len(points)
    p0 = points[0]
    persistent = p0.scheme == "ppa"
    trace = interned_trace(p0.profile, p0.length, seed=p0.seed)
    # The in-order facade ignores warmup: memory always starts cold.
    script = memory_script(trace, p0.config.memory, False, None,
                           core="inorder")

    dec = trace.decoded()
    length = dec.length
    opcode_ids = dec.opcode_ids
    dest_cls = dec.dest_cls
    dest_idx = dec.dest_idx
    all_srcs = dec.srcs
    addrs = dec.addrs
    line_addrs = dec.line_addrs
    mispredicted = dec.mispredicted
    entries = script.entries
    values = _functional_values(dec)
    l1_hit = p0.config.memory.l1d.hit_latency
    SYNC_LAT = _SYNC_LATENCY

    # ---------------- per-lane state (parallel lists) ----------------
    cores = [p.config.core for p in points]
    ppas = [p.config.ppa for p in points]
    nvms = [p.config.memory.nvm for p in points]

    width = [c.width for c in cores]
    penalty = [c.branch_mispredict_penalty for c in cores]
    lat_tab = [_latency_list(c, dec) for c in cores]

    time_ = [0.0] * n
    last_commit = [0.0] * n
    iss_cycle = [-1.0] * n
    iss_used = [0] * n
    ready_pair = (
        [[0.0] * c.int_arch_regs for c in cores],
        [[0.0] * c.fp_arch_regs for c in cores],
    )
    commit_times = [[] for __ in range(n)]
    csq_log = [[] for __ in range(n)]
    regions = [[] for __ in range(n)]

    csq_cnt = [0] * n
    csq_entries = [p.csq_entries for p in ppas]
    region_id = [0] * n
    region_start = [0] * n
    region_stores = [0] * n

    nvm = device(nvms)
    replay = replayer(nvm)
    wb = write_buffer(nvm, [p.writebuffer_entries for p in ppas],
                      [p.persist_coalescing for p in ppas],
                      [c.persist_path_latency for c in nvms])
    advance_floor = wb.advance_floor
    persist_store = wb.persist_store
    region_drain_time = wb.region_drain_time
    reset_region = wb.reset_region

    def close_region(l, end_seq, boundary, cause):
        """InOrderCore._close_region, per lane; returns the drain cycle."""
        drained = region_drain_time(l, boundary)
        reset_region(l, drained)
        csq_cnt[l] = 0
        regions[l].append(RegionRecord(
            region_id=region_id[l], start_seq=region_start[l],
            end_seq=end_seq, store_count=region_stores[l],
            boundary_time=boundary, drain_wait=drained - boundary,
            cause=cause))
        region_id[l] += 1
        region_start[l] = end_seq
        region_stores[l] = 0
        return drained

    # ---------------- lockstep walk ----------------
    live = list(range(n))
    dropped: list[int] = []
    diverged: dict[int, tuple[int, BaseException | None]] = {}
    forced = dict(diverge_at) if diverge_at else None

    for seq in range(length):
        opcode = opcode_ids[seq]
        dcls = dest_cls[seq]
        didx = dest_idx[seq]
        srcs_seq = all_srcs[seq]
        mem_entry = entries[seq]
        addr = addrs[seq]
        line = line_addrs[seq]
        mis = mispredicted[seq]
        val = values[seq]

        if forced:
            hit = [l for l in live if forced.get(l) == seq]
            if hit:
                for l in hit:
                    diverged[l] = (seq, None)
                    del forced[l]
                live = [l for l in live if l not in hit]
                if not live:
                    break

        for l in live:
            try:
                ready = time_[l]
                for cls, index in srcs_seq:
                    src_ready = ready_pair[cls][l][index]
                    if src_ready > ready:
                        ready = src_ready

                # issue_bw.take(ready)
                cyc = float(int(ready))
                if ready > cyc:
                    cyc += 1.0
                prev = iss_cycle[l]
                if cyc < prev:
                    cyc = prev
                if cyc == prev and iss_used[l] >= width[l]:
                    cyc += 1.0
                if cyc > prev:
                    iss_cycle[l] = cyc
                    iss_used[l] = 1
                else:
                    iss_used[l] += 1
                issue = cyc

                if opcode == OP_LOAD:
                    if mem_entry[0] == MODE_CONST and not mem_entry[4]:
                        complete = issue + 1.0 + mem_entry[1]
                    else:
                        complete = issue + 1.0 + replay(l, mem_entry,
                                                        issue, line)
                elif opcode == OP_STORE:
                    complete = issue + 1
                elif opcode == OP_SYNC:
                    complete = issue + SYNC_LAT
                else:
                    complete = issue + lat_tab[l][opcode]

                if dcls >= 0:
                    ready_pair[dcls][l][didx] = complete

                # In-order retirement: commits never reorder.
                commit = complete + 1.0
                lc = last_commit[l]
                if lc > commit:
                    commit = lc
                if opcode == OP_STORE:
                    merge_entry = mem_entry[1]
                    if persistent:
                        if csq_cnt[l] >= csq_entries[l]:
                            drain = close_region(l, seq, commit, "csq")
                            if drain > commit:
                                commit = drain
                        csq_log[l].append(ValueCsqEntry(
                            seq=seq, addr=addr, value=val,
                            commit_time=commit))
                        csq_cnt[l] += 1
                        region_stores[l] += 1
                        # store_merge(line, commit)
                        if merge_entry is None:
                            merge_time = commit + l1_hit
                        else:
                            merge_time = commit + replay(l, merge_entry,
                                                         commit, line)
                        advance_floor(l, commit)
                        persist_store(l, line, merge_time)
                    elif merge_entry is not None:
                        # Cache evolution only; latency is discarded but
                        # the NVM side effects are lane state.
                        replay(l, merge_entry, commit, line)
                elif opcode == OP_SYNC and persistent:
                    drain = close_region(l, seq + 1, commit, "sync")
                    if drain > commit:
                        commit = drain

                if mis:
                    resteer = complete + penalty[l]
                    if resteer > time_[l]:
                        time_[l] = resteer
                elif issue > time_[l]:
                    time_[l] = issue
                last_commit[l] = commit
                commit_times[l].append(commit)
            except Exception as exc:  # retire the lane to the scalar kernel
                diverged[l] = (seq, exc)
                dropped.append(l)

        if dropped:
            live = [l for l in live if l not in dropped]
            dropped.clear()
            if not live:
                break

    # ---------------- finalize ----------------
    results: list[LaneResult | None] = [None] * n

    for l in live:
        end_time = commit_times[l][-1] if commit_times[l] else 0.0
        if persistent:
            close_region(l, length, end_time, "end")
        stats = InOrderStats(name=trace.name)
        stats.instructions = length
        stats.cycles = end_time
        stats.regions = regions[l]
        stats.entries = csq_log[l]
        stats.commit_times = commit_times[l]
        stats.nvm_line_writes = nvm.writes[l]
        stats.wb_full_stall_cycles = wb.stall[l]
        results[l] = LaneResult(stats)

    return finish_diverged(points, results, diverged)
