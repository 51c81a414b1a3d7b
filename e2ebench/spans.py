"""Benchmark-side spans around calls into the program's layers.

Traced runs wrap public (and a few long-standing module-level) functions
of each layer with a recorder; the program itself is not edited. A span
is ``(name, start, end, parent, attrs)`` on the monotonic clock, which is
system-wide on Linux, so spans recorded inside forked pool workers can be
written to a file per worker and merged with the parent's afterwards.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None = None      # index into the owning span list
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: duration minus the union of its direct
    children's intervals inside it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return [span.duration - union_length(children.get(i, ()), span.start,
                                         span.end)
            for i, span in enumerate(spans)]


class Recorder:
    """In-memory span list with a per-thread stack for parent links."""

    def __init__(self, spool_dir: Path | None = None) -> None:
        self.spans: list[Span] = []
        self.owner_pid = os.getpid()
        self._pid = self.owner_pid
        self._local = threading.local()
        self._lock = threading.Lock()
        # Forked workers write their spans here, one file per process.
        self.spool_dir = spool_dir
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        if os.getpid() != self._pid:
            # First span in a forked child: drop the parent's spans it
            # inherited with the address space.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
            self._lock = threading.Lock()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self.spans.append(Span(name, time.monotonic(), 0.0, parent,
                                   os.getpid()))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict[str, Any] | None = None) -> None:
        span = self.spans[index]
        span.end = time.monotonic()
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def record(self, name: str, start: float, end: float,
               **attrs: Any) -> None:
        """Add a finished span measured by the caller."""
        stack = self._stack()
        with self._lock:
            self.spans.append(Span(name, start, end,
                                   stack[-1] if stack else None,
                                   os.getpid(), dict(attrs)))

    def in_worker(self) -> bool:
        return os.getpid() != self.owner_pid

    def spool(self) -> None:
        """Append this (worker) process's spans to its spool file."""
        if self.spool_dir is None or not self.spans:
            return
        path = self.spool_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps([
                [s.name, s.start, s.end, s.parent, s.pid, s.attrs]
                for s in self.spans]) + "\n")
        self.spans = []
        self._local = threading.local()

    def merged(self) -> list[Span]:
        """This process's spans followed by those spooled by worker
        processes, worker parent links re-based onto the merged list."""
        merged = list(self.spans)
        if self.spool_dir is None:
            return merged
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                batch = json.loads(line)
                base = len(merged)
                for name, start, end, parent, pid, attrs in batch:
                    merged.append(Span(name, start, end,
                                       None if parent is None
                                       else base + parent, pid, attrs))
            path.unlink()
        return merged


def _resolve(dotted: str):
    """(owner object, attribute name, original) for ``pkg.mod:Cls.attr``
    or ``pkg.mod:func``; None when it no longer exists."""
    module_name, _, qual = dotted.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


def instrument(recorder: Recorder, dotted: str, span_name: str,
               attrs_of: Callable[..., dict] | None = None,
               before: Callable[[], Any] | None = None,
               worker_entry: bool = False) -> bool:
    """Wrap ``dotted`` (``module:function`` or ``module:Class.method``)
    so each call records a span named ``span_name``.

    ``attrs_of(args, kwargs, result, token)`` may add attributes after a
    call that returned, ``token`` being what ``before()`` returned just
    before the call. Both run outside the span's interval, so their cost
    is not charged to the layer. A module-level function is replaced in
    every loaded ``repro`` module that imported it by name. With
    ``worker_entry``, a call made inside a forked worker spools the
    worker's spans when it returns. Returns False (and notes the name)
    when the target does not exist.
    """
    found = _resolve(dotted)
    if found is None:
        recorder.missing.append(dotted)
        return False
    owner, attr, original = found

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        try:
            token = before() if before is not None else None
        except Exception:  # noqa: BLE001 — tracing only
            token = None
        index = recorder.begin(span_name)
        returned, result = False, None
        try:
            result = original(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.monotonic()
            attrs = {}
            if attrs_of is not None and returned:
                try:
                    attrs = attrs_of(args, kwargs, result, token)
                except Exception as exc:  # noqa: BLE001 — tracing only
                    attrs = {"attrs_error": repr(exc)}
            recorder.end(index, attrs)
            recorder.spans[index].end = end
            if worker_entry and recorder.in_worker():
                recorder.spool()

    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if (name == "repro" or name.startswith("repro.")) and \
                getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)
    setattr(owner, attr, wrapper)
    return True


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def attr_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(float(s.attrs.get(key, 0)) for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)
