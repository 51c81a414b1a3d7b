"""Process plumbing shared by every workload.

Hermetic set-up (scrubbed ``REPRO_*`` environment, temporary files kept
inside the checkout), the process tree the workload started (for peak
resident set and for leaked-process detection), host health readings,
nearest-rank percentiles with a sample-count guard, and result digests.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch space for caches, sockets and worker span files. Inside the
# checkout and listed in .gitignore; removed when the run ends.
TMP = ROOT / ".bench_tmp"
# multiprocessing's forkserver binds a Unix socket about 35 characters
# below the temporary directory, and Unix socket paths stop at 107. In a
# checkout deeper than this the program keeps the host's TMPDIR.
MAX_TMPDIR_CHARS = 70

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_TAIL_SAMPLES = 10


class BenchError(RuntimeError):
    """The run cannot report: missing program, or a workload measured
    nothing of what it claims to measure."""


# ---------------------------------------------------------------------------
# Hermetic environment
# ---------------------------------------------------------------------------

def scrubbed_env() -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` variable, with
    the program's sources on ``PYTHONPATH`` and temporary files under
    :data:`TMP`."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    if len(str(TMP)) <= MAX_TMPDIR_CHARS:
        env["TMPDIR"] = str(TMP)
    return env


def make_hermetic() -> None:
    """Apply :func:`scrubbed_env` to this process, before the program is
    imported, so neither it nor any worker it forks sees a caller's
    ``REPRO_ENGINE`` or ``REPRO_TRACE``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    env = scrubbed_env()
    for key in list(os.environ):
        if key not in env:
            del os.environ[key]
    os.environ.update(env)
    TMP.mkdir(exist_ok=True)
    if "TMPDIR" in env:
        tempfile.tempdir = str(TMP)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def fresh_dir(name: str) -> Path:
    """An empty directory under :data:`TMP`."""
    path = TMP / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_tmp() -> None:
    shutil.rmtree(TMP, ignore_errors=True)


# ---------------------------------------------------------------------------
# The process tree this run started
# ---------------------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (daemon pool workers whose parent
    exited), so a leaked process stays visible to :func:`descendants`."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces and parentheses; fields after it
    # are space-separated: state, ppid, ...
    return raw[raw.rindex(")") + 2:].split()


def descendants(live_only: bool = True) -> list[int]:
    """Every process below this one. Zombies are left out unless
    ``live_only`` is False."""
    children: dict[int, list[int]] = {}
    states: dict[int, str] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        states[int(entry)] = fields[0]
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, todo = [], [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), []):
            todo.append(child)
            if not live_only or states.get(child) != "Z":
                found.append(child)
    return found


def peak_rss_kb(pids) -> int:
    """Largest ``VmHWM`` (peak resident set) among ``pids``."""
    peak = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
                    break
        except (OSError, ValueError):
            continue
    return peak


class RssWatch:
    """Peak resident set of this process and everything it started."""

    def __init__(self) -> None:
        self.peak_kb = 0

    def sample(self) -> None:
        """Fold in the live descendants' peaks (call before they exit)."""
        self.peak_kb = max(self.peak_kb, peak_rss_kb(descendants()))

    def peak_mb(self) -> float:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self.peak_kb, self_kb, child_kb) / 1024.0


def reap_descendants(timeout: float) -> list[int]:
    """Wait up to ``timeout`` seconds for every descendant to exit,
    reaping adopted zombies. Returns the pids still alive afterwards,
    after killing them."""
    deadline = time.monotonic() + timeout
    while True:
        for pid in descendants(live_only=False):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        alive = descendants()
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return alive


# ---------------------------------------------------------------------------
# Host health (reported, never gated)
# ---------------------------------------------------------------------------

def cpu_times() -> tuple[int, int]:
    """(steal jiffies, total jiffies) from the aggregate ``/proc/stat``
    line."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user/nice.
    return steal, sum(fields[:8])


class Health:
    """Host readings taken at start and end of a run."""

    def __init__(self) -> None:
        self.load_at_start = os.getloadavg()[0]
        self._cpu_start = cpu_times()

    def readings(self) -> dict:
        import numpy

        steal_end, total_end = cpu_times()
        total = total_end - self._cpu_start[1]
        steal = steal_end - self._cpu_start[0]
        return {
            "steal_share": steal / total if total > 0 else 0.0,
            "load_at_start": self.load_at_start,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "code_salt": code_salt(),
        }


def code_salt() -> str:
    """The program's code-version hash (the result cache's salt)."""
    from repro.orchestrator.cache import code_salt as salt

    return salt()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, pct: float, min_tail: int = MIN_TAIL_SAMPLES) \
        -> float:
    """Nearest-rank ``pct`` percentile of ``values``; raises
    :class:`BenchError` unless at least ``min_tail`` samples lie beyond
    it (strictly above the chosen rank)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError(f"p{pct:g} of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_tail:
        raise BenchError(
            f"p{pct:g} over {len(ordered)} samples has {beyond} beyond it "
            f"(need {min_tail})")
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def volume_digest(cycles: float, instructions: int) -> str:
    """Pin digest of one simulated point's (cycles, instructions)."""
    text = f"{float(cycles)!r}:{int(instructions)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_digest(stats) -> str:
    from repro.statsbase import sim_volume

    return volume_digest(*sim_volume(stats))


def json_digest(document) -> str:
    """Pin digest of a JSON-able document (exact float reprs)."""
    text = json.dumps(document, sort_keys=True, allow_nan=True,
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
