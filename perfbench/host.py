"""Host provenance, a CPU calibration score, memory and percentiles."""

from __future__ import annotations

import bisect
import gc
import math
import os
import platform
import resource
import statistics
import sys
import time


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def own_peak_mb() -> float:
    """Peak resident memory of this process so far (MiB; Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Peak resident memory of the largest reaped child (shard workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


#: Calibration score (Mops) that normalized metrics are scaled to.
REFERENCE_MOPS = 3.0
#: Loop iterations per burst: about 0.5 ms, well inside the interpreter's
#: 5 ms switch interval, so another thread rarely cuts a burst short.
BURST_ITERATIONS = 2000


def calibration_burst() -> float:
    """Millions of iterations per second of a fixed pure-Python loop.

    The loop mixes the operations the engine spends its time on (tuple
    building, dict probes and writes, integer arithmetic), so the score
    tracks how fast this host runs the interpreter right now.  The
    collector is off during the burst, so the library's own GC settings
    cannot move the score.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict[tuple, int] = {}
        start = time.perf_counter()
        for i in range(BURST_ITERATIONS):
            key = (i & 1023, i >> 10)
            table[key] = table.get(key, 0) + i
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return BURST_ITERATIONS / elapsed / 1e6


class Calibrator:
    """Short calibration bursts interleaved with the measured work.

    Host speed on shared virtual machines drifts by tens of percent over
    seconds, so CPU-bound figures are reported at :data:`REFERENCE_MOPS`.
    Bursts taken on the working thread between units of work (batches,
    commits, set-ups) sample the drift; :meth:`factor` is their median
    score over the reference.  Times are multiplied by it, rates divided.
    """

    def __init__(self):
        self.scores: list[float] = []
        self.times: list[float] = []

    def burst(self) -> None:
        self.scores.append(calibration_burst())
        self.times.append(time.perf_counter())

    def factor(self) -> float:
        if not self.scores:
            self.burst()
        return statistics.median(self.scores) / REFERENCE_MOPS

    def factor_near(self, moment: float, width: float = 0.25) -> float:
        """:meth:`factor` over the bursts within ``width`` seconds of
        ``moment``.  A shared host's speed can swing by 1.8x within
        seconds, so a long run is scaled piece by piece."""
        low = bisect.bisect_left(self.times, moment - width)
        high = bisect.bisect_right(self.times, moment + width)
        if low == high:
            return self.factor()
        return statistics.median(self.scores[low:high]) / REFERENCE_MOPS


def calibration_score() -> float:
    """Median of 50 back-to-back bursts (the provenance figure)."""
    return statistics.median(calibration_burst() for _ in range(50))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(root),
        "calibration_mops": round(calibration_score(), 4),
    }
