"""Measurement helpers: window medians, /proc accounting, spans, machine probe.

Nothing here knows about the program under test; everything is timed from
outside with ``time.perf_counter``/``time.monotonic`` and read from ``/proc``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------------- #
# Robust summaries
# --------------------------------------------------------------------------- #
def windows(values: Sequence[float], count: int) -> List[Sequence[float]]:
    """Split ``values`` into ``count`` equal consecutive windows (tail dropped)."""
    size = len(values) // count
    if size < 1:
        raise ValueError(f"{len(values)} samples cannot fill {count} windows")
    return [values[i * size : (i + 1) * size] for i in range(count)]


def window_median(values: Sequence[float], count: int, percentile: float) -> float:
    """Median across equal consecutive windows of the per-window percentile.

    A second-scale stall on a shared box lands in one window and moves that
    window's percentile only; the median across windows ignores it.
    """
    return statistics.median(
        float(np.percentile(window, percentile)) for window in windows(values, count)
    )


def time_call(fn: Callable[[], object], min_seconds: float, min_reps: int = 5) -> float:
    """Median wall milliseconds of ``fn()`` over repeated calls (one warm-up)."""
    fn()
    samples: List[float] = []
    deadline = time.perf_counter() + min_seconds
    while len(samples) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


# --------------------------------------------------------------------------- #
# Process-tree CPU and memory from /proc
# --------------------------------------------------------------------------- #
def worker_pids() -> List[int]:
    """Live ``multiprocessing`` children of this process (the shard workers)."""
    return [child.pid for child in multiprocessing.active_children() if child.pid]


def _proc_cpu_seconds(pid: int) -> float:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # Fields after the parenthesised command name; utime/stime are 14/15.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_status_mb(pid: int | str, key: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_cpu_seconds(since: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """CPU seconds of this process and, separately, of its live workers.

    With ``since`` (an earlier reading) the seconds used from then to now.
    """
    now = {
        "main": time.process_time(),
        "workers": sum(_proc_cpu_seconds(pid) for pid in worker_pids()),
    }
    return now if since is None else {key: now[key] - since[key] for key in now}


def tree_memory_mb(key: str = "VmHWM") -> Dict[str, float]:
    """``VmHWM`` (peak) or ``VmRSS`` of this process and of its live workers.

    Shared-memory weights are counted once per process that maps them.
    """
    return {
        "main": _proc_status_mb("self", key),
        "workers": sum(_proc_status_mb(pid, key) for pid in worker_pids()),
    }


# --------------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------------- #
class SpanRecorder:
    """In-memory spans ``{name, start, end, parent, request_id}``.

    Recorded from the harness's own code around calls into each layer and
    written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []

    def open(self, name: str, parent: Optional[int], request_id: int) -> int:
        """Start a span now; returns its index (the ``parent`` of its children)."""
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "request_id": request_id}
        )
        return len(self.spans) - 1

    def close(self, index: int) -> float:
        """End span ``index`` now; returns its duration in seconds."""
        span = self.spans[index]
        span["end"] = time.perf_counter()
        return span["end"] - span["start"]

    def add(
        self, name: str, start: float, end: float, parent: Optional[int],
        request_id: int,
    ) -> int:
        """Record a span whose start and end were taken elsewhere."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent,
             "request_id": request_id}
        )
        return len(self.spans) - 1

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + span["end"] - span["start"] - covered
            )
        return totals

    def write(self, path: Path, header: Dict[str, object]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}))


# --------------------------------------------------------------------------- #
# Machine probe
# --------------------------------------------------------------------------- #
class MachineProbe:
    """A fixed ~20 ms numpy load, sampled between the units of a phase.

    It moves with the machine, not with the program: one FFN-sized float32
    GEMM plus exp / table gather / multiply-add over the FFN activation, none
    of it code from the repository.  This shared 2-vCPU box has episodes of
    15-60 s in which everything, CPU time included, runs 10-30 % slower, and
    the probe's median over a phase follows them.  The timed run therefore
    reports throughput and CPU time at ``REFERENCE_MS`` machine speed and
    prints the unscaled values beside them; over twenty 40 s runs that takes
    the range of throughput from 11-30 % to 5.5-13 % (``AA_10runs.json``,
    ``unscaled``; README, "Timings are reported at a reference machine speed").
    Sample it only while the system under test is idle.
    """

    #: what one sample takes on this box in a quiet minute; a constant, so
    #: that scaled and raw values agree when the machine is at its usual speed.
    REFERENCE_MS = 21.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((384, 768)).astype(np.float32)
        self._b = rng.standard_normal((768, 3072)).astype(np.float32)
        self._x = rng.standard_normal(384 * 3072).astype(np.float32)
        self._index = rng.integers(0, 16, size=self._x.size)
        self._table = rng.standard_normal(16).astype(np.float32)
        self.gemm_ms: List[float] = []
        self.elementwise_ms: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        np.matmul(self._a, self._b)
        middle = time.perf_counter()
        for _ in range(2):
            np.exp(self._x)
            np.take(self._table, self._index)
            self._x * self._x + self._x
        end = time.perf_counter()
        self.gemm_ms.append(1000.0 * (middle - start))
        self.elementwise_ms.append(1000.0 * (end - middle))

    def slowdown(self, first: int = 0) -> float:
        """Median sample time from sample ``first`` on, over ``REFERENCE_MS``."""
        totals = [
            g + e for g, e in zip(self.gemm_ms[first:], self.elementwise_ms[first:])
        ]
        return statistics.median(totals) / self.REFERENCE_MS if totals else 1.0

    def metrics(self) -> Dict[str, float]:
        totals = [g + e for g, e in zip(self.gemm_ms, self.elementwise_ms)]
        flop = 2 * self._a.shape[0] * self._a.shape[1] * self._b.shape[1]
        # exp reads and writes the array, take reads indices and writes it,
        # the multiply-add makes two passes of read and write; twice over.
        moved = 2 * (8 * self._x.nbytes + self._index.nbytes)
        return {
            "machine.gemm_probe_gflops": flop / statistics.median(self.gemm_ms) / 1e6,
            "machine.elementwise_probe_gbps": (
                moved / statistics.median(self.elementwise_ms) / 1e6
            ),
            "machine.probe_spread": (max(totals) - min(totals)) / statistics.median(totals),
            "machine.slowdown": self.slowdown(),
        }
