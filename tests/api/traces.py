"""Seedable trace-replay load generation for the serving tests.

Lives in ``tests/api/`` beside its callers (``test_scheduling.py``,
``test_chaos.py``, ``test_server.py``, ``test_replay.py``).
Steady-Poisson traffic answers "how much does coalescing help on
average"; it cannot answer the scheduling questions — how the shared
ready queue, retries and breakers behave when traffic is *not* steady.
This module generates reproducible request traces with the three shapes
real serving traffic has:

* **bursty arrivals** — short windows where the arrival rate multiplies,
  the regime where scheduling decides the p99;
* **a diurnal ramp** — a slow sinusoidal swell across the trace, the
  shape a fixed fleet must be sized for;
* **heavy-tailed lengths** — Pareto-distributed request sizes, so a few
  expensive requests ride among many cheap ones and per-token cost (not
  request count) is what loads a replica.

Everything is driven by one ``numpy`` :class:`~numpy.random.Generator` seed:
the same seed yields the same trace — arrival times, lengths and token ids —
so replay runs are comparable across commits and the float64 parity check
can replay the identical workload against the per-call oracle.

:func:`replay` plays a trace against anything with the ``ServingQueue``
``submit`` surface in (scaled) real time, optionally firing scheduled
*actions* mid-run (retire a replica, hot-add one) to exercise live
membership under load, and returns per-request outcomes;
``replay.run`` (``tests/api/replay.py``) plays one against the pure
scheduling core on a virtual clock instead.
:func:`burst_digest` then splits the latency distribution into
inside-burst vs outside-burst percentiles — the "p99 under burst" number.
:func:`wait_for_inflight` blocks until a queue has a batch inside a
replica forward, for tests that stage work behind a gated replica.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TraceConfig",
    "Trace",
    "ReplayOutcome",
    "ReplayResult",
    "generate_trace",
    "replay",
    "burst_digest",
    "wait_for_inflight",
]


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of one generated trace (all randomness flows from ``seed``)."""

    num_requests: int = 48
    duration_s: float = 1.0
    seed: int = 0
    #: Number of burst windows spread across the trace.
    num_bursts: int = 2
    #: Each burst multiplies the arrival intensity by this factor.
    burst_intensity: float = 6.0
    #: Burst width as a fraction of the trace duration.
    burst_width_frac: float = 0.08
    #: Diurnal swell: intensity varies by ``1 +- diurnal_amplitude`` over
    #: ``diurnal_cycles`` sine cycles across the trace.
    diurnal_amplitude: float = 0.5
    diurnal_cycles: float = 1.0
    #: Request lengths: ``min_length + Pareto(tail_alpha)`` scaled, clipped
    #: to ``max_length``.  Smaller alpha = heavier tail.
    min_length: int = 2
    max_length: int = 16
    tail_alpha: float = 1.5
    vocab_size: int = 200

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if not 1 <= self.min_length <= self.max_length:
            raise ValueError(
                f"need 1 <= min_length <= max_length, got "
                f"{self.min_length}..{self.max_length}"
            )
        if self.tail_alpha <= 0:
            raise ValueError(f"tail_alpha must be > 0, got {self.tail_alpha}")


@dataclass(frozen=True)
class Trace:
    """One reproducible workload: who arrives when, asking for how much."""

    config: TraceConfig
    #: Arrival offsets from trace start, seconds, non-decreasing.
    arrivals_s: Tuple[float, ...]
    #: Token count per request (heavy-tailed).
    lengths: Tuple[int, ...]
    #: Token id arrays, one per request (int64, ``lengths[i]`` long).
    requests: Tuple[np.ndarray, ...] = field(repr=False)
    #: ``(start_s, end_s)`` spans where the burst intensity applied.
    burst_windows: Tuple[Tuple[float, float], ...] = ()

    @property
    def total_tokens(self) -> int:
        return int(sum(self.lengths))

    def in_burst(self, index: int) -> bool:
        """Whether request ``index`` arrived inside a burst window."""
        at = self.arrivals_s[index]
        return any(start <= at <= end for start, end in self.burst_windows)


def _burst_windows(config: TraceConfig, rng: np.random.Generator):
    """Burst spans placed away from the trace edges, non-degenerate."""
    width = config.burst_width_frac * config.duration_s
    windows: List[Tuple[float, float]] = []
    for _ in range(max(0, config.num_bursts)):
        start = float(
            rng.uniform(0.1 * config.duration_s, 0.9 * config.duration_s - width)
        )
        windows.append((start, start + width))
    return tuple(sorted(windows))


def generate_trace(config: TraceConfig | None = None, **kwargs) -> Trace:
    """Build one trace; ``kwargs`` override :class:`TraceConfig` fields.

    Arrival times come from inverting the cumulative intensity of a
    non-homogeneous process — diurnal sine times burst multipliers — at
    evenly spaced quantiles with seeded jitter, which yields *exactly*
    ``num_requests`` arrivals whose local density follows the intensity
    (a burst window at 6x intensity receives ~6x its share of arrivals).
    """
    if config is None:
        config = TraceConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either a TraceConfig or field overrides, not both")
    rng = np.random.default_rng(config.seed)
    windows = _burst_windows(config, rng)

    grid = np.linspace(0.0, config.duration_s, 2048)
    intensity = 1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * config.diurnal_cycles * grid / config.duration_s
    )
    intensity = np.maximum(intensity, 0.05)
    for start, end in windows:
        intensity[(grid >= start) & (grid <= end)] *= config.burst_intensity
    cumulative = np.concatenate([[0.0], np.cumsum(intensity[:-1] * np.diff(grid))])
    # Jittered quantiles of the cumulative intensity -> arrival offsets.
    quantiles = (
        np.arange(config.num_requests) + rng.uniform(0.0, 1.0, config.num_requests)
    ) / config.num_requests
    arrivals = np.interp(quantiles * cumulative[-1], cumulative, grid)
    arrivals = np.sort(arrivals)

    spread = config.max_length - config.min_length
    raw = rng.pareto(config.tail_alpha, size=config.num_requests)
    lengths = np.minimum(
        config.min_length + np.floor(raw * max(1, spread // 4)).astype(np.int64),
        config.max_length,
    )
    requests = tuple(
        rng.integers(0, config.vocab_size, size=int(length), dtype=np.int64)
        for length in lengths
    )
    return Trace(
        config=config,
        arrivals_s=tuple(float(at) for at in arrivals),
        lengths=tuple(int(length) for length in lengths),
        requests=requests,
        burst_windows=windows,
    )


@dataclass(frozen=True)
class ReplayOutcome:
    """What happened to one replayed request."""

    index: int
    arrival_s: float
    length: int
    in_burst: bool
    latency_ms: Optional[float]  # None when the request did not complete
    error: Optional[str]  # exception class name for failures
    result: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ReplayResult:
    """All outcomes of one replay run, plus the wall time it took."""

    outcomes: Tuple[ReplayOutcome, ...]
    elapsed_s: float

    @property
    def completed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return len(self.outcomes) - self.completed

    def results(self) -> List[Optional[np.ndarray]]:
        """Request-ordered results (None where the request failed)."""
        return [outcome.result for outcome in self.outcomes]


def replay(
    queue,
    trace: Trace,
    time_scale: float = 1.0,
    deadline_ms: Optional[float] = None,
    result_timeout_s: float = 600.0,
    actions: Sequence[Tuple[float, Callable[[], object]]] = (),
    keep_results: bool = True,
) -> ReplayResult:
    """Play ``trace`` against ``queue`` in (scaled) real time.

    The replay thread sleeps until each request's scheduled arrival
    (``arrival_s * time_scale``) and submits it; results are collected
    afterwards so slow requests never delay later arrivals.  ``actions``
    are ``(at_s, callable)`` pairs fired (once each, in trace time) the
    first time the replay clock passes ``at_s`` — the hook the
    membership-churn benchmarks use to retire/hot-add replicas mid-run.
    An action that raises aborts the replay (a churn benchmark must not
    silently skip its churn).

    Submission failures (admission rejection, validation) are recorded as
    failed outcomes, not raised: overload behaviour is part of what a
    trace replay measures.
    """
    pending_actions = sorted(actions, key=lambda pair: pair[0])
    next_action = 0
    futures: List[Tuple[int, object, Optional[BaseException]]] = []
    start = time.monotonic()
    for index, arrival in enumerate(trace.arrivals_s):
        while (
            next_action < len(pending_actions)
            and pending_actions[next_action][0] <= arrival
        ):
            pending_actions[next_action][1]()
            next_action += 1
        delay = arrival * time_scale - (time.monotonic() - start)
        if delay > 0:
            time.sleep(delay)
        try:
            future = queue.submit(trace.requests[index], deadline_ms=deadline_ms)
            futures.append((index, future, None))
        except Exception as exc:
            futures.append((index, None, exc))
    while next_action < len(pending_actions):
        pending_actions[next_action][1]()
        next_action += 1

    outcomes: List[ReplayOutcome] = []
    for index, future, submit_error in futures:
        arrival = trace.arrivals_s[index]
        error: Optional[str] = None
        latency_ms: Optional[float] = None
        result: Optional[np.ndarray] = None
        if submit_error is not None:
            error = type(submit_error).__name__
        else:
            try:
                result = future.result(result_timeout_s)
                latency_ms = 1000.0 * (
                    future.done_at - (start + arrival * time_scale)
                )
            except Exception as exc:
                error = type(exc).__name__
                result = None
        outcomes.append(
            ReplayOutcome(
                index=index,
                arrival_s=arrival,
                length=trace.lengths[index],
                in_burst=trace.in_burst(index),
                latency_ms=latency_ms,
                error=error,
                result=result if keep_results else None,
            )
        )
    elapsed = time.monotonic() - start
    return ReplayResult(outcomes=tuple(outcomes), elapsed_s=elapsed)


def _percentiles(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0, "count": 0}
    array = np.asarray(values, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(array, 50)),
        "p99_ms": float(np.percentile(array, 99)),
        "mean_ms": float(np.mean(array)),
        "count": int(array.size),
    }


def burst_digest(result: ReplayResult) -> Dict[str, object]:
    """Latency percentiles split by burst membership (the p99-under-burst).

    ``burst`` digests requests that *arrived inside* a burst window —
    exactly the ones a routing policy must not let queue behind a busy
    replica — ``steady`` digests the rest, and ``all`` is the union.
    """
    burst = [o.latency_ms for o in result.outcomes if o.ok and o.in_burst]
    steady = [o.latency_ms for o in result.outcomes if o.ok and not o.in_burst]
    return {
        "burst": _percentiles(burst),
        "steady": _percentiles(steady),
        "all": _percentiles(burst + steady),
        "failed": result.failed,
    }


def wait_for_inflight(queue, timeout: float = 5.0) -> None:
    """Block until some batch of ``queue`` is inside a replica forward.

    Waits on the queue's condition, which every dispatch notifies,
    instead of polling.
    """
    core = queue._core
    with queue._cond:
        if not queue._cond.wait_for(
            lambda: any(m.batch is not None for m in core.members.values()),
            timeout,
        ):
            raise TimeoutError("no batch reached a worker in time")
