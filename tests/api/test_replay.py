"""The virtual-time replay of the scheduling core, and the numbers it keeps.

``replay.run`` plays a trace against the unmodified ``Fleet`` core with
fake replicas on a virtual clock.  The first tests pin the tool: every
request is resolved exactly once and the core's board agrees, the same
trace gives the same metrics, a two-request trace gives hand-computed
latencies and replica-seconds, and hot-add / drain / retire mid-trace
lose nothing.

The last ones are the keep rule for serving components: a component stays
while it moves a declared serving metric by more than 5 % on some trace.
One of three replicas fails each batch with probability 0.5 (a failed
forward costs three times its service time); on two seeds each,

* ``CircuitBreakerConfig()`` lifts SLO goodput over no breaker when the
  error is not retryable (what ``FaultPlan.session_error_count`` raises);
* ``RetryPolicy()`` lifts it over no retry when the error is a
  ``TimeoutError``.

The trace is small enough that the policy's default retry budget (256
retried requests) is not exhausted.
"""

import numpy as np
import pytest

from repro.api import CircuitBreakerConfig, InjectedFaultError, RetryPolicy

import replay  # tests/api/replay.py
import traces  # tests/api/traces.py

SHAPES = {
    "diurnal": dict(diurnal_amplitude=0.95, num_bursts=0),
    "burst": dict(diurnal_amplitude=0.0, num_bursts=3, burst_intensity=6.0),
    "heavy_tail": dict(tail_alpha=0.8, min_length=2),
}


def _trace(seed=0, num_requests=2000, duration_s=20.0, **overrides):
    shape = dict(min_length=8, max_length=128)
    shape.update(overrides)
    return traces.generate_trace(
        num_requests=num_requests, duration_s=duration_s, seed=seed, **shape
    )


def _two_requests():
    """Lengths 10 and 20 arriving at 0 and 1 ms (one coalescing window)."""
    return traces.Trace(
        config=traces.TraceConfig(num_requests=2, duration_s=0.005),
        arrivals_s=(0.0, 0.001),
        lengths=(10, 20),
        requests=(np.arange(10), np.arange(20)),
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_request_resolves_once_and_the_board_agrees(shape):
    # Two replicas behind a short backlog bound, one of them flaky, a
    # breaker and a retry budget that runs out: requests are served,
    # rejected and failed.
    report = replay.run(
        _trace(**SHAPES[shape]), 2, max_queue_depth=64,
        retry=RetryPolicy(retry_budget=32), breaker=CircuitBreakerConfig(),
        failures={1: replay.flaky(0.3, 0, TimeoutError("stalled"))},
    )
    # run() itself asserts that each request resolves once and only once.
    ends = [o if isinstance(o, str) else "served" for o in report.outcomes]
    assert len(ends) == report.requests == 2000
    assert all(isinstance(o, (str, float)) for o in report.outcomes)
    assert 0 < ends.count("TimeoutError") and 0 < ends.count("QueueFullError")
    stats = report.stats
    assert ends.count("served") == report.served == stats.completed
    assert ends.count("QueueFullError") == stats.rejected
    assert ends.count("TimeoutError") == stats.failed
    assert stats.submitted == report.requests - stats.rejected
    assert stats.completed + stats.failed + stats.expired == stats.submitted
    assert stats.queue_depth == 0
    assert report.goodput <= report.served


def test_the_same_trace_gives_the_same_metrics():
    def once():
        return replay.run(
            _trace(seed=3, **SHAPES["burst"]), 2, retry=RetryPolicy(),
            failures={0: replay.flaky(0.5, 3, TimeoutError("stalled"))},
        )

    first, again = once(), once()
    assert first == again  # every field, outcomes included, bit for bit
    assert first.stats.retry_attempts > 0
    other = replay.run(_trace(seed=4, **SHAPES["burst"]), 2)
    assert other.outcomes != first.outcomes


def test_two_requests_on_one_replica_are_hand_computable():
    # The window closes at 2 ms with both requests in it; the length-10
    # batch runs 2 + 1.4 ms, then the length-20 batch 2 + 2.8 ms.
    report = replay.run(_two_requests(), 1)
    assert report.outcomes == pytest.approx((5.4, 10.2 - 1.0), abs=1e-12)
    # The span runs past the 5 ms trace to the last forward's end.
    assert report.replica_seconds == pytest.approx(0.0102, abs=1e-15)
    assert report.p50_ms == pytest.approx(7.3)
    assert report.p99_ms == pytest.approx(5.4 + 0.99 * 3.8)
    assert report.goodput == 2 and report.attainment == 1.0
    assert (report.added, report.retired) == (0, 0)


def test_a_failed_forward_costs_its_multiple_and_the_retry_goes_elsewhere():
    trace = traces.Trace(
        config=traces.TraceConfig(num_requests=1, duration_s=1.0),
        arrivals_s=(0.0,), lengths=(10,), requests=(np.arange(10),),
    )
    fails_once = {0: lambda k: TimeoutError("stalled") if k == 0 else None}
    report = replay.run(
        trace, 2, retry=RetryPolicy(backoff_base_s=0.0), failures=fails_once,
    )
    # Replica 0 takes it at 2 ms and fails after 3 x 3.4 ms; the retry is
    # due at once and replica 1 serves it in 3.4 ms.
    assert report.outcomes == pytest.approx((2.0 + 3 * 3.4 + 3.4,), abs=1e-12)
    assert report.stats.retry_attempts == 1
    assert [(r.replica_id, r.completed) for r in report.stats.replicas] == [
        (0, 0), (1, 1),
    ]
    assert report.replica_seconds == 2.0  # two replicas over the 1 s trace


def test_midtrace_add_drain_and_retire_lose_nothing():
    def add(fleet, now):
        fleet.add(None)

    def drain(replica_id):
        return lambda fleet, now: fleet.drain(replica_id)

    def retire(replica_id):
        return lambda fleet, now: fleet.retire(replica_id)

    # Light enough traffic that one replica keeps up after the last retire.
    report = replay.run(
        _trace(seed=5, num_requests=1000, num_bursts=0), 2,
        actions=[(5.0, add), (8.0, drain(0)), (12.0, retire(0)), (15.0, retire(1))],
    )
    assert report.served == report.goodput == report.requests
    assert (report.added, report.retired) == (1, 2)
    assert [r.replica_id for r in report.stats.replicas] == [2]
    assert report.stats.replicas[0].completed > 0
    # 0 serves 0-12 s, 1 serves 0-15 s (plus its last forward), 2 joins at 5 s.
    assert 12.0 + 15.0 + 15.0 <= report.replica_seconds < 12.0 + 15.0 + 15.0 + 0.6


# --------------------------------------------------------------------------- #
# The keep rule: each resilience component earns a replay number
# --------------------------------------------------------------------------- #
FAULT_TRACE = dict(
    num_requests=1000, duration_s=10.0, diurnal_amplitude=0.5, num_bursts=2,
    burst_intensity=2.0, burst_width_frac=0.02,
)


def _goodput_with_a_flaky_replica(seed, error, **policy):
    return replay.run(
        _trace(seed=seed, **FAULT_TRACE), 3,
        failures={0: replay.flaky(0.5, seed, error)}, **policy,
    ).goodput


@pytest.mark.parametrize("seed", [0, 1])
def test_the_circuit_breaker_earns_its_place(seed):
    error = InjectedFaultError("injected session fault")
    without = _goodput_with_a_flaky_replica(seed, error)
    kept = _goodput_with_a_flaky_replica(seed, error, breaker=CircuitBreakerConfig())
    assert kept >= 1.05 * without, (kept, without)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_retry_policy_earns_its_place(seed):
    error = TimeoutError("replica stalled")
    without = _goodput_with_a_flaky_replica(seed, error)
    kept = _goodput_with_a_flaky_replica(seed, error, retry=RetryPolicy())
    assert kept >= 1.05 * without, (kept, without)
