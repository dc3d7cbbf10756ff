"""Seeded load generation: request lists, arrival schedules, the two loops.

Every draw is *stratified*: a phase's multiset of lengths (and of arrival
gaps) is the same for every seed — the quantile midpoints of the target
distribution — and the seed decides only their order and the token ids.  Two
seeds therefore offer the same amount of work in a different arrangement,
which keeps seed-to-seed differences out of the timing metrics without
making any two runs identical.

The loops run on one generator thread.  The open loop sends on a schedule and
times each request from when it was *due*; the closed loop ("flood") submits
a whole wave and waits for all of it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "pareto_lengths",
    "clustered_lengths",
    "poisson_due_times",
    "make_requests",
    "digest",
    "Outcome",
    "run_open_loop",
    "run_wave",
]


def _stratified(rng: np.random.Generator, count: int, inverse_cdf) -> np.ndarray:
    values = inverse_cdf((np.arange(count) + 0.5) / count)
    rng.shuffle(values)
    return values


def pareto_lengths(
    rng: np.random.Generator, count: int, low: int, high: int, alpha: float = 1.5
) -> List[int]:
    """``count`` lengths from a Pareto(``alpha``) truncated to ``[low, high]``."""
    tail = 1.0 - (low / high) ** alpha

    def inverse_cdf(u: np.ndarray) -> np.ndarray:
        return low / (1.0 - u * tail) ** (1.0 / alpha)

    lengths = np.floor(_stratified(rng, count, inverse_cdf)).astype(np.int64)
    return [int(n) for n in np.clip(lengths, low, high)]


def clustered_lengths(
    rng: np.random.Generator, values: Sequence[int], repeats: int
) -> List[int]:
    """Each of ``values`` exactly ``repeats`` times, in seeded order."""
    lengths = np.repeat(np.asarray(values, dtype=np.int64), repeats)
    rng.shuffle(lengths)
    return [int(n) for n in lengths]


def poisson_due_times(rng: np.random.Generator, count: int, rate: float) -> np.ndarray:
    """Due times (s from phase start) of ``count`` Poisson arrivals at ``rate``/s."""
    gaps = _stratified(rng, count, lambda u: -np.log1p(-u) / rate)
    return np.cumsum(gaps)


def make_requests(
    rng: np.random.Generator, lengths: Sequence[int], vocab_size: int
) -> List[np.ndarray]:
    return [rng.integers(0, vocab_size, size=n, dtype=np.int64) for n in lengths]


def digest(*parts) -> str:
    """sha256 over request lists / arrays, for the same-seed ⇒ same-bytes check."""
    sha = hashlib.sha256()
    for part in parts:
        for array in part if isinstance(part, (list, tuple)) else [part]:
            data = np.ascontiguousarray(array)
            sha.update(str((data.shape, data.dtype.str)).encode())
            sha.update(data.tobytes())
    return sha.hexdigest()


@dataclass
class Outcome:
    """What happened to one request of a phase."""

    due: float  # monotonic time the request was due (open loop) or sent
    sent: float = 0.0  # monotonic time submit() was entered
    submit_s: float = 0.0  # duration of the submit() call
    done: float = 0.0  # monotonic completion time recorded by the future
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    future: object = field(default=None, repr=False)

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


def _collect(outcomes: List[Outcome], timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    for outcome in outcomes:
        if outcome.future is None:
            continue
        try:
            outcome.result = outcome.future.result(
                max(0.0, deadline - time.monotonic())
            )
            outcome.done = outcome.future.done_at
        except Exception as exc:  # a failed request is a counted outcome
            outcome.error = exc
        outcome.future = None


def _on_generator_thread(body: Callable[[], None]) -> None:
    errors: List[BaseException] = []

    def run() -> None:
        try:
            body()
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=run, name="e2e-generator")
    thread.start()
    thread.join()
    if errors:
        raise errors[0]


def _submit(submit, tokens: np.ndarray, outcome: Outcome) -> None:
    outcome.sent = time.monotonic()
    try:
        outcome.future = submit(tokens)
    except Exception as exc:  # rejected at the door: counted, not raised
        outcome.error = exc
    outcome.submit_s = time.monotonic() - outcome.sent


def run_open_loop(
    submit, requests: Sequence[np.ndarray], due_s: np.ndarray, timeout_s: float = 30.0
) -> List[Outcome]:
    """Send ``requests[i]`` at ``due_s[i]`` regardless of completions."""
    outcomes: List[Outcome] = []

    def body() -> None:
        start = time.monotonic() + 0.02
        for tokens, offset in zip(requests, due_s):
            outcome = Outcome(due=start + float(offset))
            delay = outcome.due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            _submit(submit, tokens, outcome)
            outcomes.append(outcome)
        _collect(outcomes, timeout_s)

    _on_generator_thread(body)
    return outcomes


def run_wave(
    submit, requests: Sequence[np.ndarray], timeout_s: float = 30.0
) -> List[Outcome]:
    """Submit every request at once, then wait for all of them."""
    outcomes: List[Outcome] = []

    def body() -> None:
        for tokens in requests:
            outcome = Outcome(due=time.monotonic())
            _submit(submit, tokens, outcome)
            outcomes.append(outcome)
        _collect(outcomes, timeout_s)

    _on_generator_thread(body)
    return outcomes
