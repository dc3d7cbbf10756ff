"""Batch formation: the coalescing-window policy over the one grouping rule.

A window of pending requests is grouped by
:meth:`RequestBatcher.plan <repro.api.batching.RequestBatcher.plan>` —
the single definition of "which requests share a batch" (stable by
bucketed length, chunked to ``max_batch_size`` rows), and so the single
place the exact-length float64 parity guarantee is decided for direct,
pooled and queued serving alike.  What lives here is the window timing
policy: a window closes ``max_wait_s`` after its *oldest* request, or
early once the fleet is saturated (every live replica has a full batch
waiting).

The former is pure: it never touches a lock or a clock, like the fleet
core (:mod:`~repro.api.scheduling.fleet`) that forms batches with it.
"""

from __future__ import annotations

from typing import List

from ..batching import RequestBatcher
from .admission import Pending

__all__ = ["BatchFormer"]


class BatchFormer:
    """Length-grouped batch formation over a coalescing window.

    Parameters
    ----------
    max_batch_size:
        Rows per dispatched batch.
    bucket_size:
        Length-bucket granularity (1 = exact-length batching, the parity
        configuration).
    max_sequence_length:
        Bucketed lengths are clamped to the model's maximum.
    max_wait_s:
        Coalescing window measured from the oldest pending request.
    """

    def __init__(
        self,
        max_batch_size: int,
        bucket_size: int,
        max_sequence_length: int,
        max_wait_s: float,
    ) -> None:
        self._batcher = RequestBatcher(max_batch_size, bucket_size)
        self.max_sequence_length = int(max_sequence_length)
        self.max_wait_s = float(max_wait_s)

    def window_deadline(self, oldest_submitted_at: float) -> float:
        """When the window anchored at ``oldest_submitted_at`` closes."""
        return oldest_submitted_at + self.max_wait_s

    def saturated(self, pending_count: int, live_replicas: int) -> bool:
        """True once every live replica already has a full batch pending.

        Closing the window early at this point adds batch density no
        longer — it only adds latency.
        """
        return pending_count >= self._batcher.max_batch_size * max(1, live_replicas)

    def form(self, window: List[Pending]) -> List[List[Pending]]:
        """The window's requests in ``RequestBatcher.plan``'s groups."""
        plan = self._batcher.plan(
            [pending.tokens.size for pending in window], self.max_sequence_length
        )
        return [[window[i] for i in indices] for _, indices in plan]
