"""Routing policies: which replica serves a formed batch.

A :class:`Router` maps a formed batch to one live
:class:`~repro.api.scheduling.fleet.ReplicaMember`.  Two policies ship:

* :class:`DeterministicRouter` — strict round-robin over the live members
  in replica-id order, no work stealing.  This is the pools'
  ``j % N`` dispatch: batch assignment depends only on submission order
  and membership, never on thread timing, so runs are reproducible
  batch-for-batch and every float64 parity gate pins this router.
* :class:`LeastLoadedRouter` — dispatch to the member with the smallest
  outstanding cost (queued + in-flight token count), with idle workers
  stealing queued batches from backlogged peers.  Better tail latency
  under skewed or bursty traffic, but *which replica serves a batch* now
  depends on timing — results stay bitwise-identical on the float
  engines (every replica serves the same frozen model), while the int8
  engine's per-batch activation scales make batch placement observable.

``select`` is only ever called under the fleet scheduler lock, so
routers may keep unsynchronized state (the round-robin counter).  The
candidate list the fleet hands a router already excludes members whose
circuit breaker is open (see
:mod:`repro.api.scheduling.resilience`) — routing policy never has to
reason about replica health itself.
"""

from __future__ import annotations

from typing import Dict, List, Type

__all__ = [
    "Router",
    "DeterministicRouter",
    "LeastLoadedRouter",
    "ROUTERS",
    "create_router",
]


class Router:
    """Routing-policy protocol (see the module docstring for the contract)."""

    #: Registry key and the name reported by ``ServingStats.router``.
    name: str = "abstract"
    #: Whether idle workers may steal queued batches from loaded peers.
    steal_when_idle: bool = False

    def select(self, members: List, batch) -> object:
        """Pick the member that should serve ``batch``.

        ``members`` is the non-empty list of routable (live, non-draining)
        members sorted by replica id; ``batch`` is the formed
        :class:`~repro.api.scheduling.fleet.FormedBatch`.  Called with the
        fleet lock held.
        """
        raise NotImplementedError


class DeterministicRouter(Router):
    """Round-robin in replica-id order — the reproducible default."""

    name = "deterministic"
    steal_when_idle = False

    def __init__(self) -> None:
        self._counter = 0

    def select(self, members: List, batch) -> object:
        member = members[self._counter % len(members)]
        self._counter += 1
        return member


class LeastLoadedRouter(Router):
    """Smallest outstanding (queued + in-flight) token cost wins.

    Ties break toward fewer queued batches, then the lowest replica id.
    Idle workers additionally steal queued batches from the most loaded
    peer (``steal_when_idle``), so one slow replica cannot strand work
    behind itself.
    """

    name = "least_loaded"
    steal_when_idle = True

    def select(self, members: List, batch) -> object:
        return min(
            members, key=lambda m: (m.load, len(m.batches), m.replica_id)
        )


ROUTERS: Dict[str, Type[Router]] = {
    DeterministicRouter.name: DeterministicRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
}


def create_router(router: str | Router) -> Router:
    """Resolve a router spec: an instance passes through, a name constructs.

    Each queue gets its *own* router instance (routers carry per-queue
    state such as the round-robin counter).
    """
    if isinstance(router, Router):
        return router
    try:
        return ROUTERS[router]()
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown router {router!r}; available routers: "
            f"{', '.join(sorted(ROUTERS))} (or pass a Router instance)"
        ) from None
