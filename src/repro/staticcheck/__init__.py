"""Invariant-aware static analysis of this repository's lock use.

Two rule families, each kept because it caught a real defect here:

* ``unguarded-attr`` — lock discipline (:mod:`.rules.locks`): attributes
  written under a class's lock must not be touched unguarded elsewhere.
* ``blocking-under-lock`` (:mod:`.rules.blocking`): no blocking op —
  direct or transitively reachable through calls — while a ``threading``
  lock is held, except a condition waiting on its own aliased lock.

The analysis is **whole-program**: phase 1 parses every file once and
builds shared project facts (:mod:`.facts`) — class index + MRO, call
graph (``self.m()`` / cross-module / subclass dispatch), per-function
blocking summaries — and phase 2 runs the per-module lock rule over each
file and the interprocedural blocking rule over the linked facts.

Float64 parity of every serving entry point, the worker wire protocol, the
compute dtype and shared-memory unlinking are checked by running the code
instead (``tests/api/test_parity.py``,
``test_sharding.py::TestWireProtocol``,
``test_session.py::TestComputeDtypeIsKept`` and the ``shm_ledger``
fixture).

Run it as ``python -m repro.staticcheck [paths] [--format text|json]
[--diff GIT_REF]``; suppress a single finding with
``# staticcheck: ignore[rule-id]  -- reason`` on (or directly above) the
offending line; grandfather legacy findings in ``staticcheck_baseline.json``
(one reason per entry; stale entries fail the gate).  The tier-1 smoke test
gates **zero non-baseline findings over src/**.
"""

from .findings import Finding
from .engine import (
    Baseline,
    ModuleSource,
    Report,
    analyze,
    collect_sources,
    default_rules,
)

__all__ = [
    "Finding",
    "Baseline",
    "ModuleSource",
    "Report",
    "analyze",
    "collect_sources",
    "default_rules",
]
