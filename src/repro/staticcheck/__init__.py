"""Invariant-aware static analysis for this repository.

The repo's value proposition is a set of *standing contracts* — bitwise
float64 parity across every serving shape, one shared-memory weight copy per
machine with unlink-on-all-paths, lock-guarded ``ServingQueue`` stats, and
a control protocol both sides of the ``ShardedPool`` worker boundary
speak.  Nothing about a missed ``with self._lock`` or a silent float64
upcast fails loudly at runtime; it surfaces (maybe) as a flaky test months
later.  This package encodes those contracts as dependency-free,
stdlib-``ast`` checkers so they are enforced *statically* on every run of
the tier-1 suite:

* ``unguarded-attr`` — lock discipline (:mod:`.rules.locks`): attributes
  written under a class's lock must not be touched unguarded elsewhere.
* ``resource-leak`` — resource lifecycle (:mod:`.rules.lifecycle`): every
  ``SharedMemory(...)``, ``mkstemp(...)``, ``open(...)`` or socket
  acquisition must reach its release on all paths (``finally``, an
  except-cleanup handler, ownership transfer, or a context manager).
* ``dtype-upcast`` — dtype discipline (:mod:`.rules.dtypes`): in modules
  declared hot-path (``# staticcheck: hot-path``), constructs that silently
  mint float64 (``np.zeros``/``np.empty``/... without ``dtype=``) are
  flagged, protecting the ``compute_dtype`` parity contract.
* ``parity-gap`` — parity-gate audit (:mod:`.rules.parity`): every public
  forward-shaped serving entry point must be named by a float64-parity test,
  attributed to the concrete leaf class (defined *and* inherited methods).

The analysis is **whole-program**: phase 1 parses every file once and
builds shared project facts (:mod:`.facts`) — class index + MRO, call
graph (``self.m()`` / cross-module / subclass dispatch), per-function
blocking summaries — and phase 2 runs per-module rules over each file
plus interprocedural rules over the linked facts:

* ``blocking-under-lock`` (:mod:`.rules.blocking`): no blocking op —
  direct or transitively reachable through calls — while a ``threading``
  lock is held, except a condition waiting on its own aliased lock.
* ``opcode-unhandled`` (:mod:`.rules.opcodes`): every control-message
  opcode sent across the worker boundary (modules declared
  ``# staticcheck: pickle-boundary``) must have a handler in that group.

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
