"""Built-in rule set.

Per-module rules implement ``check_module(source)``; whole-program rules
implement ``check_project(ctx)`` where ``ctx`` is a
:class:`~repro.staticcheck.engine.RuleContext` carrying the shared
:class:`~repro.staticcheck.facts.ProjectFacts` (class index + MRO, call
graph, lock/blocking summaries).
"""

from .locks import LockDisciplineRule
from .blocking import BlockingUnderLockRule

ALL_RULES = (LockDisciplineRule, BlockingUnderLockRule)

__all__ = ["ALL_RULES", "LockDisciplineRule", "BlockingUnderLockRule"]
