"""Built-in rule set.

Per-module rules implement ``check_module(source)``; whole-program rules
implement ``check_project(ctx)`` where ``ctx`` is a
:class:`~repro.staticcheck.engine.RuleContext` carrying the shared
:class:`~repro.staticcheck.facts.ProjectFacts` (class index + MRO, call
graph, lock/blocking summaries).  A rule may implement both.
"""

from .locks import LockDisciplineRule
from .lifecycle import ResourceLifecycleRule
from .dtypes import DtypeDisciplineRule
from .parity import ParityGateRule
from .blocking import BlockingUnderLockRule
from .opcodes import OpcodeAuditRule

ALL_RULES = (
    LockDisciplineRule,
    ResourceLifecycleRule,
    DtypeDisciplineRule,
    ParityGateRule,
    BlockingUnderLockRule,
    OpcodeAuditRule,
)

__all__ = [
    "ALL_RULES",
    "LockDisciplineRule",
    "ResourceLifecycleRule",
    "DtypeDisciplineRule",
    "ParityGateRule",
    "BlockingUnderLockRule",
    "OpcodeAuditRule",
]
