"""Control-message audit (``opcode-unhandled``).

The worker transports ship control messages across the process boundary,
and the two halves of that protocol live in different functions — often
different modules — so nothing at runtime checks they agree until a
worker hangs on an unanswered message.

``opcode-unhandled`` audits the pickle-boundary module group (everything
tagged ``# staticcheck: pickle-boundary``): every opcode string constant
sent with ``.send("op", ...)`` / ``._call("op", ...)`` must be compared
against (handled) somewhere in the group.  Deleting a handler branch from
``_worker_main`` fails here.
"""

from __future__ import annotations

from typing import Iterable, List, Set

from ..facts import ProjectFacts
from ..findings import Finding

__all__ = ["OpcodeAuditRule"]


class OpcodeAuditRule:
    rule_ids = ("opcode-unhandled",)

    def check_project(self, ctx) -> Iterable[Finding]:
        facts: ProjectFacts = ctx.facts
        group = [
            mod for mod in facts.modules.values() if "pickle-boundary" in mod.tags
        ]
        if not group:
            return []
        handled: Set[str] = set()
        for mod in group:
            handled.update(mod.handled_ops)
        findings: List[Finding] = []
        for mod in sorted(group, key=lambda m: m.rel):
            for op, (line, col) in sorted(mod.sent_ops.items()):
                if op in handled:
                    continue
                findings.append(
                    Finding(
                        rule="opcode-unhandled",
                        path=mod.rel,
                        line=line,
                        col=col,
                        message=(
                            f"control message {op!r} is sent across the worker "
                            "boundary but no pickle-boundary module compares "
                            "against it — the other side cannot handle it"
                        ),
                        symbol=f"op:{op}",
                    )
                )
        return findings
