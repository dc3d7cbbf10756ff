"""Interprocedural lock rule (``blocking-under-lock``).

It rides on the whole-program facts (:mod:`..facts`): the locks held at
every call site, the blocking operations a function performs, and the call
graph that connects them.

``blocking-under-lock`` reports a blocking operation (``Connection.recv``/
``poll``, ``connection.wait``, ``Thread/Process.join``, ``Condition.wait``,
``queue.get``, ``subprocess`` waits, ``time.sleep``) executed — or
transitively reachable through calls — while a ``threading`` lock is held.
That is the exact shape of the recv-busy-wait and queue-hang bugs this
repo has fixed by hand before: every other thread needing the lock stalls
for as long as the blocked call takes, which may be forever.  The one
sanctioned idiom is exempt: ``self._cond.wait()`` while holding only the
lock *aliased by that condition* releases the lock as it sleeps.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..findings import Finding

__all__ = ["BlockingUnderLockRule", "short_token"]


def short_token(token: str) -> str:
    """Readable lock name: last two dotted components (``Class.attr``)."""
    return ".".join(token.split(".")[-2:])


def _scope_of(qualname: str, module_name: str) -> str:
    """Finding symbol scope: the qualname without its module prefix."""
    prefix = f"{module_name}."
    return qualname[len(prefix):] if qualname.startswith(prefix) else qualname


def _modname(facts, func) -> str:
    mod = facts.modules.get(func.module)
    return mod.modname if mod is not None else ""


class BlockingUnderLockRule:
    rule_ids = ("blocking-under-lock",)

    def check_project(self, ctx) -> Iterable[Finding]:
        facts = ctx.facts
        trans = facts.transitive_blocking()
        findings: List[Finding] = []
        for func in facts.functions.values():
            modname = _modname(facts, func)
            scope = _scope_of(func.qualname, modname)
            # Blocking ops performed directly under a lock.
            for op in func.blocking:
                offending = _offending(op.held, op.exempt_token)
                if offending:
                    findings.append(
                        self._finding(
                            func, op.line, op.col, scope,
                            target=op.label,
                            labels=[op.label],
                            locks=offending,
                        )
                    )
            # Blocking ops reachable through a call made under a lock.
            for call in func.calls:
                if not call.held:
                    continue
                labels: Set[str] = set()
                locks: Set[str] = set()
                for target in facts.resolve_call(func, call.name):
                    for label, exempt in trans.get(target, ()):
                        offending = _offending(call.held, exempt)
                        if offending:
                            labels.add(label)
                            locks.update(offending)
                if labels:
                    findings.append(
                        self._finding(
                            func, call.line, call.col, scope,
                            target=call.name.rsplit(".", 1)[-1],
                            labels=sorted(labels),
                            locks=locks,
                        )
                    )
        return findings

    @staticmethod
    def _finding(func, line, col, scope, *, target, labels, locks) -> Finding:
        lock_names = ", ".join(sorted(short_token(t) for t in locks))
        return Finding(
            rule="blocking-under-lock",
            path=func.module,
            line=line,
            col=col,
            message=(
                f"{', '.join(labels)} may block while {lock_names} is held "
                f"(via {target}); every thread contending for the lock stalls "
                "until it returns"
            ),
            symbol=f"{scope}:{target}",
        )


def _offending(held, exempt: Optional[str]) -> Set[str]:
    offending = set(held)
    if exempt is not None:
        offending.discard(exempt)
    return offending
