"""Lock-discipline / race checker.

Per class, infer the guard attributes (``self._lock = threading.Lock()``,
``self._work = threading.Condition(self._lock)`` — the Condition aliases
its underlying lock, so holding either holds both) and which instance
attributes the class protects with them: an attribute with at least one
*guarded* write outside ``__init__`` is considered lock-protected, and any
access to it from another method without the owning lock held is flagged
(``unguarded-attr``).

Heuristics that keep the rule honest on this codebase:

* ``__init__`` (and ``__del__``/``__post_init__``) are construction /
  teardown — single-threaded by contract, never flagged.
* A method that calls ``self.G.acquire(...)`` manages the guard manually
  (e.g. timed acquisition in ``_ShardClient.shutdown``); the static
  with-block analysis cannot follow it, so the whole method is exempt.
* Functions nested inside a method (thread targets, callbacks) start with
  no locks held — they typically run later, on another thread.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Set

from ..facts import GuardScan
from ..findings import Finding
from ._common import FunctionNode, call_name, iter_functions, self_attr

__all__ = ["LockDisciplineRule"]

_EXEMPT_METHODS = {"__init__", "__del__", "__post_init__", "__enter__", "__exit__"}


class _Access(NamedTuple):
    attr: str
    method: str
    held: FrozenSet[str]  # group representatives held at this point
    is_write: bool
    line: int
    col: int
    manual_sync: bool


class _ClassLocks:
    """Guard discovery for one class — a thin view over the shared
    :class:`~repro.staticcheck.facts.GuardScan` (the same discovery and
    Condition-alias grouping the whole-program facts use)."""

    def __init__(self, node: ast.ClassDef) -> None:
        scan = GuardScan(node)
        self.guards: Set[str] = set(scan.parent)
        self._groups: Dict[str, str] = scan.groups()

    def group(self, name: str) -> str:
        return self._groups.get(name, name)


class LockDisciplineRule:
    rule_ids = ("unguarded-attr",)

    def check_module(self, src) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(src, node))
        return findings

    # -- per class ---------------------------------------------------------

    def _check_class(self, src, node: ast.ClassDef) -> List[Finding]:
        locks = _ClassLocks(node)
        if not locks.guards:
            return []

        accesses: List[_Access] = []
        findings: List[Finding] = []

        for method_name, func in iter_functions(node):
            self._walk_block(
                method_name,
                func.body,
                held=frozenset(),
                locks=locks,
                accesses=accesses,
                manual_sync=self._manually_synchronized(func, locks),
            )

        # Which attributes does the class actually protect?  An attribute
        # counts as protected when some method other than __init__ writes it
        # with a guard held.
        owner_votes: Dict[str, Counter] = {}
        for acc in accesses:
            if acc.is_write and acc.held and acc.method not in _EXEMPT_METHODS:
                owner_votes.setdefault(acc.attr, Counter()).update(acc.held)

        for acc in accesses:
            votes = owner_votes.get(acc.attr)
            if not votes:
                continue
            if acc.method in _EXEMPT_METHODS or acc.manual_sync:
                continue
            owning = votes.most_common(1)[0][0]
            if owning in acc.held:
                continue
            kind = "write" if acc.is_write else "read"
            findings.append(
                Finding(
                    rule="unguarded-attr",
                    path=src.rel,
                    line=acc.line,
                    col=acc.col,
                    message=(
                        f"{kind} of self.{acc.attr} without holding the lock "
                        f"(self.{owning}) that guards its writes elsewhere in "
                        f"{node.name}"
                    ),
                    symbol=f"{node.name}.{acc.method}:{acc.attr}",
                )
            )
        return findings

    @staticmethod
    def _manually_synchronized(func: ast.AST, locks: _ClassLocks) -> bool:
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call):
                name = call_name(sub)
                if name is None:
                    continue
                parts = name.split(".")
                if (
                    len(parts) == 3
                    and parts[0] == "self"
                    and parts[1] in locks.guards
                    and parts[2] == "acquire"
                ):
                    return True
        return False

    # -- guarded-region walk ----------------------------------------------

    def _walk_block(
        self,
        method: str,
        stmts: List[ast.stmt],
        *,
        held: FrozenSet[str],
        locks: _ClassLocks,
        accesses: List[_Access],
        manual_sync: bool,
    ) -> None:
        for stmt in stmts:
            self._walk_stmt(
                method,
                stmt,
                held=held,
                locks=locks,
                accesses=accesses,
                manual_sync=manual_sync,
            )

    def _walk_stmt(
        self,
        method: str,
        stmt: ast.stmt,
        *,
        held: FrozenSet[str],
        locks: _ClassLocks,
        accesses: List[_Access],
        manual_sync: bool,
    ) -> None:
        kwargs = dict(held=held, locks=locks, accesses=accesses, manual_sync=manual_sync)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_held = set(held)
            for item in stmt.items:
                attr = self_attr(item.context_expr)
                if attr is not None and attr in locks.guards:
                    new_held.add(locks.group(attr))
                else:
                    self._scan_expr(method, item.context_expr, **kwargs)
            self._walk_block(method, stmt.body, **{**kwargs, "held": frozenset(new_held)})
            return
        if isinstance(stmt, FunctionNode):
            # Nested function: runs later, possibly on another thread —
            # analyse with nothing held, under a qualified scope name.
            self._walk_block(
                f"{method}.{stmt.name}", stmt.body, **{**kwargs, "held": frozenset()}
            )
            return

        # Generic statement: scan expressions, recurse into child blocks.
        for field_name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                is_store = field_name in ("target", "targets")
                self._scan_expr(method, value, is_write=is_store, **kwargs)
            elif isinstance(value, list):
                if value and isinstance(value[0], ast.stmt):
                    self._walk_block(method, value, **kwargs)
                elif field_name == "targets":
                    for tgt in value:
                        if isinstance(tgt, ast.expr):
                            self._scan_expr(method, tgt, is_write=True, **kwargs)
                else:
                    for item in value:
                        if isinstance(item, ast.expr):
                            self._scan_expr(method, item, **kwargs)
                        elif isinstance(item, ast.excepthandler):
                            self._walk_block(method, item.body, **kwargs)
                        elif isinstance(item, ast.withitem):  # pragma: no cover
                            self._scan_expr(method, item.context_expr, **kwargs)

    @staticmethod
    def _scan_expr(
        method: str,
        expr: ast.expr,
        *,
        held: FrozenSet[str],
        locks: _ClassLocks,
        accesses: List[_Access],
        manual_sync: bool,
        is_write: bool = False,
    ) -> None:
        for node in ast.walk(expr):
            attr = self_attr(node)
            if attr is None or attr in locks.guards:
                continue
            ctx_write = is_write and node is expr
            if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                ctx_write = True
            accesses.append(
                _Access(
                    attr=attr,
                    method=method,
                    held=held,
                    is_write=ctx_write,
                    line=node.lineno,
                    col=node.col_offset,
                    manual_sync=manual_sync,
                )
            )
