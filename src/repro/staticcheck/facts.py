"""Whole-program project facts: the shared substrate phase-2 rules run on.

Phase 1 of the analyzer parses every module once and distills it into a
picklable :class:`ModuleFacts` bundle — classes (bases, methods, lock
guards), per-function summaries (locks held at each call site, blocking
operations), imports, and control-message opcodes.  :func:`link` merges the
per-module bundles into one :class:`ProjectFacts` with the cross-module
structure resolved: an MRO per class, a subclass map, and a call graph that
resolves ``self.method(...)`` (through the MRO *and* down to project
subclasses), ``module.func(...)`` and ``Class.method(...)`` targets.

On top of the call graph, :meth:`ProjectFacts.transitive_blocking`
computes every blocking operation (``recv``/``join``/``Condition.wait``/
``queue.get``/``subprocess`` waits / ``time.sleep``) reachable from a
function, the bounded fixpoint ``blocking-under-lock`` consumes.  It only
ever grows finite sets, so it terminates; an iteration cap bounds
pathological recursion.  Everything here is plain dataclasses with no AST
nodes, so the phase-1 cache keeps the facts and drops the parsed trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .astutil import FunctionNode, call_name, dotted_name, self_attr

__all__ = [
    "BlockingOp",
    "CallSite",
    "ClassFacts",
    "FunctionFacts",
    "GuardScan",
    "ModuleFacts",
    "ProjectFacts",
    "extract_module_facts",
    "link",
]

#: Constructors whose result guards shared state.  ``Condition(lock)``
#: aliases the lock it wraps — holding either holds both.
GUARD_CTORS = frozenset({"Lock", "RLock", "Condition"})

#: Iteration cap for the interprocedural fixpoint (recursion guard; the
#: sets are finite and monotone so real code converges in a handful).
FIXPOINT_CAP = 50

# --------------------------------------------------------------------------- #
# Picklable fact records
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CallSite:
    """One call expression, with the locks held when it runs."""

    name: str  # raw dotted callee ("self._recv", "mod.func", "fn")
    held: FrozenSet[str]
    line: int
    col: int


@dataclass(frozen=True)
class BlockingOp:
    """One potentially-blocking operation performed directly by a function.

    ``exempt_token`` carries the lock aliased by a ``self.<cond>.wait()``:
    waiting on a condition *releases* that lock, so holding it alone is the
    correct idiom, not a blocking-under-lock defect.
    """

    label: str  # human-readable operation ("Connection.recv", "time.sleep")
    held: FrozenSet[str]
    line: int
    col: int
    exempt_token: Optional[str] = None


@dataclass
class FunctionFacts:
    """Summary of one function or method body."""

    qualname: str  # "mod.Class.method", "mod.func", "mod.Class.m.inner"
    module: str  # project-relative path
    cls: Optional[str]  # owning class qualname ("mod.Class"), if a method
    name: str
    lineno: int
    end_lineno: int
    calls: List[CallSite] = field(default_factory=list)
    blocking: List[BlockingOp] = field(default_factory=list)


@dataclass
class ClassFacts:
    name: str
    module: str  # project-relative path
    modname: str  # dotted module name
    qualname: str  # "modname.ClassName"
    lineno: int
    end_lineno: int
    public: bool
    bases: List[str] = field(default_factory=list)  # raw dotted base names
    #: method name -> qualname of the defining FunctionFacts (this class only)
    methods: Dict[str, str] = field(default_factory=dict)
    #: guard attr -> union-find representative within this class
    guard_groups: Dict[str, str] = field(default_factory=dict)
    cond_guards: Set[str] = field(default_factory=set)


@dataclass
class ModuleFacts:
    """Everything phase 2 needs to know about one module.

    Lock tokens are canonical strings: ``modname.Class.attr`` for an
    instance guard (attributed to the class that *constructs* it, so every
    subclass's uses converge on one identity) and ``modname.name`` for a
    module-level guard.
    """

    rel: str
    modname: str
    tags: Set[str] = field(default_factory=set)
    #: local alias -> dotted module name (``import x.y as z``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> (dotted module, attr) (``from m import a as b``)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    classes: Dict[str, ClassFacts] = field(default_factory=dict)  # by name
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)  # by qualname
    module_guards: Set[str] = field(default_factory=set)  # tokens
    #: opcode string -> first (line, col) it is sent from (``.send("op", ...)``
    #: / ``._call("op", ...)`` with a constant first argument)
    sent_ops: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: string constants this module compares against (``op == "close"`` …)
    handled_ops: Set[str] = field(default_factory=set)


# --------------------------------------------------------------------------- #
# Extraction (phase 1, per module, parallel-safe)
# --------------------------------------------------------------------------- #
def module_name_for(rel: str) -> str:
    """Dotted module name for a project-relative path (`src/` stripped)."""
    parts = rel.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class GuardScan:
    """Per-class guard discovery with Condition/lock union-find aliasing."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.parent: Dict[str, str] = {}
        self.cond_guards: Set[str] = set()
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
                continue
            ctor = call_name(stmt.value)
            if ctor is None:
                continue
            leaf = ctor.rsplit(".", 1)[-1]
            if leaf not in GUARD_CTORS:
                continue
            for target in stmt.targets:
                attr = self_attr(target)
                if attr is None:
                    continue
                self.parent.setdefault(attr, attr)
                if leaf == "Condition":
                    self.cond_guards.add(attr)
                    if stmt.value.args:
                        inner = self_attr(stmt.value.args[0])
                        if inner is not None:
                            self.parent.setdefault(inner, inner)
                            self._union(attr, inner)

    def _find(self, name: str) -> str:
        root = name
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> Dict[str, str]:
        return {name: self._find(name) for name in self.parent}


_BLOCKING_LAST = {
    "recv": "Connection.recv",
    "recv_bytes": "Connection.recv",
    "communicate": "subprocess communicate",
}

_BLOCKING_FULL = {
    "time.sleep": "time.sleep",
    "subprocess.run": "subprocess.run",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "connection.wait": "connection.wait",
    "mp_connection.wait": "connection.wait",
}

_TIMEOUT_HINTS = ("time", "deadline", "remaining", "wait", "sec")


def _looks_like_timeout(arg: ast.expr) -> bool:
    if isinstance(arg, ast.Constant):
        return isinstance(arg.value, (int, float)) and not isinstance(arg.value, bool)
    if isinstance(arg, ast.Name):
        return any(hint in arg.id.lower() for hint in _TIMEOUT_HINTS)
    return isinstance(arg, (ast.BinOp, ast.Call, ast.Attribute))


def _classify_blocking(call: ast.Call, name: str) -> Optional[str]:
    """Blocking-op label for a call, or None.  Heuristic but deliberate:

    * ``*.recv`` / ``*.recv_bytes`` / ``*.communicate`` always block;
    * ``time.sleep`` / ``subprocess.run|check_*`` / ``connection.wait`` by
      full dotted name;
    * ``*.join`` only with no args or a single timeout-looking arg (keeps
      ``"sep".join(items)`` / ``os.path.join(a, b)`` out);
    * ``*.wait`` with at most a timeout arg (Condition/Event/Connection);
    * ``*.get`` only with zero positional args — ``dict.get(key)`` always
      passes the key positionally, ``queue.get()`` never does.
    """
    if name in _BLOCKING_FULL:
        return _BLOCKING_FULL[name]
    head, _, last = name.rpartition(".")
    if not head or head.startswith("os.path"):
        return None
    if last in _BLOCKING_LAST:
        return _BLOCKING_LAST[last]
    if last == "get":
        return "queue.get" if not call.args else None
    if last == "poll":
        # poll(0) / poll() are non-blocking probes; poll(timeout) waits.
        if call.args and _looks_like_timeout(call.args[0]) and not (
            isinstance(call.args[0], ast.Constant) and not call.args[0].value
        ):
            return "Connection.poll"
        return None
    if last not in ("join", "wait"):
        return None
    # join / wait: at most one positional arg, and it must look like a timeout
    if len(call.args) > 1:
        return None
    if call.args and not _looks_like_timeout(call.args[0]):
        return None
    return f"{name}()"


class _FunctionWalker:
    """Walks one function body tracking the held-lock set."""

    def __init__(
        self,
        facts: FunctionFacts,
        guard_token,  # (attr) -> token or None, for self.<attr>
        module_token,  # (name) -> token or None, for bare names
        cond_guards: Set[str],
        sink: Dict[str, FunctionFacts],
    ) -> None:
        self.facts = facts
        self.guard_token = guard_token
        self.module_token = module_token
        self.cond_guards = cond_guards
        self.sink = sink

    def walk(self, body: Sequence[ast.stmt], held: FrozenSet[str]) -> None:
        for stmt in body:
            self._stmt(stmt, held)

    def _lock_token(self, expr: ast.expr) -> Optional[str]:
        attr = self_attr(expr)
        if attr is not None:
            return self.guard_token(attr)
        if isinstance(expr, ast.Name):
            return self.module_token(expr.id)
        return None

    def _stmt(self, stmt: ast.stmt, held: FrozenSet[str]) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_held = set(held)
            for item in stmt.items:
                token = self._lock_token(item.context_expr)
                if token is not None:
                    new_held.add(token)
                else:
                    self._expr(item.context_expr, held)
            self.walk(stmt.body, frozenset(new_held))
            return
        if isinstance(stmt, FunctionNode):
            # Nested function: runs later, possibly on another thread —
            # summarised separately, starting with nothing held.
            nested = FunctionFacts(
                qualname=f"{self.facts.qualname}.{stmt.name}",
                module=self.facts.module,
                cls=self.facts.cls,
                name=stmt.name,
                lineno=stmt.lineno,
                end_lineno=stmt.end_lineno or stmt.lineno,
            )
            self.sink[nested.qualname] = nested
            _FunctionWalker(
                nested, self.guard_token, self.module_token, self.cond_guards, self.sink
            ).walk(stmt.body, frozenset())
            return
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.expr):
                self._expr(value, held)
            elif isinstance(value, ast.stmt):
                self._stmt(value, held)
            elif isinstance(value, (ast.excepthandler, ast.match_case)):
                for sub in ast.iter_child_nodes(value):
                    if isinstance(sub, ast.stmt):
                        self._stmt(sub, held)
                    elif isinstance(sub, ast.expr):
                        self._expr(sub, held)

    def _expr(self, expr: ast.expr, held: FrozenSet[str]) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            self._call(node, name, held)

    def _call(self, node: ast.Call, name: str, held: FrozenSet[str]) -> None:
        parts = name.split(".")
        label = _classify_blocking(node, name)
        if label is not None:
            exempt = None
            if parts[-1] == "wait" and parts[0] == "self" and len(parts) == 3:
                if parts[1] in self.cond_guards:
                    exempt = self.guard_token(parts[1])
            self.facts.blocking.append(
                BlockingOp(
                    label=label,
                    held=held,
                    line=node.lineno,
                    col=node.col_offset,
                    exempt_token=exempt,
                )
            )
            return
        self.facts.calls.append(
            CallSite(name=name, held=held, line=node.lineno, col=node.col_offset)
        )


def extract_module_facts(rel: str, tree: ast.Module, tags: Set[str]) -> ModuleFacts:
    """Distill one parsed module into its picklable fact bundle."""
    modname = module_name_for(rel)
    facts = ModuleFacts(rel=rel, modname=modname, tags=set(tags))

    # Imports -----------------------------------------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                facts.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = modname.split(".")
                # level 1 = current package, 2 = its parent, ...
                anchor = anchor[: len(anchor) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                facts.from_imports[alias.asname or alias.name] = (base, alias.name)

    # Control-message opcodes (pickle-boundary protocol audit) -----------
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = call_name(node)
            leaf = (name or "").rsplit(".", 1)[-1]
            if (
                leaf in ("send", "_call")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                facts.sent_ops.setdefault(
                    node.args[0].value, (node.lineno, node.col_offset)
                )
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                for side in (node.left, *node.comparators):
                    if isinstance(side, ast.Constant) and isinstance(side.value, str):
                        facts.handled_ops.add(side.value)
                    elif isinstance(side, (ast.Set, ast.Tuple, ast.List)):
                        for elt in side.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                facts.handled_ops.add(elt.value)

    # Module-level guards ------------------------------------------------
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            ctor = call_name(stmt.value)
            if ctor and ctor.rsplit(".", 1)[-1] in GUARD_CTORS:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        facts.module_guards.add(f"{modname}.{target.id}")

    def module_token(name: str) -> Optional[str]:
        token = f"{modname}.{name}"
        return token if token in facts.module_guards else None

    def add_function(node, qualname: str, cls: Optional[ClassFacts]) -> None:
        summary = FunctionFacts(
            qualname=qualname,
            module=rel,
            cls=cls.qualname if cls else None,
            name=node.name,
            lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
        )
        facts.functions[qualname] = summary
        if cls is not None:

            def guard_token(attr: str, _cls=cls) -> Optional[str]:
                rep = _cls.guard_groups.get(attr)
                return f"{_cls.qualname}.{rep}" if rep else None

            cond = cls.cond_guards
        else:

            def guard_token(attr: str) -> Optional[str]:
                return None

            cond = set()
        _FunctionWalker(summary, guard_token, module_token, cond, facts.functions).walk(
            node.body, frozenset()
        )

    for node in tree.body:
        if isinstance(node, FunctionNode):
            add_function(node, f"{modname}.{node.name}", None)
        elif isinstance(node, ast.ClassDef):
            scan = GuardScan(node)
            cls = ClassFacts(
                name=node.name,
                module=rel,
                modname=modname,
                qualname=f"{modname}.{node.name}",
                lineno=node.lineno,
                end_lineno=node.end_lineno or node.lineno,
                public=not node.name.startswith("_"),
                bases=[b for b in (dotted_name(base) for base in node.bases) if b],
                guard_groups=scan.groups(),
                cond_guards=scan.cond_guards,
            )
            for stmt in node.body:
                if not isinstance(stmt, FunctionNode):
                    continue
                qualname = f"{cls.qualname}.{stmt.name}"
                cls.methods[stmt.name] = qualname
                add_function(stmt, qualname, cls)
            facts.classes[node.name] = cls
    return facts


# --------------------------------------------------------------------------- #
# Linking (phase 1.5, in the parent process)
# --------------------------------------------------------------------------- #
class ProjectFacts:
    """Merged, cross-module view over every :class:`ModuleFacts`."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {m.rel: m for m in modules}
        self.by_modname: Dict[str, ModuleFacts] = {
            m.modname: m for m in self.modules.values()
        }
        self.classes: Dict[str, ClassFacts] = {}
        self.functions: Dict[str, FunctionFacts] = {}
        for mod in self.modules.values():
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
            self.functions.update(mod.functions)
        self._resolved_bases: Dict[str, List[str]] = {}
        self.subclasses: Dict[str, Set[str]] = {}
        for cls in self.classes.values():
            bases = []
            mod = self.modules[cls.module]
            for raw in cls.bases:
                target = self._resolve_class_name(mod, raw)
                if target is not None:
                    bases.append(target)
                    self.subclasses.setdefault(target, set()).add(cls.qualname)
            self._resolved_bases[cls.qualname] = bases
        self._mro_cache: Dict[str, List[str]] = {}
        self._call_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._trans_blocking: Optional[Dict[str, FrozenSet[Tuple[str, Optional[str]]]]] = None

    # -- class structure -------------------------------------------------
    def _resolve_class_name(self, mod: ModuleFacts, raw: str) -> Optional[str]:
        head, _, rest = raw.partition(".")
        if not rest:
            if head in mod.classes:
                return mod.classes[head].qualname
            if head in mod.from_imports:
                source, attr = mod.from_imports[head]
                target = self.by_modname.get(source)
                if target and attr in target.classes:
                    return target.classes[attr].qualname
            return None
        if head in mod.imports:
            target = self.by_modname.get(mod.imports[head])
            if target and rest in target.classes:
                return target.classes[rest].qualname
        return None

    def mro(self, qualname: str) -> List[str]:
        """Project-internal linearisation (DFS, left-to-right, deduped)."""
        cached = self._mro_cache.get(qualname)
        if cached is not None:
            return cached
        order: List[str] = []
        seen: Set[str] = set()
        stack = [qualname]
        steps = 0
        while stack and steps < 100:
            steps += 1
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            order.append(current)
            stack = self._resolved_bases.get(current, []) + stack
        self._mro_cache[qualname] = order
        return order

    def all_subclasses(self, qualname: str) -> Set[str]:
        out: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            for sub in self.subclasses.get(current, ()):
                if sub not in out:
                    out.add(sub)
                    stack.append(sub)
        return out

    def find_method(self, cls_qualname: str, method: str) -> Optional[str]:
        """Qualname of the FunctionFacts ``cls.method`` resolves to (MRO)."""
        for candidate in self.mro(cls_qualname):
            target = self.classes[candidate].methods.get(method)
            if target is not None:
                return target
        return None

    def class_guard_token(self, cls_qualname: str, attr: str) -> Optional[str]:
        """Canonical token for ``self.<attr>`` on a class, searching the MRO
        so subclass uses converge on the defining class's identity."""
        for candidate in self.mro(cls_qualname):
            rep = self.classes[candidate].guard_groups.get(attr)
            if rep is not None:
                return f"{candidate}.{rep}"
        return None

    # -- call graph -------------------------------------------------------
    def resolve_call(self, caller: FunctionFacts, raw: str) -> Tuple[str, ...]:
        """Project-internal targets a raw callee name may dispatch to."""
        key = (caller.qualname, raw)
        cached = self._call_cache.get(key)
        if cached is not None:
            return cached
        targets = tuple(sorted(self._resolve_call(caller, raw)))
        self._call_cache[key] = targets
        return targets

    def _resolve_call(self, caller: FunctionFacts, raw: str) -> Set[str]:
        mod = self.modules.get(caller.module)
        if mod is None:
            return set()
        parts = raw.split(".")
        out: Set[str] = set()
        if parts[0] in ("self", "cls") and len(parts) == 2 and caller.cls:
            method = parts[1]
            primary = self.find_method(caller.cls, method)
            if primary is not None:
                out.add(primary)
            # Class-hierarchy dispatch: a subclass override may be the one
            # that actually runs.
            for sub in self.all_subclasses(caller.cls):
                override = self.classes[sub].methods.get(method)
                if override is not None:
                    out.add(override)
            return out
        if len(parts) == 1:
            name = parts[0]
            qualname = f"{mod.modname}.{name}"
            if qualname in self.functions:
                out.add(qualname)
            elif name in mod.classes:
                init = self.find_method(mod.classes[name].qualname, "__init__")
                if init:
                    out.add(init)
            elif name in mod.from_imports:
                source, attr = mod.from_imports[name]
                target_mod = self.by_modname.get(source)
                if target_mod is not None:
                    imported = f"{source}.{attr}"
                    if imported in self.functions:
                        out.add(imported)
                    elif attr in target_mod.classes:
                        init = self.find_method(imported, "__init__")
                        if init:
                            out.add(init)
            return out
        if len(parts) == 2:
            head, leaf = parts
            # module alias: mod.func(...)
            if head in mod.imports:
                target_mod = self.by_modname.get(mod.imports[head])
                if target_mod is not None:
                    qualname = f"{target_mod.modname}.{leaf}"
                    if qualname in self.functions:
                        out.add(qualname)
                    elif leaf in target_mod.classes:
                        init = self.find_method(qualname, "__init__")
                        if init:
                            out.add(init)
                return out
            # Class.method(...) on a class visible in this module
            cls_qual = self._resolve_class_name(mod, head)
            if cls_qual is not None:
                target = self.find_method(cls_qual, leaf)
                if target is not None:
                    out.add(target)
            return out
        if len(parts) == 3 and parts[0] in mod.imports:
            # pkgalias.Class.method(...)
            target_mod = self.by_modname.get(mod.imports[parts[0]])
            if target_mod and parts[1] in target_mod.classes:
                target = self.find_method(
                    target_mod.classes[parts[1]].qualname, parts[2]
                )
                if target is not None:
                    out.add(target)
        return out

    # -- interprocedural fixpoint ----------------------------------------
    def transitive_blocking(
        self,
    ) -> Dict[str, FrozenSet[Tuple[str, Optional[str]]]]:
        """(label, exempt_token) pairs reachable from each function."""
        if self._trans_blocking is not None:
            return self._trans_blocking
        state: Dict[str, Set[Tuple[str, Optional[str]]]] = {
            q: {(b.label, b.exempt_token) for b in f.blocking}
            for q, f in self.functions.items()
        }
        for _ in range(FIXPOINT_CAP):
            changed = False
            for qualname, func in self.functions.items():
                acc = state[qualname]
                before = len(acc)
                for call in func.calls:
                    for target in self.resolve_call(func, call.name):
                        acc.update(state[target])
                if len(acc) != before:
                    changed = True
            if not changed:
                break
        self._trans_blocking = {q: frozenset(s) for q, s in state.items()}
        return self._trans_blocking


def link(modules: Iterable[ModuleFacts]) -> ProjectFacts:
    """Merge per-module fact bundles into one cross-module view."""
    return ProjectFacts(modules)
