"""Source collection, caching, and the two-phase analyze() driver.

Phase 1 (per file): parse, run the per-module rules, and extract the
:mod:`.facts` bundle.  Results are cached in-process by content hash —
repeated ``analyze()`` calls over an unchanged tree (the tier-1 suite runs
several) skip straight to phase 2.

Phase 2 (whole program, in the parent): link the module facts into one
:class:`~.facts.ProjectFacts` — class index with MRO, call graph, lock and
blocking summaries — and hand a :class:`RuleContext` to every project rule.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .facts import ModuleFacts, ProjectFacts, extract_module_facts, link
from .findings import Finding

__all__ = [
    "ModuleSource",
    "Baseline",
    "Report",
    "RuleContext",
    "analyze",
    "collect_sources",
    "default_rules",
]

_PRAGMA_RE = re.compile(r"#\s*staticcheck:\s*([a-z][a-z0-9-]*)\b")
_IGNORE_RE = re.compile(r"#\s*staticcheck:\s*ignore\[([^\]]+)\]")

#: Module-level declarations a pragma comment may carry.  ``ignore`` is
#: handled separately (it is positional, not module-wide).
MODULE_TAGS = frozenset({"hot-path", "pickle-boundary"})


@dataclass
class ModuleSource:
    """One parsed Python module plus its staticcheck annotations.

    ``tree`` is absent when the module came back from the phase-1 cache —
    per-module rules already ran against it there, and project rules
    consume :attr:`facts` instead.
    """

    path: Path  # absolute
    rel: str  # project-root-relative, posix separators
    text: str
    tree: Optional[ast.Module]
    tags: Set[str] = field(default_factory=set)
    #: line number -> set of rule ids suppressed there ("*" = all rules)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    facts: Optional[ModuleFacts] = None

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ModuleSource":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        tags: Set[str] = set()
        suppressions: Dict[int, Set[str]] = {}
        lines = text.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if "staticcheck" not in line:
                continue
            ignore = _IGNORE_RE.search(line)
            if ignore:
                rules = {r.strip() for r in ignore.group(1).split(",") if r.strip()}
                rules = rules or {"*"}
                suppressions.setdefault(lineno, set()).update(rules)
                # A comment-only line suppresses the statement below it; a
                # trailing comment only its own line.  Decorators are
                # transparent: an ignore above ``@decorator`` lines reaches
                # the ``def``/``class`` they decorate.
                if line.lstrip().startswith("#"):
                    target = lineno + 1
                    while target <= len(lines) and lines[target - 1].lstrip().startswith("@"):
                        suppressions.setdefault(target, set()).update(rules)
                        target += 1
                    suppressions.setdefault(target, set()).update(rules)
                continue
            for match in _PRAGMA_RE.finditer(line):
                tag = match.group(1)
                if tag in MODULE_TAGS:
                    tags.add(tag)
        rel = _rel_for(path, root)
        source = cls(
            path=path,
            rel=rel,
            text=text,
            tree=tree,
            tags=tags,
            suppressions=suppressions,
        )
        source.facts = extract_module_facts(rel, tree, tags)
        return source

    def is_suppressed(self, finding: Finding) -> bool:
        """True if an ``ignore[...]`` comment applies to the finding's line
        (a trailing comment on the same line, or a comment-only line
        directly above it) and names the rule or ``*``."""
        rules = self.suppressions.get(finding.line)
        return bool(rules) and ("*" in rules or finding.rule in rules)


def _rel_for(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class Baseline:
    """Grandfathered findings, keyed by line-independent fingerprint."""

    path: Optional[Path] = None
    #: fingerprint -> reason
    entries: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        entries: Dict[str, str] = {}
        for entry in data.get("entries", []):
            entries[entry["fingerprint"]] = entry.get("reason", "")
        return cls(path=path, entries=entries)

    def save(self, findings: Sequence[Finding], reasons: Optional[Dict[str, str]] = None) -> None:
        if self.path is None:
            raise ValueError("baseline has no backing path")
        reasons = reasons or {}
        entries = []
        for fp in sorted({f.fingerprint for f in findings}):
            reason = reasons.get(fp) or self.entries.get(fp) or "grandfathered (TODO: justify or fix)"
            entries.append({"fingerprint": fp, "reason": reason})
        payload = {
            "comment": (
                "Grandfathered staticcheck findings. Each entry must carry a reason; "
                "remove the entry when the finding is fixed. Refresh with "
                "`python -m repro.staticcheck src --write-baseline`."
            ),
            "version": 1,
            "entries": entries,
        }
        self.path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def matches(self, finding: Finding) -> bool:
        return finding.fingerprint in self.entries


@dataclass
class Report:
    """The outcome of one analysis run."""

    findings: List[Finding]  # new — these fail the gate
    baselined: List[Finding]
    suppressed: List[Finding]
    stale_baseline: List[str]  # baseline fingerprints that no longer fire
    facts: Optional[ProjectFacts] = None

    @property
    def ok(self) -> bool:
        # A stale baseline entry fails the gate too: the entry documents a
        # finding that no longer exists, so the baseline is lying about
        # the tree until it is pruned.
        return not self.findings and not self.stale_baseline


@dataclass
class RuleContext:
    """Everything a project-level rule may ask for.

    ``facts`` is the whole-program view (class index + MRO, call graph,
    lock/blocking summaries); ``sources`` carries per-file text and
    suppressions; ``tests_dir`` feeds the parity audit.
    """

    sources: List[ModuleSource]
    tests_dir: Optional[Path]
    facts: ProjectFacts


def default_rules() -> List[object]:
    """Instantiate one of each built-in rule (import deferred so the
    package can be introspected without pulling every rule in)."""
    from .rules import ALL_RULES

    return [cls() for cls in ALL_RULES]


_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules", ".venv", "venv"}


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    seen: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if any(part in _SKIP_DIRS or part.startswith(".") for part in sub.parts):
                    continue
                sub = sub.resolve()
                if sub not in seen:
                    seen.add(sub)
                    files.append(sub)
        elif path.suffix == ".py":
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(resolved)
    return files


def collect_sources(paths: Sequence[Path], root: Path) -> List[ModuleSource]:
    return [ModuleSource.parse(path, root) for path in _collect_files(paths)]


# --------------------------------------------------------------------------- #
# Phase 1: parse + per-module rules + fact extraction (cached)
# --------------------------------------------------------------------------- #
#: (path, root, sha256, rule-key) -> (ModuleSource without tree, findings)
_PHASE1_CACHE: Dict[Tuple[str, str, str, str], Tuple[ModuleSource, List[Finding]]] = {}
_PHASE1_CACHE_MAX = 4096


def _module_rule_key(rules: Sequence[object]) -> str:
    return ",".join(
        sorted(type(r).__name__ for r in rules if hasattr(r, "check_module"))
    )


def _run_phase1(path: Path, root: Path, rules: Sequence[object]) -> Tuple[ModuleSource, List[Finding]]:
    """Parse one file, run per-module rules, drop the tree."""
    source = ModuleSource.parse(path, root)
    findings: List[Finding] = []
    for rule in rules:
        check_module = getattr(rule, "check_module", None)
        if check_module is not None:
            findings.extend(check_module(source))
    source.tree = None  # cache-friendly; phase 2 uses facts
    return source, findings


def _load_modules(
    files: Sequence[Path],
    root: Path,
    rules: Sequence[object],
) -> Tuple[List[ModuleSource], List[Finding]]:
    rule_key = _module_rule_key(rules)
    sources: List[ModuleSource] = []
    findings: List[Finding] = []
    if len(_PHASE1_CACHE) > _PHASE1_CACHE_MAX:
        _PHASE1_CACHE.clear()
    for path in files:
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        key = (str(path), str(root.resolve()), sha, rule_key)
        if key not in _PHASE1_CACHE:
            _PHASE1_CACHE[key] = _run_phase1(path, root, rules)
        source, file_findings = _PHASE1_CACHE[key]
        sources.append(source)
        findings.extend(file_findings)
    return sources, findings


# --------------------------------------------------------------------------- #
# The driver
# --------------------------------------------------------------------------- #
def analyze(
    paths: Sequence[Path],
    *,
    root: Optional[Path] = None,
    tests_dir: Optional[Path] = None,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[object]] = None,
    changed_lines: Optional[Mapping[str, Set[int]]] = None,
) -> Report:
    """Run every rule over ``paths`` and split findings into
    new / baselined / suppressed.

    ``root`` anchors the relative paths used in fingerprints (defaults to
    the current directory).  ``tests_dir`` feeds the parity audit; when
    ``None`` the audit is skipped.  ``changed_lines`` (rel path -> line
    numbers) restricts *reported* findings to changed lines or functions
    containing them — the diff mode of the CLI; facts are still built over everything
    scanned, and staleness reporting is disabled because unchanged files'
    baseline entries legitimately do not fire.
    """
    root = (root or Path.cwd()).resolve()
    resolved_paths = [Path(p) for p in paths]
    if rules is None:
        rules = default_rules()

    files = _collect_files(resolved_paths)
    sources, raw = _load_modules(files, root, rules)
    facts = link(src.facts for src in sources if src.facts is not None)
    ctx = RuleContext(sources=sources, tests_dir=tests_dir, facts=facts)

    by_rel = {src.rel: src for src in sources}
    for rule in rules:
        check_project = getattr(rule, "check_project", None)
        if check_project is not None:
            raw.extend(check_project(ctx))

    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    findings: List[Finding] = []
    baselined: List[Finding] = []
    suppressed: List[Finding] = []
    fired: Set[str] = set()
    for finding in raw:
        src = by_rel.get(finding.path)
        if src is not None and src.is_suppressed(finding):
            suppressed.append(finding)
            continue
        if baseline is not None and baseline.matches(finding):
            fired.add(finding.fingerprint)
            baselined.append(finding)
            continue
        if changed_lines is not None and not _touches_changes(
            finding, changed_lines, facts
        ):
            continue
        findings.append(finding)

    stale: List[str] = []
    if baseline is not None and changed_lines is None:
        # Only report staleness for files that were actually scanned this
        # run — a partial scan must not claim repo-wide entries are stale.
        scanned = set(by_rel)
        for fp in sorted(baseline.entries):
            try:
                fp_path = fp.split("|", 2)[1]
            except IndexError:
                fp_path = ""
            if fp_path in scanned and fp not in fired:
                stale.append(fp)

    return Report(
        findings=findings,
        baselined=baselined,
        suppressed=suppressed,
        stale_baseline=stale,
        facts=facts,
    )


def _touches_changes(
    finding: Finding,
    changed_lines: Mapping[str, Set[int]],
    facts: ProjectFacts,
) -> bool:
    """Diff filter: the finding's line changed, or it sits inside a
    function/class whose span contains a changed line."""
    lines = changed_lines.get(finding.path)
    if not lines:
        return False
    if finding.line in lines:
        return True
    mod = facts.modules.get(finding.path)
    if mod is None:
        return False
    spans: List[Tuple[int, int]] = [
        (f.lineno, f.end_lineno)
        for f in mod.functions.values()
        if f.lineno <= finding.line <= f.end_lineno
    ]
    spans.extend(
        (c.lineno, c.end_lineno)
        for c in mod.classes.values()
        if c.lineno <= finding.line <= c.end_lineno
    )
    if not spans:
        return False
    # Innermost enclosing scope: the tightest span wins, so a one-line edit
    # elsewhere in a big class does not resurrect every finding in it.
    start, end = min(spans, key=lambda s: s[1] - s[0])
    return any(start <= line <= end for line in lines)
