"""Command-line front end: ``python -m repro.staticcheck [paths] ...``."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Baseline, Report, analyze, default_rules
from .gitdiff import GitDiffError, changed_lines

__all__ = ["main", "build_parser"]

DEFAULT_BASELINE_NAME = "staticcheck_baseline.json"

#: Exit-code contract (scripts/check.sh and CI rely on it):
#:   0 — gate clean (no non-baselined, non-suppressed findings)
#:   1 — at least one live finding (or a stale baseline entry)
#:   2 — usage / environment error (bad --diff ref, unreadable baseline)
EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=(
            "Invariant-aware static analysis: lock discipline, resource "
            "lifecycle, dtype discipline, parity-gate audit, blocking under "
            "a lock, control-message opcodes."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to analyse (default: src/ if it exists, else .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument(
        "--diff",
        metavar="GIT_REF",
        default=None,
        help=(
            "only report findings on lines/symbols changed since GIT_REF "
            "(facts are still built over everything scanned); stale-baseline "
            "checking is disabled in this mode"
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root anchoring relative paths/fingerprints (default: cwd)",
    )
    parser.add_argument(
        "--tests",
        type=Path,
        default=None,
        help="tests directory for the parity audit (default: <root>/tests if present)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current non-suppressed findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to keep (others are dropped from the report)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    root = (args.root or Path.cwd()).resolve()

    paths: List[Path] = [Path(p) for p in args.paths]
    if not paths:
        default = root / "src"
        paths = [default if default.is_dir() else root]

    tests_dir = args.tests
    if tests_dir is None:
        candidate = root / "tests"
        tests_dir = candidate if candidate.is_dir() else None

    baseline_path = args.baseline or (root / DEFAULT_BASELINE_NAME)
    baseline: Optional[Baseline] = None
    if not args.no_baseline:
        if baseline_path.is_file():
            baseline = Baseline.load(baseline_path)
        elif args.write_baseline:
            baseline = Baseline(path=baseline_path)

    diff_lines = None
    if args.diff is not None:
        try:
            diff_lines = changed_lines(args.diff, root)
        except GitDiffError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    report = analyze(
        paths,
        root=root,
        tests_dir=tests_dir,
        baseline=baseline,
        rules=default_rules(),
        changed_lines=diff_lines,
    )

    if args.rules:
        keep = {r.strip() for r in args.rules.split(",") if r.strip()}
        report = Report(
            findings=[f for f in report.findings if f.rule in keep],
            baselined=[f for f in report.baselined if f.rule in keep],
            suppressed=[f for f in report.suppressed if f.rule in keep],
            stale_baseline=report.stale_baseline,
        )

    if args.write_baseline:
        if baseline is None:
            baseline = Baseline(path=baseline_path)
        baseline.save(report.findings + report.baselined)
        print(
            f"wrote {len({f.fingerprint for f in report.findings + report.baselined})} "
            f"entries to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in report.findings],
                    "baselined": [f.to_dict() for f in report.baselined],
                    "suppressed": [f.to_dict() for f in report.suppressed],
                    "stale_baseline": report.stale_baseline,
                    "ok": report.ok,
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            print(
                f"{finding.location()}: {finding.severity}[{finding.rule}] "
                f"{finding.message}"
            )
        for fp in report.stale_baseline:
            print(f"stale baseline entry (no longer fires): {fp}", file=sys.stderr)
        summary = (
            f"{len(report.findings)} finding(s), "
            f"{len(report.baselined)} baselined, "
            f"{len(report.suppressed)} suppressed"
        )
        stream = sys.stderr if report.findings else sys.stdout
        print(summary, file=stream)

    return EXIT_CLEAN if report.ok else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
