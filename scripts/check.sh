#!/usr/bin/env bash
# One-stop pre-commit check: no tracked bytecode + invariant static analysis
# + lint + benchmark smoke.  Everything here also runs (or is gated) in tier-1; this script is
# the fast local loop.
#
#   ./scripts/check.sh                    # staticcheck + ruff (if installed) + bench smoke
#   ./scripts/check.sh --fast             # staticcheck + ruff only (skip the bench smoke)
#   ./scripts/check.sh --diff origin/main # limit staticcheck findings to lines/symbols
#                                         # changed since the ref (facts still whole-program)
#
# Exit-code contract (CI keys off this; see repro/staticcheck/cli.py):
#   0  everything passed
#   1  a .pyc file is tracked, staticcheck found a live finding or a stale
#      baseline entry, or a downstream check (lint, bench smoke) failed
#   2  staticcheck usage/environment error (e.g. a bad --diff ref)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

FAST=0
DIFF_REF=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --fast) FAST=1; shift ;;
        --diff) DIFF_REF="${2:?--diff needs a git ref}"; shift 2 ;;
        *) echo "unknown option: $1" >&2; exit 2 ;;
    esac
done

STATICCHECK_ARGS=(src)
if [[ -n "$DIFF_REF" ]]; then
    STATICCHECK_ARGS+=(--diff "$DIFF_REF")
fi

echo "== no tracked bytecode"
tracked_pyc="$(git ls-files '*.pyc')"
if [[ -n "$tracked_pyc" ]]; then
    echo "tracked .pyc files (git rm --cached them; .gitignore covers the rest):" >&2
    echo "$tracked_pyc" >&2
    exit 1
fi

echo "== staticcheck (locks/races, lock-order deadlocks, blocking-under-lock,"
echo "==             lifecycle, dtype, pickle boundary, spec/opcode drift, parity audit)"
python -m repro.staticcheck "${STATICCHECK_ARGS[@]}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (correctness rules from pyproject.toml)"
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable)"
fi

if [[ "$FAST" -ne 1 ]]; then
    echo "== benchmark smoke (tiny shapes, asserts the harness still runs end to end)"
    # -c, not a stdin heredoc: the sharded benchmarks spawn workers, and
    # multiprocessing's spawn re-runs __main__ by path — '<stdin>' is not a
    # path, so a heredoc main kills every worker at bootstrap.
    python -c '
from benchmarks.regression import run_engine_benchmark

report = run_engine_benchmark(mode="smoke")
rows = len(report.get("end_to_end", {})) + len(report.get("operators", {}))
assert rows > 0, "benchmark smoke produced no rows"
print(f"benchmark smoke ok ({rows} rows)")
'
fi

echo "== all checks passed"
