#!/usr/bin/env bash
# One-stop pre-commit check: no tracked bytecode + invariant static analysis
# + lint.  Everything here also runs (or is gated) in tier-1; this script is
# the fast local loop.
#
#   ./scripts/check.sh                    # staticcheck + ruff (if installed)
#   ./scripts/check.sh --diff origin/main # limit staticcheck findings to lines/symbols
#                                         # changed since the ref (facts still whole-program)
#
# Exit-code contract (CI keys off this; see repro/staticcheck/cli.py):
#   0  everything passed
#   1  a .pyc file is tracked, staticcheck found a live finding or a stale
#      baseline entry, or lint failed
#   2  staticcheck usage/environment error (e.g. a bad --diff ref)
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

DIFF_REF=""
while [[ $# -gt 0 ]]; do
    case "$1" in
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

echo "== staticcheck (locks/races, blocking-under-lock, lifecycle, dtype,"
echo "==             parity audit, control-message opcodes)"
python -m repro.staticcheck "${STATICCHECK_ARGS[@]}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (correctness rules from pyproject.toml)"
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable)"
fi

echo "== all checks passed"
