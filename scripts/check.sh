#!/usr/bin/env bash
# One-stop pre-commit check: no tracked bytecode + lint.  The repository's
# invariants (lock discipline, blocking calls under a lock, parity, dtypes,
# wire protocol, shared-memory hygiene) are runtime tests in tier-1 — see
# README "Runtime invariant tests & sanitizers"; this script is the fast
# local loop for what those tests do not cover.
#
#   ./scripts/check.sh    # bytecode check + ruff (if installed)
#
# Exit-code contract (CI keys off this): 0 everything passed, 1 a .pyc file
# is tracked or lint failed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no tracked bytecode"
tracked_pyc="$(git ls-files '*.pyc')"
if [[ -n "$tracked_pyc" ]]; then
    echo "tracked .pyc files (git rm --cached them; .gitignore covers the rest):" >&2
    echo "$tracked_pyc" >&2
    exit 1
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (correctness rules from pyproject.toml)"
    ruff check src tests benchmarks
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable)"
fi

echo "== all checks passed"
