#!/usr/bin/env bash
# Execute every example script, by default in smoke mode (EXAMPLES_SMOKE=1:
# smaller models and task sizes, every code path still exercised).
#
#   ./scripts/run_examples.sh           # smoke mode (what tier-1 runs)
#   ./scripts/run_examples.sh --full    # full-size examples
#
# The tier-1 test run covers the same thing via tests/test_examples.py, so
# example drift fails the build.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" != "--full" ]]; then
    export EXAMPLES_SMOKE=1
fi

status=0
for example in examples/*.py; do
    [[ "$(basename "$example")" == "example_utils.py" ]] && continue
    echo "== ${example}"
    if ! python "$example"; then
        echo "** ${example} FAILED" >&2
        status=1
    fi
done
exit $status
