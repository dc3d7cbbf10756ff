#!/usr/bin/env bash
# One-shot ComputeKernel parity check: prints a compact table comparing the
# compiled NativeKernel against the NumpyKernel reference across int8/fp32 —
# per-op kernels plus an end-to-end encoder forward/pooled pass — and exits
# non-zero on any mismatch (the contract is bitwise, not approximate).
# The timing rows after the table run BLAS on one thread unless
# OPENBLAS_NUM_THREADS says otherwise — the setting benchmarks/e2e/run.py
# pins, so the fp32 projection rows compare with its figures.
#
#   ./scripts/check_kernel_parity.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS:-1}"
exec python benchmarks/kernel_parity.py "$@"
