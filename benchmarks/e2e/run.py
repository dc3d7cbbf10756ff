#!/usr/bin/env python3
"""End-to-end benchmark of the NN-LUT serving stack — see README.md here.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

    python3 benchmarks/e2e/run.py --selfcheck [--runs N] [--workload NAME ...]

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes ``out/NAME.trace.json``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--selfcheck`` runs the A/A comparison in ``selfcheck.py``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: One BLAS thread per process, set before numpy loads and inherited by the
#: spawned shard workers: two replicas plus a generator on two cores would
#: otherwise oversubscribe.  REPRO_KERNEL_THREADS stays at the program default.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def prepare_environment() -> None:
    """Pin BLAS threads, keep build products inside the checkout, find ``repro``."""
    os.environ.update(PINNED_ENV)
    os.environ.setdefault("REPRO_KERNEL_CACHE_DIR", str(OUT_DIR / "kernel_cache"))
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"repro sources not found under {source}")
    for path in (str(source), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Spawned workers import repro from a fresh interpreter.
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(source) + (os.pathsep + existing if existing else "")


def print_report(workload: str, args, result, units) -> None:
    print(f"workload {workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {os.cpu_count()}")
    for phase in result.phases:
        print("  phase " + "  ".join(f"{k}={v}" for k, v in phase.items()))
    for key, value in result.notes.items():
        print(f"  note  {key}: {value}")
    width = max(len(name) for name in result.metrics)
    for name, value in result.metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--selfcheck" in argv:
        import selfcheck

        argv.remove("--selfcheck")
        return selfcheck.main(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare_environment()
    import e2e_contract as contract
    import e2e_workloads as workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    benchmark = contract.load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    scale = workloads.FULL

    if args.trace:
        import e2e_layers as layers

        result = layers.run_traced(
            workload, scale, args.seed, args.seconds, OUT_DIR
        )
        units = contract.units(benchmark, "per_layer")
    else:
        result = workloads.run_timed(
            workload, scale, args.seed, args.seconds, PROCESS_START
        )
        units = contract.units(benchmark, "end_to_end")

    contract.check_names(result.metrics, units)
    print_report(workload.name, args, result, units)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
