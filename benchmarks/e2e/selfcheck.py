#!/usr/bin/env python3
"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 benchmarks/e2e/selfcheck.py [--runs 3] [--workload NAME ...]

Runs every workload ``--runs`` times (seeds 1..N) as set A, then again as
set B, exactly as ``BENCHMARK.json`` says to run it.  For each end-to-end
metric it reports the per-run values, each set's median and quartiles, the
spread (quartile distance over median), the range (max - min over median) and
how far set B's median is *worse* than set A's.  The table goes to ``AA.json``
here.  It exits non-zero when, on any workload,

* set B's median is worse than set A's by more than the metric's bound;
* a spread exceeds the bound (``setup_s`` excepted, as the driver excepts it);
* the declared bound is below what the evidence asks for, which is
  ``max(FLOORS[metric], 2 x the largest A/A difference seen)``;
* a timing metric's single runs range over more than ``DEMOTE_RANGE``: such a
  metric does not repeat well enough to gate on and is to be *demoted* to a
  per-layer name.  ``setup_s`` is exempt: the contract requires it, and it
  carries the widest bound instead.  The rule was written for the default two
  sets of three; over ``--runs 10`` it looks at twenty runs and is stricter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: the smallest bound worth setting per metric, from the issue that defined
#: the benchmark; evidence can only widen it.
FLOORS = {
    "setup_s": 0.20,
    "tokens_per_s": 0.10,
    "slo_attainment": 0.02,
    "cpu_s_per_ktok": 0.10,
    "peak_rss_mb": 0.05,
    "output_rel_l2_err": 1e-6,
}
#: the contract's cap on a bound; a metric that needs more is demoted.
BOUND_CAP = 0.25
#: a timing metric is shipped as a gate only if its single runs stay this close.
DEMOTE_RANGE = 0.10
TIMING_UNITS = ("s", "ms", "tok/s", "s/ktok")


def run_once(benchmark, workload: str, seed: int) -> dict:
    command = [
        *benchmark["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    # The timings as the clock read them, before the machine-speed scaling.
    result["raw"] = {
        note.split()[1][len("raw_"):-1]: float(note.split()[2])
        for note in lines if note.startswith("  note  raw_")
    }
    return result


def summarise(values) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": quartiles[0],
        "q3": quartiles[2],
        "spread": (quartiles[2] - quartiles[0]) / median if median else 0.0,
    }


def relative_range(values) -> float:
    """max - min over the median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def compare(metric: dict, runs_a, runs_b) -> dict:
    """One metric on one workload: both sets, their difference, the verdicts."""
    key, bound = metric["name"], metric["bound"]
    a = summarise([r["metrics"][key]["value"] for r in runs_a])
    b = summarise([r["metrics"][key]["value"] for r in runs_b])
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    single_run_range = relative_range(a["values"] + b["values"])
    spread = max(a["spread"], b["spread"])
    faults = []
    if worse > bound:
        faults.append("B worse than A by more than the bound")
    if key != "setup_s" and spread > bound:
        faults.append("spread above the bound")
    if (key != "setup_s" and metric["unit"] in TIMING_UNITS
            and single_run_range > DEMOTE_RANGE):
        faults.append(f"single runs range over {single_run_range:.1%}: demote")
    return {
        "A": a, "B": b, "b_worse_by": worse, "spread": spread,
        "range": single_run_range, "bound": bound, "faults": faults,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--output", default=str(HERE / "AA.json"))
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in benchmark["workloads"]]
    report = {
        "nproc": os.cpu_count(),
        "runs_per_set": args.runs,
        "run_seconds": benchmark["run_seconds"],
        "demote_range": DEMOTE_RANGE,
        "workloads": {},
    }
    misses = []
    seeds = range(1, args.runs + 1)
    for name in names:
        sets = {}
        for label in ("A", "B"):
            sets[label] = [run_once(benchmark, name, seed) for seed in seeds]
            print(f"{name} set {label}: wall "
                  + " ".join(f"{r['wall_s']:.1f}" for r in sets[label]), flush=True)
        table = {}
        for metric in benchmark["end_to_end"]:
            row = table[metric["name"]] = compare(metric, sets["A"], sets["B"])
            print(f"  {metric['name']:<18} A {row['A']['median']:<10.5g} "
                  f"B {row['B']['median']:<10.5g} worse {row['b_worse_by']:+.3f} "
                  f"spread {row['spread']:.3f} range {row['range']:.3f} "
                  f"bound {row['bound']:g}  {'; '.join(row['faults']) or 'ok'}",
                  flush=True)
            misses += [f"{name}/{metric['name']}: {fault}" for fault in row["faults"]]
        runs = sets["A"] + sets["B"]
        # The same timings before the machine-speed scaling, all runs together.
        raw = {}
        for key in runs[0]["raw"]:
            values = [r["raw"][key] for r in runs]
            scaled = [r["metrics"][key]["value"] for r in runs]
            raw[key] = dict(summarise(values), range=relative_range(values))
            print(f"  unscaled {key:<15} spread {raw[key]['spread']:.3f} "
                  f"range {raw[key]['range']:.3f}   (scaled, all runs: spread "
                  f"{summarise(scaled)['spread']:.3f} range {relative_range(scaled):.3f})",
                  flush=True)
        report["workloads"][name] = {
            "metrics": table,
            "unscaled": raw,
            "wall_s": [r["wall_s"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
        }

    # A bound holds for every workload, so the evidence is the worst of them.
    report["bounds"] = {}
    for metric in benchmark["end_to_end"]:
        key = metric["name"]
        difference = max(
            abs(w["metrics"][key]["b_worse_by"]) for w in report["workloads"].values()
        )
        evidence = max(FLOORS[key], 2.0 * difference)
        if key == "setup_s":
            # Required by the contract, so never demoted: it carries the cap
            # at most, and one start in ten takes half as long again.
            evidence = min(evidence, BOUND_CAP)
        report["bounds"][key] = {
            "declared": metric["bound"], "floor": FLOORS[key],
            "largest_aa_difference": difference, "from_evidence": evidence,
        }
        if evidence > BOUND_CAP:
            misses.append(f"{key}: needs a bound of {evidence:.3f}, above the cap: demote")
        elif metric["bound"] < evidence:
            misses.append(f"{key}: bound {metric['bound']:g} is below {evidence:.3f}")
    report["misses"] = misses
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print("misses:", *(misses or ["none"]), sep="\n  ")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
