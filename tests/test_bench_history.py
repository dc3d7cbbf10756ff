"""``BENCH_history.jsonl`` stays readable against ``BENCHMARK.json``.

One line per PR with the gated workloads' end-to-end medians; a renamed
workload or metric turns the kept trajectory stale, and that is a failure
here rather than something a reader finds out later.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_history_lines_match_the_benchmark_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in contract["workloads"]}
    metrics = {m["name"] for m in contract["end_to_end"]}
    lines = (ROOT / "BENCH_history.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert entries
    prs = [entry["pr"] for entry in entries]
    assert all(a < b for a, b in zip(prs, prs[1:])), prs
    # Each PR appends the previous landed PR's pipeline medians (its own are
    # not known until it has landed), so the trajectory trails CHANGES.md by
    # one landed PR.  PR numbers need not be consecutive: a refused PR never
    # lands and leaves a gap.
    changes = (ROOT / "CHANGES.md").read_text()
    landed = sorted({int(pr) for pr in re.findall(r"^- PR (\d+):", changes, re.M)})
    assert prs[-1] >= landed[-2], (prs[-1], landed)
    for entry in entries:
        assert set(entry) == {"pr", "workloads"}
        assert set(entry["workloads"]) == workloads, entry["pr"]
        for name, row in entry["workloads"].items():
            assert set(row) == metrics, (entry["pr"], name)
            assert all(isinstance(v, (int, float)) for v in row.values())
