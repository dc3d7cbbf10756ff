"""Tier-1 gate: zero non-baseline staticcheck findings over src/.

Both rule families run over the real codebase on every test run, so a new
unguarded access or a blocking call under a lock fails CI the moment it
lands — it either gets fixed or gets an explicit baseline entry with a
reason.

The per-file classes pin the defects the analyser found and fixed, and
the exemption the blocking rule must keep honouring: if a fix regresses,
the checker fires again.
"""

from pathlib import Path

from repro.staticcheck import Baseline, analyze
from repro.staticcheck.cli import DEFAULT_BASELINE_NAME
from repro.staticcheck.engine import ModuleSource
from repro.staticcheck.facts import link

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
BASELINE = REPO / DEFAULT_BASELINE_NAME


def _fmt(findings):
    return "\n".join(f"{f.location()}: [{f.rule}] {f.message}" for f in findings)


class TestRepoGate:
    def test_src_has_zero_non_baseline_findings(self):
        baseline = Baseline.load(BASELINE)
        report = analyze(
            [SRC], root=REPO, baseline=baseline
        )
        assert report.ok, (
            "staticcheck found new violations (fix them or baseline with a "
            "reason):\n" + _fmt(report.findings)
        )

    def test_baseline_has_no_stale_entries(self):
        baseline = Baseline.load(BASELINE)
        report = analyze([SRC], root=REPO, baseline=baseline)
        assert report.stale_baseline == [], (
            "baseline entries no longer fire — delete them: "
            f"{report.stale_baseline}"
        )

    def test_four_locks_and_none_taken_under_another(self):
        # Why there is no lock-order rule: src/ has four locks and no call
        # site runs while two of them are held.  A fifth lock, or a nesting,
        # is a deliberate diff here.
        sources = [ModuleSource.parse(path, REPO) for path in sorted(SRC.rglob("*.py"))]
        facts = link(src.facts for src in sources)
        held = {
            site.held
            for fn in facts.functions.values()
            for site in (*fn.calls, *fn.blocking)
            if site.held
        }
        assert set().union(*held) == {
            "repro.api.faults.FaultInjector._lock",
            "repro.api.scheduling.fleet.FleetManager._cond",
            "repro.api.sharding._ShardClient._lock",
            "repro.core.kernels._native_lock",
        }
        assert all(len(tokens) == 1 for tokens in held), sorted(map(sorted, held))

    def test_every_baseline_entry_has_a_reason(self):
        baseline = Baseline.load(BASELINE)
        assert baseline.entries
        for fingerprint, reason in baseline.entries.items():
            assert reason and "TODO" not in reason, fingerprint


class TestFixedDefectsStayFixed:
    """Checker-level regression pins for fixed defects and the exemption."""

    def test_fleet_condition_waits_are_exempt_and_clean(self):
        # FleetManager waits on its own Condition while holding it — the
        # canonical idiom, which blocking-under-lock must never flag.  The
        # facts must carry each wait with its exemption, so the file being
        # clean is the exemption at work, not the waits going unseen.
        report = analyze([SRC / "repro" / "api" / "scheduling" / "fleet.py"], root=REPO)
        assert report.findings == [], _fmt(report.findings)
        cond = "repro.api.scheduling.fleet.FleetManager._cond"
        waits = [
            op
            for fn in report.facts.functions.values()
            for op in fn.blocking
            if op.label == "self._cond.wait()"
        ]
        assert len(waits) == 5
        assert all(op.held == {cond} and op.exempt_token == cond for op in waits)

    def test_kernel_build_has_only_the_baselined_compile_wait(self):
        # The one-time compile under _native_lock is deliberate (build-once)
        # and stays baselined.
        report = analyze([SRC / "repro" / "core" / "kernels.py"], root=REPO)
        assert [f.fingerprint for f in report.findings] == [
            "blocking-under-lock|src/repro/core/kernels.py"
            "|_load_native_lib:_compile_library"
        ], _fmt(report.findings)

    def test_sharding_has_exactly_the_baselined_findings(self):
        # _ShardClient's benign-racy _broken read and its deliberate
        # recv-under-lock (one request in flight per worker) are documented
        # exceptions — and must stay the only findings there.
        report = analyze([SRC / "repro" / "api" / "sharding.py"], root=REPO)
        assert sorted(f.fingerprint for f in report.findings) == [
            "blocking-under-lock|src/repro/api/sharding.py|_ShardClient._call:_recv",
            "blocking-under-lock|src/repro/api/sharding.py"
            "|_ShardClient.wait_ready:_recv",
            "unguarded-attr|src/repro/api/sharding.py|_ShardClient.defunct:_broken",
        ], _fmt(report.findings)
