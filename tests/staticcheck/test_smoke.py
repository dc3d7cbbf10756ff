"""Tier-1 gate: zero non-baseline staticcheck findings over src/.

This is the enforcement point the whole subsystem exists for: every rule
runs over the real codebase on every test run, so a new unguarded access,
leaked handle, silent float64 mint, untested serving entry point, blocking
call under a lock or unhandled control message fails CI the moment it
lands — it either gets fixed or gets an explicit baseline entry with a
reason.

The per-file classes double as regression tests for the defects the pass
found and fixed in this PR: if the fix regresses, the checker fires again.
"""

from pathlib import Path

from repro.staticcheck import Baseline, analyze
from repro.staticcheck.cli import DEFAULT_BASELINE_NAME
from repro.staticcheck.engine import ModuleSource
from repro.staticcheck.facts import link

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
TESTS = REPO / "tests"
BASELINE = REPO / DEFAULT_BASELINE_NAME


def _fmt(findings):
    return "\n".join(f"{f.location()}: [{f.rule}] {f.message}" for f in findings)


class TestRepoGate:
    def test_src_has_zero_non_baseline_findings(self):
        baseline = Baseline.load(BASELINE)
        report = analyze(
            [SRC], root=REPO, tests_dir=TESTS, baseline=baseline
        )
        assert report.ok, (
            "staticcheck found new violations (fix them or baseline with a "
            "reason):\n" + _fmt(report.findings)
        )

    def test_baseline_has_no_stale_entries(self):
        baseline = Baseline.load(BASELINE)
        report = analyze([SRC], root=REPO, tests_dir=TESTS, baseline=baseline)
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
    """Checker-level regression pins for the defects fixed in this PR."""

    def test_serving_queue_lock_discipline_is_clean(self):
        # ServingQueue.start() used to publish _live_workers outside the
        # lock that _worker_loop decrements it under.  Also pins the
        # condition-wait exemption: _scheduler_loop waits on its own
        # Condition under the aliased lock — the canonical idiom, which
        # blocking-under-lock must never flag.
        report = analyze([SRC / "repro" / "api" / "server.py"], root=REPO)
        assert report.findings == [], _fmt(report.findings)

    def test_kernel_build_and_pool_have_only_the_baselined_compile_wait(self):
        # _compile_library used to leak its temp .so when subprocess.run
        # raised.  The one-time compile under _native_lock is deliberate
        # (build-once) and stays baselined.
        report = analyze([SRC / "repro" / "core" / "kernels.py"], root=REPO)
        assert [f.fingerprint for f in report.findings] == [
            "blocking-under-lock|src/repro/core/kernels.py"
            "|_load_native_lib:_compile_library"
        ], _fmt(report.findings)

    def test_sharding_has_exactly_the_baselined_findings(self):
        # _ShardClient's benign-racy _broken read and its deliberate
        # recv-under-lock (one request in flight per worker) are documented
        # exceptions — and must stay the only findings there.  The opcode
        # audit is clean: every status/op sent across the worker boundary
        # has a handler.
        report = analyze([SRC / "repro" / "api" / "sharding.py"], root=REPO)
        assert sorted(f.fingerprint for f in report.findings) == [
            "blocking-under-lock|src/repro/api/sharding.py|_ShardClient._call:_recv",
            "blocking-under-lock|src/repro/api/sharding.py"
            "|_ShardClient.wait_ready:_recv",
            "unguarded-attr|src/repro/api/sharding.py|_ShardClient.defunct:_broken",
        ], _fmt(report.findings)

    def test_deleting_an_opcode_handler_fails_the_gate(self, tmp_path):
        # The acceptance mutation: rename one worker-side dispatch arm
        # and the control-message audit must flag the now-unhandled opcode.
        mutated = tmp_path / "sharding.py"
        text = (SRC / "repro" / "api" / "sharding.py").read_text()
        arm = 'elif op == "apply_lut_overrides":'
        assert arm in text
        mutated.write_text(text.replace(arm, 'elif op == "apply_overrides":'))
        report = analyze([mutated], root=tmp_path)
        unhandled = [f for f in report.findings if f.rule == "opcode-unhandled"]
        assert [f.symbol for f in unhandled] == [
            "op:apply_lut_overrides"
        ], _fmt(report.findings)

    def test_hot_path_modules_mint_no_silent_float64(self):
        targets = [
            SRC / "repro" / "core" / "lut.py",
            SRC / "repro" / "core" / "approximators.py",
            SRC / "repro" / "transformer",
        ]
        report = analyze(targets, root=REPO)
        dtype = [f for f in report.findings if f.rule == "dtype-upcast"]
        assert dtype == [], _fmt(dtype)
