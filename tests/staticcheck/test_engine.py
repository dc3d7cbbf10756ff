"""Suppressions, baseline handling, fingerprints, and the CLI."""

import json
import subprocess
from pathlib import Path

from repro.staticcheck import Baseline, analyze
from repro.staticcheck.cli import main as cli_main
from repro.staticcheck.gitdiff import parse_unified_diff

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressions:
    def test_ignores_on_same_previous_and_wildcard_lines(self):
        report = analyze([FIXTURES / "suppressed_fixture.py"], root=FIXTURES)
        suppressed = sorted(f.symbol for f in report.suppressed)
        assert suppressed == [
            "Tally.annotated:_a",  # same-line ignore
            "Tally.annotated:_b",  # previous-line ignore
            "Tally.annotated:_c",  # wildcard ignore
        ]

    def test_wrong_rule_id_does_not_suppress(self):
        report = analyze([FIXTURES / "suppressed_fixture.py"], root=FIXTURES)
        live = sorted(f.symbol for f in report.findings)
        assert live == ["Tally.annotated:_d"]

    def test_one_comment_may_name_several_rules(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n  "
            "# staticcheck: ignore[blocking-under-lock, unguarded-attr] -- fixture\n"
        )
        report = analyze([target], root=tmp_path)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["unguarded-attr"]


class TestBaseline:
    def _one_finding(self):
        report = analyze([FIXTURES / "locks_fixture.py"], root=FIXTURES)
        assert report.findings
        return report.findings[0]

    def test_fingerprint_is_line_independent(self):
        finding = self._one_finding()
        assert finding.fingerprint == (
            f"{finding.rule}|{finding.path}|{finding.symbol}"
        )
        assert str(finding.line) not in finding.fingerprint.split("|")

    def test_baselined_findings_do_not_fail_the_gate(self):
        finding = self._one_finding()
        baseline = Baseline(entries={finding.fingerprint: "fixture"})
        report = analyze(
            [FIXTURES / "locks_fixture.py"], root=FIXTURES, baseline=baseline
        )
        assert finding.fingerprint in {f.fingerprint for f in report.baselined}
        assert finding.fingerprint not in {f.fingerprint for f in report.findings}

    def test_stale_entries_are_reported_for_scanned_files(self):
        stale_fp = "unguarded-attr|locks_fixture.py|Counter.gone:_count"
        baseline = Baseline(entries={stale_fp: "obsolete"})
        report = analyze(
            [FIXTURES / "locks_fixture.py"], root=FIXTURES, baseline=baseline
        )
        assert stale_fp in report.stale_baseline

    def test_partial_scans_do_not_mark_other_files_stale(self):
        other_fp = "unguarded-attr|some/other/file.py|C.f:_count"
        baseline = Baseline(entries={other_fp: "not scanned here"})
        report = analyze(
            [FIXTURES / "locks_fixture.py"], root=FIXTURES, baseline=baseline
        )
        assert other_fp not in report.stale_baseline

    def test_save_round_trips_reasons(self, tmp_path):
        finding = self._one_finding()
        path = tmp_path / "baseline.json"
        baseline = Baseline(path=path)
        baseline.save([finding], reasons={finding.fingerprint: "because"})
        loaded = Baseline.load(path)
        assert loaded.entries == {finding.fingerprint: "because"}


class TestCli:
    def test_exit_one_on_findings_and_json_output(self, capsys):
        code = cli_main(
            [
                str(FIXTURES / "locks_fixture.py"),
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--format",
                "json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert not payload["ok"]
        assert {f["rule"] for f in payload["findings"]} == {"unguarded-attr"}

    def test_exit_zero_on_clean_input(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli_main([str(clean), "--root", str(tmp_path)]) == 0

    def test_rules_filter(self, capsys):
        code = cli_main(
            [
                str(FIXTURES / "locks_fixture.py"),
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--rules",
                "blocking-under-lock",
            ]
        )
        assert code == 0  # unguarded-attr findings filtered out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            str(FIXTURES / "locks_fixture.py"),
            "--root",
            str(FIXTURES),
            "--baseline",
            str(baseline),
        ]
        assert cli_main(args + ["--write-baseline"]) == 0
        assert baseline.is_file()
        entries = json.loads(baseline.read_text())["entries"]
        assert entries and all(e["reason"] for e in entries)
        # With the freshly written baseline the same scan gates clean.
        assert cli_main(args) == 0

    def test_stale_baseline_entry_fails_with_a_named_message(
        self, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        stale_fp = "unguarded-attr|clean.py|C.gone:_count"
        baseline.write_text(
            json.dumps(
                {"version": 1, "entries": [{"fingerprint": stale_fp, "reason": "x"}]}
            )
        )
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        code = cli_main(
            [str(clean), "--root", str(tmp_path), "--baseline", str(baseline)]
        )
        assert code == 1  # stale entries fail the gate
        err = capsys.readouterr().err
        assert "stale baseline entry" in err and stale_fp in err

    def test_json_finding_schema_is_stable(self, capsys):
        # Golden key set: external consumers parse this; additions are fine
        # only when deliberate, removals never.
        cli_main(
            [
                str(FIXTURES / "locks_fixture.py"),
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "findings",
            "baselined",
            "suppressed",
            "stale_baseline",
            "ok",
        }
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule",
                "path",
                "line",
                "col",
                "message",
                "symbol",
                "severity",
                "fingerprint",
            }

    def test_text_output_names_rule_and_location(self, capsys):
        code = cli_main(
            [
                str(FIXTURES / "locks_fixture.py"),
                "--root",
                str(FIXTURES),
                "--no-baseline",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "locks_fixture.py:" in out
        assert "[unguarded-attr]" in out


class TestDiffMode:
    @staticmethod
    def _git(repo, *argv):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=repo,
            check=True,
            capture_output=True,
        )

    def _seed_repo(self, tmp_path):
        self._git(tmp_path, "init", "-q")
        target = tmp_path / "station.py"
        target.write_text(
            "import subprocess\n"
            "import threading\n"
            "import time\n"
            "class Station:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def stale_violation(self):\n"
            "        with self._lock:\n"
            "            time.sleep(1)\n"
            "    def edited_later(self, cmd):\n"
            "        with self._lock:\n"
            "            return cmd\n"
        )
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        # Introduce a NEW violation in one function; the old one is
        # untouched and must not be reported in diff mode.
        target.write_text(
            target.read_text().replace(
                "            return cmd\n", "            return subprocess.run(cmd)\n"
            )
        )
        return target

    def test_only_findings_on_changed_lines_survive(self, tmp_path, capsys):
        target = self._seed_repo(tmp_path)
        code = cli_main(
            [str(target), "--root", str(tmp_path), "--diff", "HEAD"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "subprocess.run" in out and "time.sleep" not in out

    def test_without_diff_both_fire(self, tmp_path, capsys):
        target = self._seed_repo(tmp_path)
        code = cli_main([str(target), "--root", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "subprocess.run" in out and "time.sleep" in out

    def test_bad_ref_is_a_usage_error(self, tmp_path, capsys):
        target = self._seed_repo(tmp_path)
        code = cli_main(
            [str(target), "--root", str(tmp_path), "--diff", "nope"]
        )
        assert code == 2
        assert "git diff" in capsys.readouterr().err

    def test_hunk_parser_maps_paths_and_lines(self):
        text = (
            "diff --git a/pkg/mod.py b/pkg/mod.py\n"
            "--- a/pkg/mod.py\n"
            "+++ b/pkg/mod.py\n"
            "@@ -3,0 +4,2 @@ def f():\n"
            "+    x = 1\n"
            "+    y = 2\n"
            "@@ -10,2 +12,0 @@ def g():\n"
            "-    a = 1\n"
            "-    b = 2\n"
            "--- a/gone.py\n"
            "+++ /dev/null\n"
            "@@ -1,3 +0,0 @@\n"
        )
        changed = parse_unified_diff(text)
        assert changed["pkg/mod.py"] == {4, 5, 12}
        assert "gone.py" not in changed and "/dev/null" not in changed
