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
            "annotated:linspace",  # previous-line ignore
            "annotated:ones",  # wildcard ignore
            "annotated:zeros",  # same-line ignore
        ]

    def test_wrong_rule_id_does_not_suppress(self):
        report = analyze([FIXTURES / "suppressed_fixture.py"], root=FIXTURES)
        live = sorted(f.symbol for f in report.findings)
        assert live == ["annotated:empty"]

    def test_one_comment_may_name_several_rules(self, tmp_path):
        target = tmp_path / "multi.py"
        target.write_text(
            "# staticcheck: hot-path -- fixture\n"
            "import numpy as np\n"
            "def f(n):\n"
            "    return np.zeros(n)  "
            "# staticcheck: ignore[resource-leak, dtype-upcast] -- fixture\n"
        )
        report = analyze([target], root=tmp_path)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["dtype-upcast"]

    def test_ignore_above_decorators_reaches_the_def(self, tmp_path):
        # parity-gap anchors an inherited entry point on the leaf's
        # ``class`` line; a comment-only ignore above the decorator stack
        # must travel down to it.
        target = tmp_path / "api" / "deco.py"
        target.parent.mkdir()
        target.write_text(
            "def deco(cls):\n"
            "    return cls\n"
            "class Base:\n"
            "    def forward(self, requests):\n"
            "        return requests\n"
            "# staticcheck: ignore[parity-gap] -- fixture: decorated class\n"
            "@deco\n"
            "@deco\n"
            "class Leaf(Base):\n"
            "    pass\n"
        )
        (tmp_path / "tests").mkdir()
        report = analyze([target], root=tmp_path, tests_dir=tmp_path / "tests")
        assert report.findings == []
        assert [f.symbol for f in report.suppressed] == ["Leaf.forward"]


class TestBaseline:
    def _one_finding(self):
        report = analyze([FIXTURES / "dtypes_fixture.py"], root=FIXTURES)
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
            [FIXTURES / "dtypes_fixture.py"], root=FIXTURES, baseline=baseline
        )
        assert finding.fingerprint in {f.fingerprint for f in report.baselined}
        assert finding.fingerprint not in {f.fingerprint for f in report.findings}

    def test_stale_entries_are_reported_for_scanned_files(self):
        stale_fp = "dtype-upcast|dtypes_fixture.py|nowhere:zeros"
        baseline = Baseline(entries={stale_fp: "obsolete"})
        report = analyze(
            [FIXTURES / "dtypes_fixture.py"], root=FIXTURES, baseline=baseline
        )
        assert stale_fp in report.stale_baseline

    def test_partial_scans_do_not_mark_other_files_stale(self):
        other_fp = "dtype-upcast|some/other/file.py|f:zeros"
        baseline = Baseline(entries={other_fp: "not scanned here"})
        report = analyze(
            [FIXTURES / "dtypes_fixture.py"], root=FIXTURES, baseline=baseline
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
                str(FIXTURES / "dtypes_fixture.py"),
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
        assert {f["rule"] for f in payload["findings"]} == {"dtype-upcast"}

    def test_exit_zero_on_clean_input(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert cli_main([str(clean), "--root", str(tmp_path)]) == 0

    def test_rules_filter(self, capsys):
        code = cli_main(
            [
                str(FIXTURES / "dtypes_fixture.py"),
                "--root",
                str(FIXTURES),
                "--no-baseline",
                "--rules",
                "resource-leak",
            ]
        )
        assert code == 0  # dtype findings filtered out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        args = [
            str(FIXTURES / "dtypes_fixture.py"),
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
        stale_fp = "dtype-upcast|clean.py|gone:zeros"
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
                str(FIXTURES / "dtypes_fixture.py"),
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
        target = tmp_path / "hot.py"
        target.write_text(
            "# staticcheck: hot-path -- fixture\n"
            "import numpy as np\n"
            "def stale_violation(n):\n"
            "    return np.zeros(n)\n"
            "def edited_later(n):\n"
            "    return n\n"
        )
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        # Introduce a NEW violation in one function; the old one is
        # untouched and must not be reported in diff mode.
        target.write_text(
            target.read_text().replace(
                "    return n\n", "    return np.ones(n)\n"
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
        assert "ones" in out and "zeros" not in out

    def test_without_diff_both_fire(self, tmp_path, capsys):
        target = self._seed_repo(tmp_path)
        code = cli_main([str(target), "--root", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "ones" in out and "zeros" in out

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
