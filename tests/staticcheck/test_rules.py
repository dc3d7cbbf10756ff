"""Each rule fires exactly where the fixtures seed a violation — and only there."""

from pathlib import Path

import pytest

from repro.staticcheck import analyze, default_rules
from repro.staticcheck.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def run(name, tests_dir=None):
    return analyze([FIXTURES / name], root=FIXTURES, tests_dir=tests_dir)


def symbols(report, rule):
    return sorted(f.symbol for f in report.findings if f.rule == rule)


class TestLockDiscipline:
    @pytest.fixture(scope="class")
    def report(self):
        return run("locks_fixture.py")

    def test_unguarded_accesses_fire(self, report):
        assert symbols(report, "unguarded-attr") == [
            "Counter.racy_bump:_count",
            "Counter.racy_peek:_count",
        ]

    def test_correct_forms_stay_quiet(self, report):
        flagged_methods = {f.symbol.split(":")[0] for f in report.findings}
        # Guarded accesses, the Condition alias, manual acquire(), and the
        # lockless class.
        for quiet in (
            "Counter.add",
            "Counter.total",
            "Counter.manual",
            "Counter.__init__",
            "Unlocked.bump",
        ):
            assert quiet not in flagged_methods

    def test_locations_point_at_the_offending_lines(self, report):
        lines = {
            f.symbol: f.line for f in report.findings if f.rule == "unguarded-attr"
        }
        text = (FIXTURES / "locks_fixture.py").read_text().splitlines()
        assert "self._count" in text[lines["Counter.racy_peek:_count"] - 1]
        assert "self._count += 1" in text[lines["Counter.racy_bump:_count"] - 1]


class TestResourceLifecycle:
    @pytest.fixture(scope="class")
    def report(self):
        return run("lifecycle_fixture.py")

    def test_leaks_fire(self, report):
        assert symbols(report, "resource-leak") == [
            "LeakyStore.__init__:_block:SharedMemory",
            "leaky_block:block:SharedMemory",
            "leaky_open:handle:open",
            "leaky_tmp:tmp:mkstemp",
        ]

    def test_ownership_proofs_stay_quiet(self, report):
        flagged_scopes = {f.symbol.split(":")[0] for f in report.findings}
        for quiet in (
            "finally_release",
            "handler_release",
            "transfer_by_return",
            "transfer_by_call",
            "with_block",
            "Store.__init__",
        ):
            assert quiet not in flagged_scopes

    def test_immediate_fd_close_is_accepted(self, report):
        # mkstemp returns (fd, path): fd is closed by the very next
        # statement and must not be reported, only the path.
        fd_findings = [f for f in report.findings if ":fd:" in f.symbol]
        assert fd_findings == []


class TestDtypeDiscipline:
    def test_fires_only_in_declared_hot_path_modules(self, tmp_path):
        undeclared = tmp_path / "plain.py"
        undeclared.write_text("import numpy as np\nx = np.zeros(4)\n")
        report = analyze([undeclared], root=tmp_path)
        assert symbols(report, "dtype-upcast") == []

    def test_silent_float64_minting_fires(self):
        report = run("dtypes_fixture.py")
        assert symbols(report, "dtype-upcast") == [
            "bad_alloc:array",
            "bad_alloc:linspace",
            "bad_alloc:zeros",
        ]

    def test_annotated_and_preserving_forms_stay_quiet(self):
        report = run("dtypes_fixture.py")
        assert not any("good_alloc" in f.symbol for f in report.findings)


class TestParityGate:
    def test_gap_fires_and_covered_entry_point_passes(self):
        report = analyze(
            [FIXTURES / "parity_src"],
            root=FIXTURES,
            tests_dir=FIXTURES / "parity_tests",
        )
        assert symbols(report, "parity-gap") == [
            "GapPool.classify",
            "LeafPool.pooled",
        ]

    def test_inherited_entry_points_attach_to_the_leaf_class(self):
        # BasePool (the abstract seam) is never audited under its own name;
        # its uncovered pooled() is reported on LeafPool, at the leaf's
        # class definition line.
        report = analyze(
            [FIXTURES / "parity_src"],
            root=FIXTURES,
            tests_dir=FIXTURES / "parity_tests",
        )
        flagged = symbols(report, "parity-gap")
        assert not any(s.startswith("BasePool.") for s in flagged)
        (leaf,) = [f for f in report.findings if f.symbol == "LeafPool.pooled"]
        src = (FIXTURES / "parity_src" / "api" / "serving.py").read_text()
        assert "class LeafPool" in src.splitlines()[leaf.line - 1]

    def test_private_classes_and_helpers_are_not_audited(self):
        report = analyze(
            [FIXTURES / "parity_src"],
            root=FIXTURES,
            tests_dir=FIXTURES / "parity_tests",
        )
        flagged = symbols(report, "parity-gap")
        assert not any("_PrivatePool" in s or "helper" in s for s in flagged)

    def test_skipped_without_a_tests_dir(self):
        report = analyze([FIXTURES / "parity_src"], root=FIXTURES, tests_dir=None)
        assert symbols(report, "parity-gap") == []


class TestBlockingUnderLock:
    @pytest.fixture(scope="class")
    def report(self):
        return run("blocking_fixture.py")

    def test_direct_and_transitive_blocking_fire(self, report):
        assert symbols(report, "blocking-under-lock") == [
            "Station.bad_recv_via_helper:_pump",
            "Station.bad_sleep:time.sleep",
        ]

    def test_condition_wait_on_its_own_lock_is_exempt(self, report):
        flagged = {f.symbol.split(":")[0] for f in report.findings}
        assert "Station.good_wait" not in flagged

    def test_blocking_with_nothing_held_stays_quiet(self, report):
        flagged = {f.symbol.split(":")[0] for f in report.findings}
        assert "Station.good_sleep_outside" not in flagged
        assert "Station.good_recv_outside" not in flagged
        assert "Station._pump" not in flagged


class TestOpcodeAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return run("opcodes_fixture.py")

    def test_unanswered_opcode_fires(self, report):
        assert symbols(report, "opcode-unhandled") == ["op:halt"]

    def test_handled_opcodes_stay_quiet(self, report):
        flagged = symbols(report, "opcode-unhandled")
        assert "op:ping" not in flagged and "op:ok" not in flagged

    def test_requires_boundary_declaration(self, tmp_path):
        plain = tmp_path / "plain.py"
        plain.write_text('def f(conn):\n    conn.send("halt", None)\n')
        report = analyze([plain], root=tmp_path)
        assert symbols(report, "opcode-unhandled") == []


class TestRuleRegistry:
    def test_every_rule_declares_its_ids(self):
        for rule_cls in ALL_RULES:
            assert rule_cls.rule_ids, rule_cls

    def test_rule_set_is_pinned(self):
        # Each family here has caught a real defect in this repository's
        # history; a family added later is a deliberate diff to this set.
        ids = {rule_id for rule in default_rules() for rule_id in rule.rule_ids}
        assert ids == {
            "unguarded-attr",
            "resource-leak",
            "dtype-upcast",
            "parity-gap",
            "blocking-under-lock",
            "opcode-unhandled",
        }
