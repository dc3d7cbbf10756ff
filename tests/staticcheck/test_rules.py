"""Each rule fires exactly where the fixtures seed a violation — and only there."""

from pathlib import Path

import pytest

from repro.staticcheck import analyze, default_rules
from repro.staticcheck.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def run(name):
    return analyze([FIXTURES / name], root=FIXTURES)


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


class TestRuleRegistry:
    def test_every_rule_declares_its_ids(self):
        for rule_cls in ALL_RULES:
            assert rule_cls.rule_ids, rule_cls

    def test_rule_set_is_pinned(self):
        # Each family here has caught a real defect in this repository's
        # history and has no runtime twin yet; a family added later is a
        # deliberate diff to this set.
        ids = {rule_id for rule in default_rules() for rule_id in rule.rule_ids}
        assert ids == {"unguarded-attr", "blocking-under-lock"}
