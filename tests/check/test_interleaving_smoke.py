"""Tier-1 interleaving smoke: deterministic OCC schedule exploration.

Three-session sampled interleavings plus the exhaustive two-session
enumeration: committed histories must replay serially to the same final
state, aborted sessions must leave no partial state, and the whole
exploration must be a pure function of its seed (digest-equal reruns).
"""

import pytest

from repro.check import check
from repro.check.schedule import exhaustive_two_session_schedules
from repro.db import GemStone
from repro.obs import MetricsRegistry

SMOKE_SEED = 2026


def fresh_database():
    return GemStone.create(track_count=512, track_size=2048)


@pytest.fixture(scope="module")
def database():
    return fresh_database()


def test_three_session_samples_are_serializable(database):
    report = check("schedule", SMOKE_SEED, cases=8, database=database)
    assert report.ok, report.failures[0].describe()
    assert report.counts["samples"] == 8
    # the sampled schedules must actually exercise OCC: some sessions
    # commit first try, others conflict and retry
    assert report.counts["commits"] >= 8
    assert report.counts["aborts"] > 0


def test_exhaustive_two_session_enumeration(database):
    report = exhaustive_two_session_schedules(database, SMOKE_SEED)
    assert report.ok, report.failures[0].describe()
    # C(8, 4) = 70 distinct interleavings of two 3-op sessions + commits
    assert report.counts["samples"] == 70
    assert report.counts["commits"] == 140  # every session commits after retries


def test_schedules_are_deterministic():
    # fresh database per run: oids, commit times, and therefore the
    # whole event log must reproduce exactly
    def sample(case):
        return check("schedule", SMOKE_SEED, case=case, database=fresh_database())

    first, second = sample(3), sample(3)
    assert first.digest == second.digest
    assert first.counts == second.counts  # steps, commits, aborts
    other = sample(4)
    assert other.digest != first.digest


def test_schedule_counters_reach_the_registry(database):
    registry = MetricsRegistry()
    report = check("schedule", SMOKE_SEED + 1, cases=2, database=database,
                   registry=registry)
    assert report.ok
    counters = registry.snapshot()["counters"]
    assert counters["check.schedule.samples"] == 2
    assert counters["check.schedule.commits"] == report.counts["commits"]
    assert "check.schedule.violations" not in counters


def test_a_twin_that_shares_tables_naively_is_caught(monkeypatch):
    # twins borrow the committed object's tables; what keeps a twin
    # reading "the state at its first write" is the Linker unsharing a
    # table before it appends to it — without that the oracle must fail
    from repro.core.objects import GemObject

    monkeypatch.setattr(GemObject, "unshare_table", lambda self, name: None)
    report = check("schedule", SMOKE_SEED, cases=8, database=fresh_database())
    assert not report.ok
    assert any("expected" in failure.what for failure in report.failures)
