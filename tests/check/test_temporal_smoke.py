"""Tier-1 temporal smoke: 50 random histories against a brute-force shadow.

Every ``@T`` path read, TimeDial-pinned read, and raw association-table
read must agree with the shadow at every probe time, and SafeTime must
clamp a skewed provider to the commit ceiling.
"""

import pytest

from repro.check import check
from repro.db import GemStone

SMOKE_SEED = 2026


@pytest.fixture(scope="module")
def database():
    # one database shared by all histories: cases are namespaced by
    # (seed, case) so their world bindings never collide
    return GemStone.create(track_count=512, track_size=2048)


def test_fifty_histories_agree_with_the_shadow(database):
    report = check("temporal", seed=SMOKE_SEED, cases=50, database=database)
    assert report.ok, report.failures[0].describe()
    counts = report.counts
    assert counts["histories"] == 50
    assert counts["commits"] == 300
    assert counts["reads"] > 5000  # three read modes per object/field/probe
    assert counts["clamps"] == 50  # one deliberate skewed-provider clamp each


def test_probe_times_cover_boundaries(database):
    # a single case still probes before creation, at every commit time,
    # and just before/after each — the off-by-one surface
    report = check("temporal", seed=SMOKE_SEED, case=997, database=database)
    assert report.ok, report.failures[0].describe()
    assert report.counts["reads"] >= 3 * 6  # at minimum: one object, one field


def test_counters_flow_into_observability(database):
    before = database.observability()["counters"]["counters"].get(
        "check.temporal.histories", 0
    )
    report = check("temporal", seed=SMOKE_SEED, case=998, database=database)
    assert report.ok
    counters = database.observability()["counters"]["counters"]
    assert counters["check.temporal.histories"] == before + 1
    assert counters["check.temporal.reads"] >= report.counts["reads"]
    assert counters["check.temporal.clamps"] >= 1
    assert "check.temporal.mismatches" not in counters
