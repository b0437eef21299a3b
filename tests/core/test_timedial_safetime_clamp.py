"""``TimeDial.set_safe`` must never dial past the commit clock (§5.4).

SafeTime is "the most recent state for which no currently running
transaction can make changes" — by construction it cannot exceed the
latest *committed* transaction time.  A provider that answers something
newer (a skewed clock, a provider wired to the wrong counter) must be
clamped to the commit ceiling, counted, and reported to observability.
"""

import pytest

from repro import GemStone
from repro.core.timedial import TimeDial


def test_honest_provider_is_not_clamped():
    dial = TimeDial(
        safe_time_provider=lambda: 5, commit_time_provider=lambda: 9
    )
    assert dial.set_safe() == 5
    assert dial.time == 5
    assert dial.clamps == 0


def test_too_new_safetime_is_clamped_to_the_commit_ceiling():
    dial = TimeDial(
        safe_time_provider=lambda: 12, commit_time_provider=lambda: 9
    )
    assert dial.set_safe() == 9
    assert dial.time == 9
    assert dial.clamps == 1


def test_each_clamp_is_counted_once():
    dial = TimeDial(
        safe_time_provider=lambda: 100, commit_time_provider=lambda: 3
    )
    dial.set_safe()
    dial.set_safe()
    assert dial.clamps == 2


def test_equal_times_do_not_count_as_clamps():
    dial = TimeDial(
        safe_time_provider=lambda: 7, commit_time_provider=lambda: 7
    )
    assert dial.set_safe() == 7
    assert dial.clamps == 0


def test_dial_without_ceiling_trusts_the_provider():
    dial = TimeDial(safe_time_provider=lambda: 42)
    assert dial.set_safe() == 42
    assert dial.clamps == 0


def test_dial_without_provider_raises():
    with pytest.raises(RuntimeError):
        TimeDial().set_safe()


def test_session_dials_carry_the_store_commit_ceiling():
    """A real session's dial clamps a lying provider and reports it."""
    db = GemStone.create()
    session = db.login()
    session.execute("World!x := 1")
    session.commit()
    dial = session.time_dial

    # the honest wiring: SafeTime == the commit clock, no clamp
    honest = dial.set_safe()
    assert honest == db.store.last_tx_time
    assert dial.clamps == 0

    # sabotage the provider: pretend a future time is already safe
    dial._safe_time_provider = lambda: db.store.last_tx_time + 1000
    clamped = dial.set_safe()
    assert clamped == db.store.last_tx_time
    assert dial.clamps == 1
    # the clamp reached the database's snapshot, once
    snapshot = db.observability()
    assert snapshot["governance"]["safetime_clamps"] == 1
    assert "safetime.clamps" not in snapshot["counters"]["counters"]
    session.close()
