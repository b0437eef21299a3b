"""The overload claim's invariants on the ``overload`` kind's default herd."""

from functools import cache

from repro.check import check


@cache
def herd(seed=11):
    return check("overload", host="herd", seed=seed, case=0)


class TestOverloadSoak:
    def test_invariants_hold_under_the_storm(self):
        report = herd()
        # torn commits, hung sessions and untyped rejections are failures
        assert report.ok, [failure.describe() for failure in report.failures]
        assert report.counts["completed"] == 32  # every client logged out

    def test_progress_is_made_despite_adversaries(self):
        report = herd()
        assert report.counts["commits"] > 0
        assert report.counts["verified_keys"] > 0

    def test_adversaries_die_by_budget_and_quota(self):
        counts = herd().counts
        # spinner/allocator kills and hoarder quota kills every round
        assert counts["budget_kills"] > 0
        assert counts["quota_kills"] > 0
        # none of them survived (that would be recorded as a failure)
        assert not any(failure.what == "survived" for failure in herd().failures)

    def test_contention_is_governed_not_ignored(self):
        report = herd()
        assert report.counts["conflicts"] > 0  # the engineered OCC race fired
        assert report.counts["backoff_units"] > 0  # and was charged to the clock

    def test_session_gate_sheds_the_latecomer(self):
        assert herd().counts["shed_logins"] == 1

    def test_queue_sheds_when_sized_below_demand(self):
        report = herd()
        assert report.counts["queue_sheds"] > 0
        assert report.counts["client_backoffs"] > 0
        assert report.ok  # shedding never costs correctness

    def test_fault_layer_stays_active_and_masked(self):
        report = herd()
        assert report.counts["injected_faults"] > 0
        assert report.counts["disk_retries"] > 0
        assert not any(failure.what == "torn" for failure in report.failures)

    def test_different_seeds_follow_different_schedules(self):
        # not guaranteed in principle, but these seeds do diverge — a
        # digest that never moves would mean it hashes nothing real
        assert herd(1).digest()["digest"] != herd(2).digest()["digest"]
