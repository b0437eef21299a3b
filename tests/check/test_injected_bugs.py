"""The oracle must catch deliberately-injected bugs (and shrink them).

Two test-only bugs ride in the harness itself:

* ``stale-memo`` — ``PlanMemo(ignore_epochs=True)``: the memo key omits
  the class and directory epochs, so dropped directories keep being
  probed by cached plans (the classic plan-cache staleness bug);
* ``skip-maintenance`` — commits skip directory maintenance, so
  indexes silently go stale against the base data.

Each must be detected within the committed smoke seed range and shrink
to a strictly smaller reproducer that still fails.
"""

from repro.check import check, describe_case, generate_case, shrink_case
from repro.check.differential import Differential


SMOKE_SEED = 2026
HUNT_CASES = 100


def hunt(bug=None):
    return check("differential", SMOKE_SEED, cases=HUNT_CASES, bug=bug)


def test_clean_configuration_is_green():
    assert hunt().ok


def test_stale_plan_memo_is_caught():
    report = hunt(bug="stale-memo")
    assert not report.ok, "epoch-less memo keying must be detected"
    failure = report.failures[0]
    assert failure.reproducer.endswith("--bug stale-memo")
    assert "dropped directories" in failure.detail or \
        "differ from reference" in failure.what


def test_skipped_maintenance_is_caught():
    report = hunt(bug="skip-maintenance")
    assert not report.ok, "skipping directory maintenance must be detected"
    failure = report.failures[0]
    assert failure.reproducer.endswith("--bug skip-maintenance")
    # this bug diverges behaviorally: index-served rows disagree
    divergent = failure.what.partition(", ")[2]
    assert "memoized" in divergent or "optimized" in divergent


def test_stale_memo_failure_shrinks_to_a_minimal_reproducer():
    report = hunt(bug="stale-memo")
    failing = report.failures[0]
    spec = generate_case(SMOKE_SEED, failing.case)
    still_fails = Differential(SMOKE_SEED, bug="stale-memo").fails

    assert still_fails(spec)
    shrunk = shrink_case(spec, still_fails)
    assert still_fails(shrunk), "shrinking must preserve the failure"
    assert shrunk.size_measure() < spec.size_measure()
    # the shrunk case keeps only what the staleness needs: the directory
    # create/drop pair and a query evaluated on both sides of the drop
    assert len(shrunk.queries) == 1
    assert any(e[0] == "drop" for e in shrunk.dir_events)
    assert describe_case(shrunk)  # renders without error


def test_shrinking_is_deterministic():
    report = hunt(bug="stale-memo")
    spec = generate_case(SMOKE_SEED, report.failures[0].case)
    still_fails = Differential(SMOKE_SEED, bug="stale-memo").fails

    assert shrink_case(spec, still_fails) == shrink_case(spec, still_fails)
