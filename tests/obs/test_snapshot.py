"""End-to-end observability: one mixed workload, every section populated.

This is the acceptance test for the unified telemetry layer: a single
``GemStone.observability()`` call must report commit/abort counts, cache
hit rates, admission-control and quota counters, and the N slowest
queries with their captured plans — and the snapshot must match the
checked-in schema (``docs/observability_schema.json``), which is the
same contract the CI smoke step enforces.
"""

import json
import pathlib

import pytest

from repro import GemStone
from repro.errors import TransactionConflict
from repro.executor.executor import HostConnection
from repro.govern import AdmissionController, BudgetSpec, QuotaSpec
from repro.obs import validate
from repro.tools.dashboard import render_dashboard

SCHEMA_PATH = (
    pathlib.Path(__file__).parent.parent.parent
    / "docs"
    / "observability_schema.json"
)


@pytest.fixture(scope="module")
def worked_database():
    """A database that has seen a bit of everything."""
    db = GemStone.create()
    db.budget_spec = BudgetSpec.default()
    db.quota_spec = QuotaSpec.default()
    db.obs.enable_tracing()

    # -- remote traffic through an Executor, with admission control -----
    admission = AdmissionController(max_sessions=4)
    conn = HostConnection(db, admission=admission)
    conn.login("DataCurator", "swordfish")
    conn.execute("World!emps := Set new")
    conn.commit()
    conn.logout()

    # -- embedded sessions: schema, data, declarative queries ------------
    session = db.login()
    session.define_class("Emp", instvars=("name", "salary"))
    for index in range(12):
        session.execute(
            "World!emps add: e",
            {"e": session.new("Emp", name=f"e{index}", salary=index * 10)},
        )
    session.commit()
    session.execute("(World!emps) reject: [:e | e!salary > 50]")
    # the same message from a text of another shape: a new call site
    # whose inline cache is cold, so the store's method cache answers it
    # (the twelve identical adds above compile once and hit the inline
    # cache, and so would this text with only its literal changed)
    session.execute("(World!emps) reject: [:e | e!salary >= 70]")
    # the same compiled select block three times over: the second and
    # third runs hit the translation and plan memos
    session.execute(
        "1 to: 3 do: [:i | (World!emps) select: [:e | e!salary > 50]]"
    )

    # -- a read-modify-write conflict for the abort counters --------------
    session.execute("World!counter := 0")
    session.commit()
    loser = db.login()
    loser.execute("World!counter := (World!counter) + 1")
    winner = db.login()
    winner.execute("World!counter := (World!counter) + 1")
    winner.commit()
    with pytest.raises(TransactionConflict):
        loser.commit()
    loser.close()
    winner.close()
    session.close()
    return db


def test_snapshot_matches_checked_in_schema(worked_database):
    schema = json.loads(SCHEMA_PATH.read_text())
    snapshot = worked_database.observability()
    validate(snapshot, schema)
    # the snapshot must survive a JSON round trip unchanged in shape
    validate(json.loads(json.dumps(snapshot)), schema)


def test_transactions_section_reports_commits_and_aborts(worked_database):
    txn = worked_database.observability()["transactions"]
    assert txn["commits"] >= 3
    assert txn["aborts"] >= 1
    assert txn["validations"] >= txn["commits"]
    assert 0.0 < txn["abort_rate"] < 1.0


def test_cache_section_reports_session_hit_rates(worked_database):
    caches = worked_database.observability()["caches"]["sessions"]
    assert caches["method_cache"]["hits"] > 0
    assert 0.0 < caches["method_cache"]["hit_rate"] <= 1.0
    assert caches["inline_cache"]["hits"] > 0
    assert caches["compile_cache"]["hits"] >= 11
    # the repeated select hit both the translation and the plan memo
    assert caches["translation_cache"]["hits"] > 0
    assert caches["plan_cache"]["hits"] > 0


def test_governance_section_reports_admission_and_quota(worked_database):
    gov = worked_database.observability()["governance"]
    assert gov["admission"]["controllers"] == 1
    assert gov["admission"]["admitted"] > 0
    assert gov["admission"]["breaker_states"] == ["closed"]
    assert gov["budgets"]["queries"] > 0  # sessions carried real budgets
    assert gov["budgets"]["kills"] == 0
    assert gov["quotas"]["rejections"] == 0
    assert gov["sessions"]["opened"] == 4
    assert gov["sessions"]["closed"] == 4


def test_slow_query_log_captures_source_plan_and_candidates(worked_database):
    slow = worked_database.observability()["slow_queries"]
    assert slow["total_queries"] >= 3
    entries = slow["slowest"]
    assert entries, "the mixed workload must leave slow-log entries"
    sources = {entry["source"] for entry in entries}
    assert "[:e | e!salary > 50]" in sources
    for entry in entries:
        assert entry["candidates"] > 0
        assert any("BindScan" in step or "Index" in step
                   for step in entry["plan"])
    cache_states = {entry["plan_cache"] for entry in entries}
    assert "memo" in cache_states  # the repeated select reused its plan


def test_tracing_section_carries_request_ids_from_the_executor(
    worked_database,
):
    tracing = worked_database.observability(spans=200)["tracing"]
    assert tracing["enabled"]
    assert tracing["recorded"] > 0
    by_name = {}
    for span in tracing["recent_spans"]:
        by_name.setdefault(span["name"], []).append(span)
    for expected in ("executor.request", "opal.execute", "txn.commit",
                     "storage.persist", "query.select"):
        assert expected in by_name, f"no {expected} span recorded"
    assert any(
        span["request_id"] is not None
        for span in by_name["executor.request"]
    )


def test_counters_absorb_layer_native_totals(worked_database):
    counters = worked_database.observability()["counters"]["counters"]
    assert counters["txn.commits"] >= 3
    assert counters["txn.aborts"] >= 1
    assert counters["executor.requests"] >= 4
    assert counters["query.declarative"] >= 3


def test_dashboard_renders_every_section(worked_database):
    text = render_dashboard(worked_database)
    for fragment in (
        "transactions", "caches", "governance", "slow queries",
        "tracing", "[:e | e!salary > 50]", "hit-rate",
    ):
        assert fragment in text


def test_bench_harness_hook_reuses_snapshot_names(worked_database):
    from repro.bench import observability_metrics

    metrics = observability_metrics(worked_database)
    snapshot = worked_database.observability()
    for section in ("transactions", "caches", "governance", "counters",
                    "slow_queries"):
        assert set(metrics[section].keys()) == set(snapshot[section].keys())


def test_two_databases_do_not_share_metrics():
    first = GemStone.create()
    second = GemStone.create()
    session = first.login()
    session.execute("World!x := 1")
    session.commit()
    session.close()
    assert first.observability()["transactions"]["commits"] == 1
    assert second.observability()["transactions"]["commits"] == 0
    assert second.observability()["governance"]["sessions"]["opened"] == 0
    assert second.obs.registry.count_of("txn.commits") == 0
