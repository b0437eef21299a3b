"""Each event is counted once: in a snapshot section or in the registry.

A number that an owner's attribute already carries into a snapshot
section (``transactions``, ``frontdoor``, ``governance``,
``storage.replication``, ``shard``) has no registry copy; the registry
keeps only what no section carries, and every name it holds is a row of
the catalogue in ``docs/observability.md``.  One worked database and one
two-shard cluster exercise every owner of a moved name.
"""

import asyncio
import json
import pathlib
import re

import pytest

from repro import GemStone
from repro.errors import TransactionConflict
from repro.executor import protocol
from repro.executor.protocol import FrameType
from repro.faults.plan import FaultClock
from repro.frontdoor import FrontDoor
from repro.govern.admission import AdmissionController
from repro.obs import validate
from repro.shard import ShardedGemStone
from repro.shard.partition import shard_of

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"
SCHEMA = ROOT / "docs" / "observability_schema.json"

#: registry names whose number a section now carries, each once
MOVED = {
    "txn.commits", "txn.aborts", "txn.storage_failures", "txn.prepares",
    "txn.prepared_commits", "txn.prepared_aborts", "txn.conflict_retries",
    "frontdoor.requests", "frontdoor.active_links",
    "frontdoor.suppressed_duplicates", "frontdoor.shed_overload",
    "frontdoor.shed_deadline",
    "safetime.clamps",
    "dr.records_shipped", "dr.ship_retries", "dr.records_received",
    "dr.last_shipped_epoch", "dr.local_epoch", "dr.replication_lag",
    "shard.single_shard_commits", "shard.cross_shard_commits",
    "shard.coordinator_commits", "shard.coordinator_aborts",
    "shard.in_doubt_resolutions", "shard.in_doubt",
    "shard.decision_log_pending", "shard.<id>.commits",
}


def _tables() -> dict[str, list[str]]:
    """The catalogue section's tables: header line -> first-column names."""
    text = DOC.read_text()
    section = text.split("## The metric catalogue", 1)[1].split("\n## ", 1)[0]
    tables: dict[str, list[str]] = {}
    header = None
    for line in section.splitlines():
        if not line.startswith("|"):
            header = None
            continue
        if header is None:
            header = line
            tables[header] = []
            continue
        cell = line.split("|")[1].strip()
        if cell.startswith("`"):
            tables[header].append(cell.strip("`"))
    return tables


def _pattern(name: str) -> re.Pattern:
    """A catalogue name with ``<placeholder>`` parts, as a regex."""
    return re.compile(".+".join(map(re.escape, re.split(r"<[^>]+>", name))) + r"\Z")


def _catalogue(kind: str) -> list[str]:
    (names,) = [names for header, names in _tables().items() if kind in header]
    return names


def _registry_names(snapshot) -> set[str]:
    return {name for names in snapshot["counters"].values() for name in names}


def _moved(name: str) -> bool:
    return any(_pattern(moved).match(name) for moved in MOVED)


async def _door_traffic(db) -> FrontDoor:
    """One replay and one overload shed through a front door."""
    admission = AdmissionController(
        clock=FaultClock(), queue_capacity=1.0, drain_rate=1.0
    )
    door = FrontDoor(db, admission=admission)
    host = door.connect()
    await host.send(protocol.encode_seq(
        1, protocol.encode_login("DataCurator", "swordfish")
    ))
    assert protocol.decode_frame(await host.receive()).type is FrameType.LOGIN_OK
    envelope = protocol.encode_seq(2, protocol.encode_execute("1 + 1"))
    await host.send(envelope)
    first = await host.receive()
    await host.send(envelope)  # redelivered: answered from the window
    assert await host.receive() == first
    await host.send(protocol.encode_seq(3, protocol.encode_execute("2 + 2")))
    assert protocol.decode_frame(await host.receive()).type is FrameType.OVERLOADED
    host.close()
    await door.close()
    return door


@pytest.fixture(scope="module")
def worked_database():
    db = GemStone.create(track_count=1024, track_size=512, tracing=True)
    shipper = db.enable_replication()
    tm = db.transaction_manager
    session = db.login()
    session.execute("World!a := 1")
    session.commit()  # local commit 1
    session.execute("World!b := Set new")
    session.commit()  # 2
    session.execute("(World!b) select: [:e | e > 1]")

    # a commit that loses validation
    loser, winner = db.login(), db.login()
    loser.execute("World!c := (World!c ifNil: [0]) + 1")
    winner.execute("World!c := (World!c ifNil: [0]) + 1")
    winner.commit()  # 3
    with pytest.raises(TransactionConflict):
        loser.commit()  # abort 1

    # a PREPARE that loses validation
    loser.execute("World!d")
    loser.execute("World!e := 1")
    winner.execute("World!d := 5")
    winner.commit()  # 4
    with pytest.raises(TransactionConflict):
        tm.prepare(loser.session, "g1")  # abort 2

    # PREPARE + DECIDE-commit
    loser.execute("World!f := 1")
    tm.prepare(loser.session, "g2")
    tm.commit_prepared("g2")  # 5, a DECIDE commit

    # a run_transaction retry
    attempts = []

    def body(victim):
        attempts.append(1)
        victim.execute("World!g")
        victim.execute("World!h := 7")
        if len(attempts) == 1:
            winner.execute("World!g := 1")
            winner.commit()  # 6

    tm.run_transaction(session, body)  # abort 3, then commit 7

    # a SafeTime clamp
    dial = session.session.time_dial
    dial._safe_time_provider = lambda: db.store.last_tx_time + 1000
    dial.set_safe()

    door = asyncio.run(_door_traffic(db))
    for open_session in (session, loser, winner):
        open_session.close()
    return db, shipper, door


@pytest.fixture(scope="module")
def worked_cluster():
    cluster = ShardedGemStone(shard_count=2)
    keys = [f"w{i}" for i in range(99)]
    a = next(k for k in keys if shard_of(k, 2) == 0)
    b = next(k for k in keys if shard_of(k, 2) == 1)
    session = cluster.login()
    session.execute(f"World!{a} := 1")
    session.execute(f"World!{b} := 2")
    session.commit()  # cross-shard 2PC
    before = cluster.observability()
    cluster.restart_coordinator()
    yield cluster, before
    cluster.close(drain=False)


def test_no_moved_name_is_a_registry_name(worked_database, worked_cluster):
    db, _, _ = worked_database
    cluster, before = worked_cluster
    for snapshot in (db.observability(), before, cluster.observability()):
        names = _registry_names(snapshot)
        assert not [name for name in names if _moved(name)]


def test_every_registry_name_is_in_the_catalogue(worked_database, worked_cluster):
    db, _, _ = worked_database
    cluster, _ = worked_cluster
    rows = [_pattern(name) for name in _catalogue("kind")]
    names = _registry_names(db.observability()) | _registry_names(cluster.observability())
    # the worked database reaches the registry through each kind of writer
    assert {"executor.requests", "query.declarative", "frontdoor.queue_depth",
            "frontdoor.latency_ms", "span.txn.commit.ms"} <= names
    assert [name for name in names if not any(row.match(name) for row in rows)] == []


def test_the_moved_table_names_each_moved_name():
    assert set(_catalogue("section field")) == MOVED


def test_no_moved_name_is_written_under_src():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        text = path.read_text()
        assert [name for name in MOVED if f'"{name}"' in text] == [], path
    assert "shard.{" not in (ROOT / "src" / "repro" / "shard" / "cluster.py").read_text()


def test_transactions_counts_local_and_decide_commits(worked_database):
    db, _, _ = worked_database
    txn = db.observability()["transactions"]
    assert txn["commits"] == 7  # six local commits and one DECIDE
    assert txn["aborts"] == 3  # a commit, a PREPARE, a retried body
    assert txn["prepares"] == 1
    assert txn["prepared_commits"] == 1
    assert txn["prepared_aborts"] == 0
    assert txn["conflict_retries"] == 1


def test_each_owner_section_carries_its_numbers(worked_database):
    db, shipper, door = worked_database
    snapshot = db.observability()
    assert snapshot["governance"]["safetime_clamps"] == 1
    frontdoor = snapshot["frontdoor"]
    assert frontdoor["replays"] == 1
    assert frontdoor["shed_overload"] == 1
    assert frontdoor["requests"] == door.requests
    assert frontdoor["active_links"] == 0
    replication = snapshot["storage"]["replication"]
    assert replication["records_shipped"] == shipper.records_shipped > 7
    assert replication["replication_lag"] == 0


def test_coordinator_totals_survive_a_restart(worked_cluster):
    cluster, before = worked_cluster
    after = cluster.observability()["shard"]
    assert before["shard"]["coordinator"]["commits"] == 1
    assert after["coordinator"]["commits"] == 1
    assert after["coordinator"]["aborts"] == before["shard"]["coordinator"]["aborts"]
    assert after["cross_shard_commits"] == 1


def test_both_snapshots_validate(worked_database, worked_cluster):
    schema = json.loads(SCHEMA.read_text())
    validate(worked_database[0].observability(), schema)
    validate(worked_cluster[0].observability()["shard"], schema["properties"]["shard"])
