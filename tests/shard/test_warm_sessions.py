"""A worker session per gtid starts from a retired session's compiled blocks.

``ShardWorker`` logs a session in per global transaction, so every
transaction used to compile its statements from scratch.  Now a new
session takes over the compiled-block cache of a retired one.  What must
hold: it takes over *code* — nothing one transaction bound, defined or
left in a temporary is visible to the next — and a cache has one live
owner at a time.
"""

import pytest

from repro.errors import GemStoneError, OpalRuntimeError
from repro.executor import protocol
from repro.shard.worker import ShardWorker
from repro.storage.disk import DiskGeometry, SimulatedDisk


@pytest.fixture()
def worker():
    disk = SimulatedDisk(DiskGeometry(track_count=512, track_size=512))
    return ShardWorker(0, disk=disk, fresh=True)


def execute(worker, gtid, source):
    reply = worker._handle(protocol.decode_frame(protocol.encode_shard_exec(gtid, source)))
    return protocol.decode_frame(reply).fields["value"]


def decide(worker, gtid, commit):
    worker._handle(protocol.decode_frame(protocol.encode_decide(gtid, commit)))


def commit(worker, gtid):
    worker._handle(protocol.decode_frame(protocol.encode_shard_commit(gtid)))


def perf(worker, gtid):
    return worker._sessions[gtid].session.perf


def test_the_next_transaction_does_not_compile_what_the_last_one_did(worker):
    assert execute(worker, "g1", "World!a := 1") == 1
    assert execute(worker, "g1", "World!a") == 1
    assert (perf(worker, "g1").compile_hits, perf(worker, "g1").compile_misses) == (0, 2)
    commit(worker, "g1")
    # another literal, the same two shapes: both found compiled
    assert execute(worker, "g2", "World!a := 2") == 2
    assert execute(worker, "g2", "World!a") == 2
    assert (perf(worker, "g2").compile_hits, perf(worker, "g2").compile_misses) == (2, 0)


def test_a_global_bound_under_one_gtid_is_unbound_under_the_next(worker):
    execute(worker, "g1", "1 + 1")  # logs g1's session in
    worker._sessions["g1"].engine.globals["Scratch"] = 41
    assert execute(worker, "g1", "Scratch + 1") == 42
    decide(worker, "g1", False)
    # g2 runs the very block g1 compiled — against its own engine
    with pytest.raises(OpalRuntimeError, match="undefined global 'Scratch'"):
        execute(worker, "g2", "Scratch + 1")
    assert perf(worker, "g2").compile_hits == 1


def test_a_doit_temporary_does_not_outlive_its_transaction(worker):
    assert execute(worker, "g1", "| t | t := 7. t") == 7
    decide(worker, "g1", False)
    assert execute(worker, "g2", "| t | t") is None
    decide(worker, "g2", False)
    assert execute(worker, "g3", "| t | t := 7. t") == 7
    assert perf(worker, "g3").compile_hits == 1


def test_a_class_defined_and_aborted_is_gone_for_the_next(worker):
    define = "Object subclass: #Ghost instVarNames: #(x)"
    execute(worker, "g1", define)
    execute(worker, "g1", "Ghost compile: 'answer ^ 42'")
    assert execute(worker, "g1", "Ghost new answer") == 42
    decide(worker, "g1", False)  # aborted: the class never existed
    with pytest.raises(GemStoneError):
        execute(worker, "g2", "Ghost new answer")
    decide(worker, "g2", False)
    # defined again, differently, the cached send must not find the old method
    execute(worker, "g3", define)
    execute(worker, "g3", "Ghost compile: 'answer ^ 43'")
    assert execute(worker, "g3", "Ghost new answer") == 43


def test_two_live_sessions_never_share_a_cache(worker):
    execute(worker, "g1", "World!a")
    commit(worker, "g1")
    execute(worker, "g2", "World!a")
    execute(worker, "g3", "World!a")  # g2 still holds the only retired cache
    assert perf(worker, "g2").compile_entries is not perf(worker, "g3").compile_entries
    assert (perf(worker, "g2").compile_hits, perf(worker, "g3").compile_hits) == (1, 0)
    decide(worker, "g2", False)
    decide(worker, "g3", False)
    assert len(worker._idle_blocks) == 2
    execute(worker, "g4", "World!a")
    assert len(worker._idle_blocks) == 1 and perf(worker, "g4").compile_hits == 1
