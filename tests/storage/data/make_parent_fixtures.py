"""Write the parent-format fixtures.  Run with PYTHONPATH=<parent>/src.

The three cases: a database platter (here), a shard worker killed with
two transactions in doubt and a coordinator's decision log with one
commit pending (both in ``tests/shard/data``).  The last run, at commit
fbf0cb7, wrote the ``gsr3`` set; the ``gsr2`` platter and the
``parent_in_doubt`` / ``parent_decisions`` pair came from earlier runs
of the same cases at commit 45cd1a3.
"""
import json, os, sys
from repro import GemStone
from repro.executor import protocol
from repro.shard.decisions import DecisionLog
from repro.shard.worker import ShardWorker
from repro.storage.disk import DiskGeometry
from repro.storage.filedisk import FileDisk

here = os.path.dirname(os.path.abspath(__file__))
shard = os.path.join(here, "..", "..", "shard", "data")
WRITTEN_BY = "commit fbf0cb7 (root magic GSR3: page blobs, page directory, bitmap, catalog and note blobs)"

# 1. a plain database platter
path = os.path.join(here, "parent_gsr3.platter")
disk = FileDisk.create(path, DiskGeometry(track_count=128, track_size=512))
db = GemStone.create(disk=disk)
s = db.login()
for i in range(70):
    s.execute(f"World!k{i:02d} := {1000 + i}")
s.execute("Object subclass: #Employee instVarNames: #(name salary)")
s.execute("Employee compile: 'salary ^salary'")
s.execute("Employee compile: 'salary: s salary := s'")
s.execute("| e | e := Employee new. e salary: 42. World!ellen := e")
s.commit()
for i in range(0, 70, 7):
    s.execute(f"World!k{i:02d} := 'second{i}'")
    s.commit()
expected = {f"World!k{i:02d}": s.execute(f"World!k{i:02d}") for i in range(70)}
expected["World!ellen salary"] = 42
world = db.store.catalog["world"]
meta = {
    "written_by": WRITTEN_BY,
    "epoch": db.store.commit_manager.current_epoch,
    "last_tx_time": db.store.last_tx_time,
    "world_fragments": len(db.store.table.get(world).tracks),
    "expected": expected,
}
disk.close()
json.dump(meta, open(os.path.join(here, "parent_gsr3.json"), "w"), indent=1, sort_keys=True)

# 2. a shard worker killed with two transactions in doubt
path = os.path.join(shard, "parent_gsr3_in_doubt.platter")
disk = FileDisk.create(path, DiskGeometry(track_count=256, track_size=512))
worker = ShardWorker(0, disk=disk, fresh=True)
def frame(raw):
    return protocol.decode_frame(raw)
worker._handle(frame(protocol.encode_shard_exec("g0.1", "World!settled := 'before'")))
worker._handle(frame(protocol.encode_shard_commit("g0.1")))
worker._handle(frame(protocol.encode_shard_exec("g0.2", "World!a := 'A2'")))
worker._handle(frame(protocol.encode_shard_exec("g0.2", "World!a2 := 'also A2'")))
worker._handle(frame(protocol.encode_prepare("g0.2")))
worker._handle(frame(protocol.encode_shard_exec("g0.3", "World!b := 'B3'")))
worker._handle(frame(protocol.encode_prepare("g0.3")))
meta = {
    "written_by": WRITTEN_BY,
    "in_doubt": worker.in_doubt(),
    "statements": worker._durable_prepared,
    "epoch": worker.db.store.commit_manager.current_epoch,
}
disk.close()  # the "kill": nothing else reaches the platter
json.dump(meta, open(os.path.join(shard, "parent_gsr3_in_doubt.json"), "w"), indent=1, sort_keys=True)

# 3. a coordinator's decision log with one commit still pending
path = os.path.join(shard, "parent_gsr3_decisions.bin")
disk = FileDisk.create(path, DiskGeometry(track_count=128, track_size=512))
log = DecisionLog.create(disk)
log.record_commit("g0.2", [0, 1])
log.record_commit("g0.9", [1])
log.forget("g0.9")
disk.close()
print("ok")
