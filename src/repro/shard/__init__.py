"""repro.shard — the object space partitioned across shard workers.

ROADMAP item 1: break the one-process ceiling.  The paper's GemStone is
Session Managers in front of one Commit Manager whose safe group writes
make commit atomic on a single disk; here the world's top-level names
are hash-partitioned across N :class:`~repro.shard.worker.ShardWorker`
instances (each a complete GemStone on its own platter) behind one
:class:`~repro.shard.cluster.ShardedGemStone` front end, and a
transaction spanning shards commits atomically through a
**presumed-abort two-phase commit** whose decision log is durable via
the same safe group writes (:mod:`repro.shard.decisions`).

There is one cluster, over a list of worker *hosts*; the host decides
only where a worker runs, how it is reached and how it dies.
``ShardedGemStone(...)`` runs the workers in this process on simulated
disks (the test fake); :class:`ProcCluster` (:mod:`repro.shard.procs`)
is the same class constructed over forked worker processes, each on
its own ``FileDisk`` platter, every frame crossing real TCP.

The fault story is swept, not sampled: the ``shard`` kind of
:mod:`repro.check` kills the coordinator and each participant at every
protocol window — the same windows on either host — and proves, after
the cluster's one ``recover()``, zero committed-transaction loss, zero
half-committed cross-shard state, and nothing left in doubt.
``python -m repro.check shard --host memory|process --seed N --case K``
replays any failure.

See docs/sharding.md for the state machine and the recovery matrix,
and docs/networking.md for the process topology.
"""

from .cluster import MemoryHost, ShardedGemStone, ShardedSession
from .coordinator import TwoPhaseCoordinator
from .decisions import DecisionLog
from .partition import route_statement, shard_of, statement_keys
from .worker import ShardWorker

_PROC_NAMES = ("ProcCluster", "WorkerProc")


def __getattr__(name):
    # lazy: importing the package (an in-process cluster, a tracer that
    # wraps the cluster's methods) does not load the forked-worker host
    if name in _PROC_NAMES:
        from . import procs

        return getattr(procs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DecisionLog",
    "MemoryHost",
    "ProcCluster",
    "ShardWorker",
    "ShardedGemStone",
    "ShardedSession",
    "TwoPhaseCoordinator",
    "WorkerProc",
    "route_statement",
    "shard_of",
    "statement_keys",
]
