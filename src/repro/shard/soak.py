"""The ``shard`` kind of :mod:`repro.sweep`: kill everyone everywhere, leave nothing torn.

A seeded workload of single- and cross-shard transactions runs
against a cluster whose nodes each count their own protocol windows —
the coordinator's (between votes, before/after its decision persist,
between each DECIDE of the fan-out), then each worker's (PREPARE
received, before/after the note's group write, vote sent,
before/after the decision apply, ack sent).  A clean run takes the
census; then one run is executed per window, killing the node that
owns it at exactly that instant — by exception on the in-memory host,
by SIGKILL on the process host, the same windows in the same order on
both.  The cluster is recovered in place and the invariants checked:

1. **no transaction left in doubt** — after recovery, every shard's
   prepared set and the in-doubt set in its store's note are empty;
2. **zero half-committed cross-shard state** — each transaction's keys
   are all present (with the right values) or all absent, across all
   its shards;
3. **zero committed-transaction loss** — every commit the client saw
   succeed is fully present after recovery;
4. **presumed abort is safe** — a transaction the client saw fail is
   either fully absent or fully present (the in-doubt window can land
   either way), never split;
5. **liveness** — the recovered cluster commits a fresh cross-shard
   transaction;
6. **the platter is the store** — every worker, survivor or respawned,
   reopens its platter cold and finds what it answers from live
   (:func:`~repro.dr.verify.reopen_cold_diff`: records, catalog, note);

plus, where hosts have exit codes, a clean SIGTERM drain at the end of
every run.
"""

from __future__ import annotations

import random

from ..errors import GemStoneError
from ..sweep import WindowKiller
from .cluster import ShardedGemStone
from .partition import shard_of


def _workload(seed: int, shards: int, transactions: int):
    """Seeded transactions, each writing unique keys.

    Key names are unique per transaction, so presence of a key proves
    its transaction landed — atomicity and loss checks need no diffing.
    Key counts vary so the mix exercises both the single-shard fast
    path and genuine cross-shard 2PC.
    """
    rng = random.Random(seed)
    plan = []
    for t in range(transactions):
        keys = [f"t{t}k{i}_{rng.randrange(1000)}" for i in range(rng.randint(1, 3))]
        expected = {key: f"s{seed}_t{t}_{key}" for key in keys}
        statements = [
            f"World!{key} := '{value}'" for key, value in expected.items()
        ]
        plan.append((t, statements, expected))
    return plan


def _drive(cluster, workload) -> dict[int, str]:
    """Run the workload; every outcome is an ack or a typed error."""
    session = cluster.login()
    outcomes: dict[int, str] = {}
    for t, statements, _expected in workload:
        try:
            for statement in statements:
                session.execute(statement)
            session.commit()
            outcomes[t] = "acked"
        except GemStoneError as error:
            outcomes[t] = type(error).__name__
            try:
                session.abort()
            except GemStoneError:
                pass  # a dead shard's workspace dies with it
    return outcomes


def _check_recovered(fail, counts, kill, cluster, outcomes, workload):
    """Recover the swept cluster in place; verify every invariant."""
    counts["in_doubt_resolved"] += cluster.recover()["resolved"]

    # 1. nothing left in doubt, in memory or durably
    for shard_id in range(cluster.shard_count):
        status = cluster.status(shard_id)
        if status["in_doubt"]:
            fail(
                "in-doubt-resolved",
                f"shard {shard_id} still prepared after recovery: "
                f"{status['in_doubt']}",
            )
        if status["durable_prepared"]:
            fail(
                "in-doubt-resolved",
                f"shard {shard_id} kept in its note "
                f"{status['durable_prepared']}",
            )

    # 2–4. atomicity, zero acked loss, presumed-abort safety
    checker = cluster.login()
    for t, _statements, expected in workload:
        values = {key: checker.execute(f"World!{key}") for key in expected}
        checker.abort()
        landed = [key for key in expected if values[key] == expected[key]]
        stray = [
            key for key in expected
            if values[key] is not None and values[key] != expected[key]
        ]
        if stray:
            fail(
                "atomicity",
                f"txn {t} keys hold foreign values: "
                + ", ".join(f"{k}={values[k]!r}" for k in stray),
            )
        if landed and len(landed) != len(expected):
            fail(
                "atomicity",
                f"txn {t} half-committed: {len(landed)}/{len(expected)} "
                f"keys present ({sorted(landed)})",
            )
        if outcomes.get(t) == "acked":
            counts["acked_checked"] += 1
            if len(landed) != len(expected):
                fail(
                    "zero-acked-loss",
                    f"txn {t} was client-acknowledged but only "
                    f"{len(landed)}/{len(expected)} keys survived recovery",
                )

    # 5. liveness: a fresh cross-shard commit over the recovered cluster
    liveness = cluster.login()
    try:
        probe = 0
        placed: set[int] = set()
        statements = []
        while len(placed) < min(2, cluster.shard_count):
            key = f"live{kill}_{probe}"
            shard = shard_of(key, cluster.shard_count)
            if shard not in placed:
                placed.add(shard)
                statements.append(f"World!{key} := 'alive'")
            probe += 1
        for statement in statements:
            liveness.execute(statement)
        liveness.commit()
        counts["liveness_commits"] += 1
    except GemStoneError as error:
        fail(
            "post-recovery-liveness",
            f"fresh cross-shard commit failed: {type(error).__name__}: {error}",
        )

    # 6. every platter, survivor's or respawned, reopens cold to what its
    #    live worker answers from: the checks above read decoded caches
    _check_platters(fail, cluster)


def _check_platters(fail, cluster) -> None:
    for shard_id in range(cluster.shard_count):
        problems = cluster.status(shard_id, verify=True)["reopen_cold"]
        if problems:
            fail("reopen-cold", f"shard {shard_id}: " + "; ".join(problems))


def _died(cluster, node) -> bool:
    if node == "coord":
        return not cluster.coordinator.alive
    # the workload can finish in the instant between a worker's
    # self-SIGKILL and the kernel reaping it: the host gives death a moment
    return cluster.hosts[node].await_death()


class ShardSweep:
    """The coordinator and every participant die at each 2PC window."""

    OPTIONS = {"host": ("memory", "process"), "seed": 2026, "shards": 2,
               "transactions": 6}
    COUNTS = ("acked_checked", "in_doubt_resolved", "liveness_commits")

    def __init__(self, host: str, seed: int, shards: int, transactions: int) -> None:
        self.cluster_class = ShardedGemStone
        if host == "process":
            from .procs import ProcCluster as cluster_class

            self.cluster_class = cluster_class
        self.shards = shards
        self.workload = _workload(seed, shards, transactions)

    def _run(self, plan, fail, check):
        """One cluster driven through the workload under *plan*, checked
        by *check*, then drained — cleanly, where hosts have exit codes."""
        cluster = self.cluster_class(shard_count=self.shards, killer=plan)
        try:
            result = check(cluster, _drive(cluster, self.workload))
            exitcodes = cluster.close()
            cluster = None
            if any(code not in (0, None) for code in exitcodes):
                fail("graceful-drain", f"SIGTERM drain exited with {exitcodes}")
        finally:
            if cluster is not None:
                cluster.close(drain=False)
        return result

    def census(self, fail) -> list[tuple]:
        """Coordinator windows first, then each worker's, in shard order."""

        def clean(cluster, outcomes):
            not_acked = {t: o for t, o in outcomes.items() if o != "acked"}
            if not_acked:
                fail("clean-run", f"transactions failed with nobody killed: {not_acked}")
            _check_platters(fail, cluster)
            census = [("coord", name) for name in cluster.coordinator.killer.log]
            for shard_id in range(cluster.shard_count):
                census += [
                    (shard_id, name) for name in cluster.status(shard_id)["windows"]
                ]
            return census

        self.instants = self._run(WindowKiller(), fail, clean)
        return self.instants

    def run(self, point: int, fail, counts: dict) -> None:
        node = self.instants[point][0]
        # the victim counts only its own windows
        local = sum(1 for other, _name in self.instants[:point] if other == node)

        def killed(cluster, outcomes):
            if _died(cluster, node):
                _check_recovered(fail, counts, point, cluster, outcomes, self.workload)
            else:
                fail("kill-armed", "the run finished without reaching its kill window")

        self._run(WindowKiller(node, kill_at=local), fail, killed)
