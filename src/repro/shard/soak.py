"""The 2PC crash sweep: kill everyone everywhere, leave nothing torn.

Following :mod:`repro.dr.soak`'s discipline, robustness is *swept*, not
sampled: a seeded workload of single- and cross-shard transactions runs
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
every run.  Every violated invariant carries a copy-pasteable
reproducer (``python -m repro.shard --host H --seed N --kill K``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import GemStoneError
from .cluster import ShardedGemStone
from .partition import shard_of


class WindowKiller:
    """Counts one node's protocol windows; kills it at exactly one.

    A sweep builds one as a *plan* — which node (``"coord"`` or a shard
    id), at which of its windows: a flat *kill_at* index (the sweep's
    handle) or a named *(window, nth)* pair (the test matrix's) — and
    hands it to the cluster, which gives every node its own copy
    (:meth:`for_node`) carrying the *kill* action of wherever that node
    runs: raise ``CoordinatorKilled`` / ``WorkerKilled``, or SIGKILL
    the process.  A plan with no victim only counts.
    """

    def __init__(
        self,
        victim=None,
        kill_at: Optional[int] = None,
        kill_window: Optional[tuple[str, int]] = None,
        kill: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.victim = victim
        self.kill_at = kill_at
        self.kill_window = kill_window
        self.kill = kill
        #: the names of the windows reached, in order
        self.log: list[str] = []

    def for_node(self, node, kill) -> "WindowKiller":
        """This plan as *node* sees it: armed only if it is the victim."""
        if node != self.victim:
            return WindowKiller(node, kill=kill)
        return WindowKiller(node, self.kill_at, self.kill_window, kill)

    def window(self, name: str, victim) -> None:
        """One protocol window of *victim*, the node this copy counts."""
        index, nth = len(self.log), self.log.count(name)
        self.log.append(name)
        if index == self.kill_at or (name, nth) == self.kill_window:
            self.kill(name, victim)


@dataclass
class ShardFailure:
    """One violated invariant, with its reproducer."""

    kill_point: int
    window: str
    victim: str
    invariant: str
    detail: str
    reproducer: str

    def describe(self) -> str:
        return (
            f"kill={self.kill_point} ({self.window} of {self.victim}): "
            f"{self.invariant} — {self.detail}\n"
            f"  reproduce: {self.reproducer}"
        )


@dataclass
class ShardSoakReport:
    """What the crash sweep observed."""

    seed: int
    shards: int
    transactions: int
    total_windows: int = 0  #: protocol windows in the uninterrupted run
    #: the uninterrupted run's ordered ``(node, window name)`` list —
    #: coordinator first, then each worker; a kill point indexes it
    census: list[tuple] = field(default_factory=list)
    kill_points_run: int = 0
    acked_checked: int = 0
    in_doubt_resolved: int = 0
    liveness_commits: int = 0
    failures: list[ShardFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def digest(self) -> dict:
        """JSON-ready summary for benchmarks and CI."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "transactions": self.transactions,
            "total_windows": self.total_windows,
            "kill_points_run": self.kill_points_run,
            "acked_checked": self.acked_checked,
            "in_doubt_resolved": self.in_doubt_resolved,
            "liveness_commits": self.liveness_commits,
            "failures": len(self.failures),
            "ok": self.ok,
        }


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


def _reproducer(report: ShardSoakReport, host: str, kill: int) -> str:
    return (
        f"python -m repro.shard --host {host} --seed {report.seed} "
        f"--shards {report.shards} --transactions {report.transactions} "
        f"--kill {kill}"
    )


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


def _check_recovered(fail, report, kill, cluster, outcomes, workload):
    """Recover the swept cluster in place; verify every invariant."""
    try:
        stats = cluster.recover()
    except Exception as error:  # noqa: BLE001 — report, keep sweeping
        fail("recovery", f"recover raised {error!r}")
        return
    report.in_doubt_resolved += stats["resolved"]

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
            report.acked_checked += 1
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
        report.liveness_commits += 1
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


def _run(report, cluster_class, workload, kill, plan):
    """One cluster driven through the workload under *plan*, then closed.

    Kill runs (*kill* ≥ 0) must lose their victim and are then
    recovered and checked; the clean run (*kill* −1) must acknowledge
    everything and returns its census.  Both must drain cleanly.
    """
    node, window = report.census[kill] if kill >= 0 else ("-", "clean")

    def fail(invariant: str, detail: str) -> None:
        report.failures.append(
            ShardFailure(
                kill, window, str(node), invariant, detail,
                _reproducer(report, cluster_class.host_kind, kill),
            )
        )

    census: list[tuple] = []
    cluster = cluster_class(shard_count=report.shards, killer=plan)
    try:
        outcomes = _drive(cluster, workload)
        if kill < 0:
            not_acked = [t for t, outcome in outcomes.items() if outcome != "acked"]
            if not_acked:
                fail(
                    "clean-run",
                    f"transactions {not_acked} failed with nobody killed: "
                    f"{ {t: outcomes[t] for t in not_acked} }",
                )
            _check_platters(fail, cluster)
            census = [("coord", name) for name in cluster.coordinator.killer.log]
            for shard_id in range(cluster.shard_count):
                census += [
                    (shard_id, name)
                    for name in cluster.status(shard_id)["windows"]
                ]
        elif _died(cluster, node):
            _check_recovered(fail, report, kill, cluster, outcomes, workload)
        else:
            fail(
                "kill-armed",
                "the run finished without reaching its kill window",
            )
        exitcodes = cluster.close()
        cluster = None
        if any(code not in (0, None) for code in exitcodes):
            fail("graceful-drain", f"SIGTERM drain exited with {exitcodes}")
    finally:
        if cluster is not None:
            cluster.close(drain=False)
    return census


def run_shard_soak(
    seed: int = 2026,
    shards: int = 2,
    transactions: int = 6,
    stride: int = 1,
    kill_points: Optional[list[int]] = None,
    cluster_class=ShardedGemStone,
) -> ShardSoakReport:
    """Kill every node at every protocol window; verify the invariants.

    *cluster_class* picks the host kind (``ShardedGemStone``: memory,
    ``ProcCluster``: processes).  Kill indexes number the coordinator's
    windows first, then each worker's in shard order, as counted by the
    clean run.  *stride* subsamples windows (smoke runs); *kill_points*
    replaces the sweep with explicit indexes — the CLI's ``--kill``.
    """
    workload = _workload(seed, shards, transactions)
    report = ShardSoakReport(seed=seed, shards=shards, transactions=transactions)
    report.census = _run(report, cluster_class, workload, -1, WindowKiller())
    report.total_windows = len(report.census)
    if report.failures:
        return report

    if kill_points is None:
        sweep = list(range(0, report.total_windows, stride))
    else:
        bad = [k for k in kill_points if not 0 <= k < report.total_windows]
        if bad:
            raise ValueError(
                f"kill points {bad} outside the run's "
                f"{report.total_windows} windows"
            )
        sweep = sorted(set(kill_points))

    for kill in sweep:
        report.kill_points_run += 1
        node = report.census[kill][0]
        # the victim counts only its own windows
        local = sum(1 for other, _name in report.census[:kill] if other == node)
        _run(
            report, cluster_class, workload, kill,
            WindowKiller(node, kill_at=local),
        )
    return report
