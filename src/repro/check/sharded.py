"""Statement-level differential: N execution stacks, zero divergence.

The sharded cluster (:mod:`repro.shard`) claims to be *transparent*: a
session speaking OPAL through the sharded front end must observe exactly
what it would observe against one monolithic GemStone — same statement
results, same printStrings, same commit outcomes, same final bindings.
This oracle checks that claim the same way the query oracle checks the
calculus→algebra translation: generate a seeded workload, run it down
every stack of a list, and demand byte-identical observations.  The
first stack is always the baseline, one in-process GemStone; the
``--oracle`` picks the rest:

``sharded``
    the cluster over in-memory hosts (``ShardedGemStone``);
``cluster``
    that, and the cluster over worker *processes* on ``FileDisk``
    platters with every frame crossing a real TCP socket
    (``ProcCluster``) — anything the transport, the process boundary
    or the durable platter changes about an answer is a divergence.

The generator only emits statements whose bindings co-reside on one
shard (cross-shard data flow inside a *single* statement is a routing
error by design — see ``docs/sharding.md``), but transactions freely
span shards, so the sweep exercises both the single-shard fast path and
presumed-abort 2PC.  Two collections with the same members, one of them
indexed, take two-sided bracket selects (the shapes of
:func:`~repro.check.generate.bracket_bounds`), each sent twice in one
session: the merged index probe, the scan, the compiled-block cache and
the plan memo must all give the answer the baseline gives.  The pool's
bindings start as long strings, which makes ``World`` a record of
several tracks on every store (the baseline's 4096-byte ones included),
so the transactions' one-binding commits are appended to its tail; and
when the workload is done every database this process holds live — the
baseline, and each shard of the in-process cluster — is reopened cold
from its platter and must read back object for object as the live store
has it (:func:`~repro.dr.verify.reopen_cold_diff`).  Failures
print ``python -m repro.check --seed N --case K --oracle
sharded|cluster`` reproducers, like every other oracle here.
"""

from __future__ import annotations

import random
from typing import Any

from ..db import GemStone
from ..dr.verify import reopen_cold_diff
from ..errors import GemStoneError
from ..shard import ShardedGemStone
from ..shard.cluster import MemoryHost
from ..shard.partition import shard_of
from .generate import bracket_bounds

#: binding pool size per case; names are short so the regex router and
#: the catalog both see realistic, colliding-ish identifiers
_POOL = 8

#: the keys ``n`` of the members both bracket-select collections hold
_NUMBERS = tuple(range(0, 45, 5))

#: length of the string every pool binding starts as: eight of them are
#: more than one 4096-byte track, and any one more than a 512-byte track
_WIDE_VALUE = 600


def generate_shard_workload(
    seed: int, case: int, *, shards: int, transactions: int
) -> list[list[str]]:
    """Seeded transactions of single-shard-routable OPAL statements."""
    rng = random.Random(f"{seed}.{case}.{shards}")
    keys = [f"sd{case}k{i}" for i in range(_POOL)]
    by_shard: dict[int, list[str]] = {}
    for key in keys:
        by_shard.setdefault(shard_of(key, shards), []).append(key)

    # held under their own keys: a pool binding is read back as a plain
    # value, which a Bag is not
    bags = [f"sd{case}bag{i}" for i in range(2)]
    members = " ".join(str(rng.choice(_NUMBERS)) for _ in range(8))
    load = [
        f"| b | b := Bag new. #({members}) do: [:n | | o | o := Object new. "
        f"o!n := n. b add: o]. World!{bag} := b. b size"
        for bag in bags
    ]
    # once the members are committed; the other collection stays a scan
    index = f"System index: (World!{bags[0]}) on: 'n'. (World!{bags[0]}) size"

    def bracket_select() -> str:
        low_op, low, high_op, high = bracket_bounds(rng, _NUMBERS)
        return (
            f"(World!{rng.choice(bags)} select: "
            f"[:o | (o!n {low_op} {low}) & (o!n {high_op} {high})]) "
            "inject: 0 into: [:sum :o | sum + o!n]"
        )

    def statement() -> str:
        target = rng.choice(keys)
        kind = rng.randrange(5)
        if kind == 0:
            return f"World!{target} := {rng.randrange(100)}"
        if kind == 1:
            return f"World!{target} := 'v{rng.randrange(100)}'"
        if kind == 2:  # same-binding read-modify-write
            return (
                f"World!{target} := "
                f"(World!{target} ifNil: [0]) + {rng.randrange(9) + 1}"
            )
        if kind == 3:  # derive from a co-resident binding
            source = rng.choice(by_shard[shard_of(target, shards)])
            return f"World!{target} := (World!{source} ifNil: [-1])"
        return f"World!{target}"  # plain read

    # one binding per transaction: each routes to its own shard, and on
    # every store World outgrows a track before the first small commit
    widen = [[f"World!{key} := '{key:.<{_WIDE_VALUE}}'"] for key in keys]
    workload = [*widen, load, [index]]
    for _ in range(transactions):
        statements = [statement() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.4:
            # twice in one session: the second run is served by the
            # compiled-block cache and the plan memo hanging on it
            statements += [bracket_select()] * 2
        workload.append(statements)
    return workload


def _live_databases(stacks: dict[str, Any]) -> dict[str, GemStone]:
    """The databases of *stacks* that live in this process, by name."""
    found: dict[str, GemStone] = {}
    for name, stack in stacks.items():
        if isinstance(stack, GemStone):
            found[name] = stack
            continue
        for host in stack.hosts:
            if isinstance(host, MemoryHost) and host.alive:
                found[f"{name} shard {host.shard_id}"] = host.worker.db
    return found


def _observe(session, statements: list[str]) -> dict[str, Any]:
    """Run one transaction; every observable it produces, as plain data."""
    results: list[tuple[Any, str]] = []
    try:
        for source in statements:
            value = session.execute(source)
            results.append((value, session.display(value)))
        stamp = session.commit()
        outcome = "committed" if stamp is not None else "empty"
    except GemStoneError as error:
        outcome = type(error).__name__
        session.abort()
    return {"results": results, "outcome": outcome}


def _same(values) -> bool:
    return all(value == values[0] for value in values[1:])


def _side_by_side(observed: dict[str, Any]) -> str:
    """What each stack observed, one aligned line each."""
    width = max(len(name) for name in observed) + 1
    return "\n".join(
        f"{name + ':':<{width}} {value!r}" for name, value in observed.items()
    )


class Sharded:
    """The baseline and the in-process cluster agree statement by statement."""

    COUNTS = ("statements", "commits", "cross_shard_commits")
    PREFIX, FAILED = "sharded", "mismatches"
    #: cluster width and transactions per workload (part of what a seed means)
    SHARDS, TRANSACTIONS = 3, 10

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def stacks(self) -> dict[str, Any]:
        """The named stacks this kind compares, baseline first."""
        return {
            "baseline": GemStone.create(),
            "in-process": ShardedGemStone(shard_count=self.SHARDS),
        }

    def run(self, case: int, fail, counts: dict) -> None:
        """One seeded workload down every stack, compared observable by
        observable."""
        workload = generate_shard_workload(
            self.seed, case, shards=self.SHARDS, transactions=self.TRANSACTIONS
        )
        stacks = self.stacks()
        clusters = list(stacks.values())[1:]

        def note(transaction: int, what: str, values) -> None:
            fail(f"divergence in transaction {transaction}: {what}",
                 _side_by_side(dict(zip(stacks, values))))

        try:
            for t, statements in enumerate(workload):
                seen = [
                    _observe(stack.login(), statements)
                    for stack in stacks.values()
                ]
                counts["statements"] += len(statements)
                outcomes = [one["outcome"] for one in seen]
                if not _same(outcomes):
                    note(t, "commit outcome", outcomes)
                    continue
                if outcomes[0] == "committed":
                    counts["commits"] += 1
                for i, results in enumerate(zip(*(one["results"] for one in seen))):
                    values = [value for value, _display in results]
                    displays = [display for _value, display in results]
                    if not _same(values):
                        note(t, f"statement {i} value ({statements[i]!r})", values)
                    elif not _same(displays):
                        note(t, f"statement {i} display ({statements[i]!r})",
                             displays)

            # the final state: every binding in the pool must agree
            readers = [stack.login() for stack in stacks.values()]
            for key in (f"sd{case}k{i}" for i in range(_POOL)):
                values = [reader.execute(f"World!{key}") for reader in readers]
                if not _same(values):
                    note(-1, f"final value of World!{key}", values)

            shard_counts = [cluster.cross_shard_commits for cluster in clusters]
            counts["cross_shard_commits"] += shard_counts[-1]
            if not _same(shard_counts):
                note(-1, "cross-shard commit count", ["-", *shard_counts])

            for name, database in _live_databases(stacks).items():
                problems = reopen_cold_diff(database)
                if problems:
                    fail("platter against its live store",
                         _side_by_side({name: problems}))
        finally:
            for cluster in clusters:
                cluster.close()


class Cluster(Sharded):
    """Statements agree across all three stacks: baseline, in-process, processes."""

    PREFIX = "cluster"
    SHARDS, TRANSACTIONS = 2, 8

    def stacks(self) -> dict[str, Any]:
        from ..shard.procs import ProcCluster

        return super().stacks() | {"processes": ProcCluster(shard_count=self.SHARDS)}
