"""The ``overload`` kind of :mod:`repro.check`: shed with a typed answer, never wedge, never tear.

The paper's Executor (§6) serves many sessions over links into one
optimistic Transaction Manager.  Offered more work than it can take, it
must refuse the excess with a typed answer.  A case drives one of three
hosts (``--host``) into that regime:

* ``herd`` — :data:`CLIENTS` host connections (:class:`HostConnection`),
  :data:`ROUNDS` rounds, against one database over a disk with seeded
  transient faults, through one :class:`AdmissionController` whose queue
  is sized below the herd's demand.  Five clients in eight are honest:
  they read a shared element and write it and a private key, then all
  commit back-to-back — engineered OCC contention, so conflicts, abort
  storms, backoff and starvation aging all fire.  The rest are
  adversaries the governor must kill: a spinner (``[true] whileTrue``)
  and an allocator by the query budget, a hoarder by the session quota.
  A latecomer logs in over the full session gate.
* ``frontdoor`` / ``tcp`` — open-loop arrivals into one
  :class:`FrontDoor` over in-memory links or localhost TCP: ``sessions``
  sessions, one every ``1/rate`` clock units whether or not anyone
  before it was served.  Each logs in, pipelines a request mix (a fifth
  of them writes, some to one contended key it reads first), commits and
  logs out.

Each breach is a failure: a rejection that is not typed (``untyped`` —
an error class the wire did not know, rehydrated as a ``FatalError``
with ``original_class`` set, among them), a session that never
finished (``hung``), an adversary that outlived its budget or quota
(``survived``), a latecomer admitted (``session-gate``), and a key
whose value after reopening the herd's database from the platter is
not its last acknowledged commit (``torn``).

All time but the hung-session limit is the shared
:class:`~repro.faults.plan.FaultClock`, so a case is a function of its
seed.  Case 0 runs at ``--seed``; case K draws its seed from (seed, K).
"""

from __future__ import annotations

import asyncio
import random
from collections import Counter

from ..db import GemStone
from ..errors import (
    FatalError,
    LinkTimeout,
    OverloadedError,
    QueryBudgetExceeded,
    RetryableError,
    SessionQuotaExceeded,
)
from ..executor.executor import HostConnection
from ..faults.disk import FaultyDisk
from ..faults.plan import FaultClock, FaultPlan, FaultSpec
from ..faults.resilience import ResilientDisk
from ..frontdoor.client import AsyncHostConnection
from ..frontdoor.server import FrontDoor
from ..govern import AdmissionController, BudgetSpec, CircuitBreaker, CommitPolicy, QuotaSpec
from ..net.aio import serve_frontdoor, server_port, stream_link_factory
from ..storage.disk import DiskGeometry, SimulatedDisk
from .harness import UsageError

#: the herd: its size, and the disk faults active all the while.  The
#: rates are per track I/O; a herd run makes about 14 of them (a commit
#: writes its data with the contents record behind it, and the root), so
#: a transient rate of 0.3 gives most runs a retry to mask
CLIENTS, ROUNDS = 32, 3
TRANSIENT_RATE, LATENCY_RATE = 0.3, 0.1
#: the herd's admission queue: capacity and drain per clock unit
HERD_QUEUE, HERD_DRAIN = 24.0, 1.0
HERD_TRACKS = DiskGeometry(track_count=4096, track_size=512)

#: the arrivals: default size, requests each, the client's window
SESSIONS, RATE, REQUESTS, WINDOW = 300, 600.0, 4, 4
#: the door's admission: session slots, queue capacity, drain per unit
DOOR_SESSIONS, DOOR_QUEUE, DOOR_DRAIN = 48, 256.0, 64.0
DOOR_TRACKS = DiskGeometry(track_count=2048, track_size=1024)
#: wall seconds after the last arrival before an unfinished session is hung
WALL_LIMIT = 120.0

#: role → (its request, what must kill it; None for an honest client)
_ROLES = {
    "honest": ("World!shared. World!c{index} := {value}. World!shared := {value}", None),
    "spinner": ("[true] whileTrue: [1 + 1]", "budget"),
    "allocator": ("1 to: 1000 do: [:i | Object new]", "budget"),
    "hoarder": ("1 to: 64 do: [:i | World at: i put: i]", "quota"),
}
#: the herd's clients cycle through these roles
_CAST = ("honest",) * 5 + ("spinner", "allocator", "hoarder")

#: each typed rejection the claim allows → the count it lands in
_TYPED = (
    (QueryBudgetExceeded, "budget_kills"),
    (SessionQuotaExceeded, "quota_kills"),
    (OverloadedError, "overload_rejections"),
    (LinkTimeout, "link_timeouts"),
    ((FatalError, RetryableError), "storage_rejections"),
)


def _classify(error: Exception, fail, tally: Counter, where: str) -> None:
    """Count a typed rejection; anything else fails the case."""
    if not hasattr(error, "original_class"):
        for types, name in _TYPED:
            if isinstance(error, types):
                tally[name] += 1
                return
    fail("untyped", f"{where}: {type(error).__name__}: {error}")


def _governance(tally: Counter, db, admission, connections) -> None:
    """What the governors did, the commit backoff charged to the clock too."""
    stats = db.transaction_manager.stats
    tally.update(
        priority_grants=stats.priority_grants,
        storms_detected=stats.storms_detected,
        backoff_units=round(stats.backoff_units, 6),
        client_backoffs=sum(c.overload_backoffs for c in connections),
        queue_sheds=admission.shed_requests,
    )


class Overload:
    """Overload is shed with typed answers: nothing hangs, nothing tears."""

    OPTIONS = {"host": ("herd", "frontdoor", "tcp"), "seed": 2026,
               "sessions": None, "rate": None}
    COUNTS = (
        "completed", "executes", "commits", "conflicts", "verified_keys",
        "budget_kills", "quota_kills", "overload_rejections", "link_timeouts",
        "storage_rejections",
        "shed_logins", "queue_sheds", "client_backoffs", "priority_grants",
        "storms_detected", "backoff_units", "injected_faults", "disk_retries",
    )

    def __init__(self, host: str, seed: int, sessions=None, rate=None) -> None:
        if host == "herd" and (sessions, rate) != (None, None):
            raise UsageError("the herd's size is fixed; --sessions and --rate "
                             "size the front door's arrivals")
        self.host, self.seed = host, seed
        self.sessions = SESSIONS if sessions is None else int(sessions)
        self.rate = RATE if rate is None else float(rate)
        if self.sessions < 1 or self.rate <= 0:
            raise UsageError(f"{self.sessions} sessions at rate {self.rate} "
                             "offer no load")

    def run(self, case: int, fail, counts: dict) -> str:
        seed = self.seed if case == 0 else \
            random.Random(f"overload.{self.seed}.{case}").randrange(1 << 31)
        tally = Counter()
        if self.host == "herd":
            self._herd(seed, fail, tally)
        else:
            asyncio.run(self._arrivals(seed, fail, tally))
        for name, value in tally.items():
            counts[name] += value
        return repr(sorted(tally.items()))

    # -- the herd -------------------------------------------------------------

    def _herd(self, seed: int, fail, tally: Counter) -> None:
        clock = FaultClock()
        plan = FaultPlan(seed=seed, spec=FaultSpec(
            transient_rate=TRANSIENT_RATE, latency_rate=LATENCY_RATE))
        stack = ResilientDisk(
            FaultyDisk(SimulatedDisk(HERD_TRACKS), plan, clock), clock, max_retries=8
        )
        db = GemStone.create(disk=stack)
        db.budget_spec = BudgetSpec(max_steps=20_000, max_send_depth=64, max_allocations=256)
        db.quota_spec = QuotaSpec(max_staged_writes=24, max_workspace_objects=128)
        db.transaction_manager.backoff_clock = clock
        db.transaction_manager.policy = CommitPolicy(
            seed=seed, starvation_threshold=3, priority_timeout=500.0
        )
        admission = AdmissionController(
            clock=clock, max_sessions=CLIENTS, queue_capacity=HERD_QUEUE,
            drain_rate=HERD_DRAIN,
            breaker=CircuitBreaker(clock, failure_threshold=8, reset_after=64.0),
        )
        connections = [
            HostConnection(db, admission=admission, overload_attempts=16)
            for _ in range(CLIENTS)
        ]
        for connection in connections:
            connection.login("DataCurator", "swordfish")
        try:
            HostConnection(db, admission=admission, overload_attempts=1).login(
                "DataCurator", "swordfish")
            fail("session-gate", f"a latecomer was admitted over {CLIENTS} sessions")
        except OverloadedError:
            tally["shed_logins"] += 1

        expected: dict[str, int] = {}
        for round_no in range(ROUNDS):
            staged = []
            # everyone works; the adversaries die by budget or quota here
            for index, connection in enumerate(connections):
                role = _CAST[index % len(_CAST)]
                request, killer = _ROLES[role]
                value = round_no * 100_000 + index
                try:
                    connection.execute(request.format(index=index, value=value))
                except Exception as error:  # noqa: BLE001 — the invariant itself
                    _classify(error, fail, tally, role)
                    if isinstance(error, (SessionQuotaExceeded, OverloadedError)):
                        connection.abort()  # free the workspace; stay logged in
                    continue
                tally["executes"] += 1
                if killer is not None:
                    fail("survived", f"a {role} survived its {killer}")
                else:
                    staged.append((index, value))
            # the staged clients commit back-to-back: one wins the shared
            # key, the rest take conflicts, backoff, then priority grants
            for index, value in staged:
                try:
                    tx_time = connections[index].commit()
                except Exception as error:  # noqa: BLE001
                    _classify(error, fail, tally, "commit")
                    connections[index].abort()
                    continue
                if tx_time is None:
                    tally["conflicts"] += 1
                    continue
                expected[f"c{index}"] = expected["shared"] = value
                tally["commits"] += 1

        for index, connection in enumerate(connections):
            try:
                connection.logout()
                tally["completed"] += 1
            except Exception as error:  # noqa: BLE001
                _classify(error, fail, tally, "logout")
                fail("hung", f"client {index} did not log out")
        _governance(tally, db, admission, connections)
        tally.update(injected_faults=plan.injected, disk_retries=stack.retries)

        # reopened from the platter, every key holds its last commit
        reader = GemStone.open(stack).login()
        for key, value in sorted(expected.items()):
            found = reader.execute(f"World!{key}")
            if found != value:
                fail("torn", f"World!{key} is {found!r} after reopen; "
                     f"its last commit wrote {value!r}")
            else:
                tally["verified_keys"] += 1
        reader.close()

    # -- the open-loop arrivals ------------------------------------------------

    async def _arrivals(self, seed: int, fail, tally: Counter) -> None:
        clock = FaultClock()
        admission = AdmissionController(
            clock=clock, max_sessions=DOOR_SESSIONS, queue_capacity=DOOR_QUEUE,
            drain_rate=DOOR_DRAIN,
        )
        db = GemStone.create(disk=SimulatedDisk(DOOR_TRACKS))
        door = FrontDoor(db, admission=admission, window=WINDOW)
        server = None
        if self.host == "tcp":
            server = await serve_frontdoor(door, registry=db.obs.registry)
        loop = asyncio.get_running_loop()
        tasks, connections = [], []
        for index in range(self.sessions):
            dial = None if server is None else stream_link_factory(
                "127.0.0.1", server_port(server), f"lg{seed}.{index}",
                registry=db.obs.registry,
            )
            tasks.append(loop.create_task(self._session(
                index, random.Random((seed << 16) ^ index), door, clock, dial,
                fail, tally, connections,
            )))
            # open loop: the next arrival is due 1/rate clock units later
            # whether or not anyone already here has been served
            clock.advance(1.0 / self.rate)
            await asyncio.sleep(0)
        _done, hung = await asyncio.wait(tasks, timeout=WALL_LIMIT)
        for task in hung:
            task.cancel()
        if hung:
            await asyncio.gather(*hung, return_exceptions=True)
            fail("hung", f"{len(hung)} of {self.sessions} sessions unfinished "
                 f"{WALL_LIMIT:.0f} s after the last arrival")
        if server is not None:
            server.close()
            await server.wait_closed()
        await door.close()
        _governance(tally, db, admission, connections)

    async def _session(self, index, rng, door, clock, dial, fail, tally, connections):
        """One host: login, a pipelined request mix, commit, logout."""
        connection = await AsyncHostConnection.open(
            door.connect() if dial is None else None, link_factory=dial,
            window=WINDOW, clock=clock,
            reply_timeout=2.0,  # localhost does not lose frames
        )
        connections.append(connection)
        try:
            await connection.login("DataCurator", "swordfish")
            wrote, pending = False, []
            for n in range(REQUESTS):
                source = f"{index} + {n}"
                if rng.random() < 0.2:
                    name = "contended" if rng.random() < 0.1 else f"lg{index}"
                    source, wrote = f"World!{name}. World!{name} := {n}", True
                pending.append(await connection.post_execute(source))
            for reply in pending:
                await reply
                tally["executes"] += 1
            if wrote:
                committed = await connection.commit() is not None
                tally["commits" if committed else "conflicts"] += 1
            await connection.logout()
            tally["completed"] += 1
        except Exception as error:  # noqa: BLE001 — the invariant itself
            _classify(error, fail, tally, f"session {index}")
        finally:
            await connection.close()
