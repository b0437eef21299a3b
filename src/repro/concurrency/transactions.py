"""The Transaction Manager: optimistic concurrency control.

Section 6: "The Transaction Manager is shared by all invocations of the
Object Manager, and handles concurrent use of the permanent database in
an optimistic manner.  It records accesses to the database for each
session, and validates them for consistency when a transaction commits."

Scheme: backward validation.  Sessions read freely (each read is
recorded); at commit, under the commit lock, a transaction's read set is
checked against the write sets of every transaction that committed after
it began.  Any overlap — including a *phantom* overlap, where a later
commit wrote some element of an object this transaction enumerated — is
a :class:`~repro.errors.TransactionConflict`; the losing transaction is
aborted (its workspace discarded) rather than made to wait, which is the
optimistic trade the paper chose.

Accesses are recorded by element name: a session's ``reads`` maps each
name to the oids read under it, so a scan's column is one set of oids,
and a prepared (in-doubt) transaction keeps its reads the same way.
Validation probes each committed write ``(oid, name)`` into
``reads[name]`` (writes are few, columns wide), unless the reads are the
fewer.

A successful commit drives the storage pipeline: Linker → (commit
listeners, e.g. the Directory Manager) → Boxer/Commit Manager via
``store.persist``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Any, Callable, Mapping, Optional

from ..errors import OverloadedError, StorageError, TransactionConflict
from ..govern.backoff import CommitPolicy
from ..storage.linker import Linker
from .clock import TransactionClock

#: signature of a commit listener: (tx_time, dirty_objects, writes, creations)
CommitListener = Callable[[int, list, list, list], None]


def _read_conflicts(
    writes: frozenset,
    reads: Mapping[Any, AbstractSet[int]],
    read_count: int,
    ties_to_reads: bool = True,
) -> set:
    """*writes* & *reads* as (oid, name) pairs, computed as a set
    intersection is: walk the smaller side (on a tie the reads, or the
    writes when not *ties_to_reads*) and name each pair as it does
    (``#salary`` or ``'salary'``).  A wide column read is probed by a
    commit's few writes, never expanded."""
    if read_count < len(writes) or (ties_to_reads and read_count == len(writes)):
        return {
            (oid, name)
            for name, oids in reads.items()
            for oid in oids
            if (oid, name) in writes
        }
    return {(oid, name) for oid, name in writes if oid in reads.get(name, ())}


@dataclass
class CommittedTransaction:
    """The validation footprint one commit leaves behind."""

    tx_time: int
    writes: frozenset  # of (oid, element name)
    written_oids: frozenset  # of oid


@dataclass
class PreparedTransaction:
    """Phase one of a cross-shard commit: a validated, detached workspace.

    Between PREPARE and DECIDE the transaction is *in doubt*: it has
    voted yes and must remain committable, so its full read/write
    footprint stays registered with the Transaction Manager and every
    concurrent validation treats it as a lock — any overlap (read-write,
    write-read, or write-write) conflicts the later committer.  The
    workspace content (creations, writes, new classes) is detached from
    the session, which immediately begins a fresh transaction.
    """

    gtid: str
    session_id: int
    creations: list
    write_log: list
    new_classes: dict
    writes: frozenset  # of (oid, element name)
    written_oids: frozenset  # of oid
    reads: dict  # element name -> frozenset of oid
    enum_reads: frozenset  # of oid


@dataclass
class TransactionStats:
    """Counters the OCC benchmarks report."""

    commits: int = 0
    aborts: int = 0
    read_only_commits: int = 0
    validations: int = 0
    storage_failures: int = 0
    # two-phase-commit counters (repro.shard)
    prepares: int = 0
    prepared_commits: int = 0
    prepared_aborts: int = 0
    # contention-policy counters
    conflict_retries: int = 0
    backoff_units: float = 0.0
    storms_detected: int = 0
    priority_grants: int = 0
    priority_rejections: int = 0

    @property
    def abort_rate(self) -> float:
        """Fraction of attempted read-write commits that conflicted."""
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0


class TransactionManager:
    """Shared coordinator: validation, commit times, the commit pipeline."""

    def __init__(
        self,
        store,
        clock: Optional[TransactionClock] = None,
        policy: Optional[CommitPolicy] = None,
        backoff_clock=None,
    ) -> None:
        self.store = store
        self.clock = clock or TransactionClock(start=store.last_tx_time)
        self.linker = Linker(store)
        self.stats = TransactionStats()
        self._policy = policy or CommitPolicy()
        if backoff_clock is None:
            # imported lazily: repro.faults pulls in the soak harness,
            # which imports the full database stack
            from ..faults.plan import FaultClock

            backoff_clock = FaultClock()
        #: deterministic clock all contention backoff is charged to
        self.backoff_clock = backoff_clock
        #: optional :class:`~repro.obs.Observability` (wired by GemStone):
        #: commit spans + commit/abort/retry counters land there
        self.obs = None
        self._lock = threading.RLock()
        self._log: list[CommittedTransaction] = []
        self._active: dict[int, int] = {}  # session_id -> start time
        #: in-doubt cross-shard transactions, keyed by global txn id
        self._prepared: dict[str, PreparedTransaction] = {}
        self._listeners: list[CommitListener] = []
        # contention-policy state
        self._streaks: dict[int, int] = {}  # session_id -> abort streak
        self._outcomes: deque[bool] = deque(  # True = abort
            maxlen=self._policy.storm_window
        )
        self._storming = False
        self._priority_session: Optional[int] = None
        self._priority_granted_at = 0.0

    @property
    def policy(self) -> CommitPolicy:
        """The contention policy; assigning one resizes the storm window."""
        return self._policy

    @policy.setter
    def policy(self, policy: CommitPolicy) -> None:
        self._policy = policy
        self._outcomes = deque(self._outcomes, maxlen=policy.storm_window)
        self._storming = False

    # -- listeners ---------------------------------------------------------------

    def add_commit_listener(self, listener: CommitListener) -> None:
        """Register a callable run inside each commit, after the Linker.

        The Directory Manager uses this to restructure directories "as
        needed" (section 6) with the committing transaction's writes.
        """
        self._listeners.append(listener)

    # -- session lifecycle -----------------------------------------------------------

    def begin(self, session) -> None:
        """Start a (new) transaction for *session*."""
        with self._lock:
            session.start_time = self.clock.latest
            self._active[session.session_id] = session.start_time

    def end_session(self, session) -> None:
        """Forget an ending session."""
        with self._lock:
            self._active.pop(session.session_id, None)
            session.reset_transaction_state()

    def abort(self, session) -> None:
        """Discard the session's workspace and begin a fresh transaction."""
        with self._lock:
            session.reset_transaction_state()
            self.begin(session)

    # -- commit ------------------------------------------------------------------------

    def commit(self, session) -> int:
        """Validate and commit *session*'s transaction; return its time.

        On conflict the transaction is aborted (workspace discarded, new
        transaction begun) and :class:`TransactionConflict` is raised
        carrying the conflicting (oid, element) pairs.
        """
        obs = self.obs
        if obs is None:
            return self._commit(session)
        with obs.tracer.span("txn.commit") as span:
            try:
                tx_time = self._commit(session)
            except TransactionConflict:
                obs.registry.inc("txn.aborts")
                span.note(outcome="conflict")
                raise
            except StorageError:
                obs.registry.inc("txn.storage_failures")
                span.note(outcome="storage_failure")
                raise
            span.note(tx_time=tx_time)
        obs.registry.inc("txn.commits")
        return tx_time

    def _commit(self, session) -> int:
        with self._lock:
            if not session.has_uncommitted_changes:
                self.stats.read_only_commits += 1
                self.begin(session)
                return self.clock.latest

            self._enforce_priority(session)
            conflicts = self._validate(session)
            if conflicts:
                self.stats.aborts += 1
                delay = self._record_abort(session)
                self.abort(session)
                error = TransactionConflict(
                    f"validation failed on {len(conflicts)} element(s)",
                    conflicts=tuple(sorted(conflicts, key=repr)),
                )
                error.retry_after = delay
                raise error

            tx_time = self.clock.assign()
            creations = list(session.creations)
            writes = list(session.write_log)
            dirty = self.linker.incorporate(creations, writes, tx_time)
            for listener in self._listeners:
                listener(tx_time, dirty, writes, creations)
            try:
                self.store.persist(
                    dirty,
                    tx_time,
                    new_classes=session.new_classes(),
                    deltas=self.linker.deltas,
                )
            except StorageError:
                # the storage stack failed mid-pipeline (injected crash,
                # degraded volume): nothing became durable, so discard
                # the workspace and begin fresh — the session object
                # survives the failure and can retry after recovery
                self.stats.storage_failures += 1
                self.abort(session)
                raise
            self._log.append(
                CommittedTransaction(
                    tx_time=tx_time,
                    writes=frozenset((w.oid, w.name) for w in writes),
                    written_oids=frozenset(w.oid for w in writes),
                )
            )
            self._trim_log()
            self.stats.commits += 1
            self._record_success(session)
            session.reset_transaction_state()
            self.begin(session)
            return tx_time

    # -- two-phase commit (repro.shard) ------------------------------------------

    def prepare(self, session, gtid: str) -> Optional[PreparedTransaction]:
        """Phase one: validate *session*'s transaction and detach it as *gtid*.

        On success the workspace is detached into a
        :class:`PreparedTransaction` that every later validation treats
        as a lock, the session begins a fresh transaction, and the
        participant may vote yes.  A read-only transaction returns
        ``None`` — there is nothing to lock, the participant votes yes
        read-only and drops out of phase two.  On conflict the workspace
        is discarded and :class:`TransactionConflict` is raised: the
        participant votes no.
        """
        with self._lock:
            if gtid in self._prepared:
                return self._prepared[gtid]  # idempotent re-prepare
            if not session.has_uncommitted_changes:
                self.begin(session)
                return None
            conflicts = self._validate(session)
            if conflicts:
                self.stats.aborts += 1
                delay = self._record_abort(session)
                self.abort(session)
                error = TransactionConflict(
                    f"prepare failed on {len(conflicts)} element(s)",
                    conflicts=tuple(sorted(conflicts, key=repr)),
                )
                error.retry_after = delay
                raise error
            prepared = PreparedTransaction(
                gtid=gtid,
                session_id=session.session_id,
                creations=list(session.creations),
                write_log=list(session.write_log),
                new_classes=session.new_classes(),
                writes=frozenset((w.oid, w.name) for w in session.write_log),
                written_oids=frozenset(w.oid for w in session.write_log),
                reads={
                    name: frozenset(oids) for name, oids in session.reads.items()
                },
                enum_reads=frozenset(session.enum_reads),
            )
            self._prepared[gtid] = prepared
            self.stats.prepares += 1
            if self.obs is not None:
                self.obs.registry.inc("txn.prepares")
            session.reset_transaction_state()
            self.begin(session)
            return prepared

    def commit_prepared(self, gtid: str, note=None) -> int:
        """Phase two, commit side: apply the prepared workspace durably.

        *note* (name → bytes) goes to the store's note in the same safe
        group write — the shard worker passes its in-doubt set without
        *gtid*, so no crash can leave the applied data and the record of
        what is still prepared disagreeing.  Raises ``KeyError`` for an
        unknown gtid.
        """
        with self._lock:
            prepared = self._prepared[gtid]
            tx_time = self.clock.assign()
            dirty = self.linker.incorporate(
                prepared.creations, prepared.write_log, tx_time
            )
            for listener in self._listeners:
                listener(tx_time, dirty, prepared.write_log, prepared.creations)
            try:
                self.store.persist(
                    dirty,
                    tx_time,
                    new_classes=prepared.new_classes,
                    deltas=self.linker.deltas,
                    note=note,
                )
            except StorageError:
                # nothing became durable; the transaction stays prepared
                # (in doubt) for a later retry or post-restart resolution
                self.stats.storage_failures += 1
                raise
            del self._prepared[gtid]
            self._log.append(
                CommittedTransaction(
                    tx_time=tx_time,
                    writes=prepared.writes,
                    written_oids=prepared.written_oids,
                )
            )
            self._trim_log()
            self.stats.commits += 1
            self.stats.prepared_commits += 1
            if self.obs is not None:
                self.obs.registry.inc("txn.prepared_commits")
            return tx_time

    def abort_prepared(self, gtid: str) -> bool:
        """Phase two, abort side: drop the prepared workspace and its locks."""
        with self._lock:
            prepared = self._prepared.pop(gtid, None)
            if prepared is None:
                return False
            self.stats.prepared_aborts += 1
            if self.obs is not None:
                self.obs.registry.inc("txn.prepared_aborts")
            return True

    def in_doubt(self) -> list[str]:
        """Gtids prepared but not yet decided, in prepare order."""
        with self._lock:
            return list(self._prepared)

    # -- contention policy -------------------------------------------------------

    def _enforce_priority(self, session) -> None:
        """Push other committers back while a starving session holds
        priority, so it finally validates against a quiet log."""
        holder = self._priority_session
        if holder is None or holder == session.session_id:
            return
        age = self.backoff_clock.now - self._priority_granted_at
        if age > self.policy.priority_timeout or holder not in self._active:
            self._priority_session = None  # the grant lapsed
            return
        self.stats.priority_rejections += 1
        raise OverloadedError(
            f"session {holder} holds commit priority",
            retry_after=self.policy.priority_retry_after,
        )

    def _record_abort(self, session) -> float:
        """Note a conflict: streaks, storm window, aging, backoff charge.

        Returns the jittered backoff delay, already charged to the
        deterministic clock, so the caller can carry it to the session.
        """
        self._note_outcome(aborted=True)
        streak = self._streaks.get(session.session_id, 0) + 1
        self._streaks[session.session_id] = streak
        if (
            streak >= self.policy.starvation_threshold
            and self._priority_session is None
        ):
            self._priority_session = session.session_id
            self._priority_granted_at = self.backoff_clock.now
            self.stats.priority_grants += 1
        delay = self.policy.backoff_delay(streak, self._storming)
        self.backoff_clock.advance(delay)
        self.stats.backoff_units += delay
        return delay

    def _record_success(self, session) -> None:
        self._note_outcome(aborted=False)
        self._streaks.pop(session.session_id, None)
        if self._priority_session == session.session_id:
            self._priority_session = None  # the grant served its purpose

    def _note_outcome(self, aborted: bool) -> None:
        self._outcomes.append(aborted)
        window = self._outcomes
        storming = (
            len(window) == self.policy.storm_window
            and sum(window) / len(window) >= self.policy.storm_threshold
        )
        if storming and not self._storming:
            self.stats.storms_detected += 1
        self._storming = storming

    @property
    def storming(self) -> bool:
        """True while the outcome window shows an abort storm."""
        return self._storming

    def run_transaction(self, session, body: Callable[[Any], Any]) -> int:
        """Run *body* and commit, retrying under the contention policy.

        OCC discards the loser's workspace, so a conflicted transaction
        cannot simply re-commit — *body* is re-executed against the fresh
        state each attempt (it must therefore be idempotent in intent).
        Backoff is charged to the deterministic clock inside ``commit``;
        priority pushbacks wait out their ``retry_after``.  Raises the
        last typed error when ``max_attempts`` is exhausted.
        """
        last_error: Optional[Exception] = None
        for _attempt in range(self.policy.max_attempts):
            try:
                body(session)
                return session.commit()
            except TransactionConflict as error:
                last_error = error
                self.stats.conflict_retries += 1
                if self.obs is not None:
                    self.obs.registry.inc("txn.conflict_retries")
            except OverloadedError as error:
                last_error = error
                self.backoff_clock.advance(
                    error.retry_after or self.policy.priority_retry_after
                )
                # discard the pushed-back workspace: every attempt must
                # re-run *body* from a clean transaction, or staged
                # read-modify-writes would compound across retries
                session.abort()
        assert last_error is not None
        raise last_error

    def _validate(self, session) -> set:
        """Backward validation against commits since the session began.

        Prepared (in-doubt) cross-shard transactions are also checked,
        as locks: they voted yes and must stay committable, so any
        read-write, write-read, or write-write overlap conflicts the
        *later* committer regardless of start times.
        """
        self.stats.validations += 1
        conflicts: set = set()
        reads = session.reads
        read_count = sum(map(len, reads.values()))
        for committed in self._log:
            if committed.tx_time <= session.start_time:
                continue
            conflicts |= _read_conflicts(committed.writes, reads, read_count)
            for oid in committed.written_oids & session.enum_reads:
                conflicts.add((oid, "<enumeration>"))
        if self._prepared:
            session_writes = frozenset(
                (w.oid, w.name) for w in session.write_log
            )
            session_written_oids = frozenset(
                w.oid for w in session.write_log
            )
            for prepared in self._prepared.values():
                conflicts |= _read_conflicts(prepared.writes, reads, read_count)
                conflicts |= prepared.writes & session_writes
                count = sum(map(len, prepared.reads.values()))
                conflicts |= _read_conflicts(
                    session_writes, prepared.reads, count, ties_to_reads=False
                )
                for oid in prepared.written_oids & session.enum_reads:
                    conflicts.add((oid, "<enumeration>"))
                for oid in session_written_oids & prepared.enum_reads:
                    conflicts.add((oid, "<enumeration>"))
        return conflicts

    def _trim_log(self) -> None:
        """Drop log entries no active transaction could conflict with."""
        if not self._active:
            self._log.clear()
            return
        horizon = min(self._active.values())
        self._log = [entry for entry in self._log if entry.tx_time > horizon]

    # -- SafeTime ------------------------------------------------------------------------

    def safe_time(self) -> int:
        """Section 5.4's SafeTime.

        Commit times are assigned at commit, strictly after every
        committed time, so the latest committed time is already immune
        to change by any running transaction.
        """
        return self.clock.latest

    # -- introspection ------------------------------------------------------------------

    def active_count(self) -> int:
        """Number of sessions with an open transaction."""
        with self._lock:
            return len(self._active)
