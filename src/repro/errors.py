"""Exception hierarchy for the GemStone reproduction.

Every error raised by the library derives from :class:`GemStoneError`, so
applications can catch one type at the session boundary.  Subsystems raise
the most specific subclass that applies; the Executor maps these onto error
frames returned to the host (see :mod:`repro.executor.protocol`).
"""

from __future__ import annotations


class GemStoneError(Exception):
    """Base class for all errors raised by the repro library."""


# --------------------------------------------------------------------------
# Retryability taxonomy
# --------------------------------------------------------------------------
#
# Robustness errors carry one of two operational verdicts, so callers can
# write one policy instead of enumerating failure modes:
#
# * :class:`RetryableError` — transient.  The same request may succeed if
#   simply retried, possibly after backing off (``retry_after`` simulated
#   units, when the raiser knows a good delay).
# * :class:`FatalError` — non-transient.  Retrying the identical request
#   cannot succeed without some intervention first: an operator repairing
#   a volume, a session aborting its transaction, a query being rewritten.
#
# The two are disjoint by construction; tests assert no error class ever
# inherits both.


class RetryableError(GemStoneError):
    """Transient: the same request may succeed on retry (after backoff)."""

    #: suggested wait before retrying, in simulated time units (None when
    #: the raiser has no estimate)
    retry_after: float | None = None


class FatalError(GemStoneError):
    """Non-transient: retrying cannot succeed without intervention."""


# --------------------------------------------------------------------------
# Object model (repro.core)
# --------------------------------------------------------------------------

class ObjectModelError(GemStoneError):
    """Base class for errors in the GSDM object layer."""


class NoSuchObject(ObjectModelError):
    """An oid does not name any object in the store."""

    def __init__(self, oid: int) -> None:
        super().__init__(f"no object with oid {oid}")
        self.oid = oid


class ElementNotFound(ObjectModelError):
    """An object has no binding for an element name at the requested time."""

    def __init__(self, name: object, time: object = None) -> None:
        at = "" if time is None else f" at time {time}"
        super().__init__(f"no element {name!r}{at}")
        self.name = name
        self.time = time


class TimeTravelError(ObjectModelError):
    """A write was attempted at, or before, an already-recorded time."""


class PathError(ObjectModelError):
    """A path expression is syntactically invalid or cannot be resolved."""


class ClassProtocolError(ObjectModelError):
    """A message was sent that the receiver's class does not implement."""


class DoesNotUnderstand(ClassProtocolError):
    """Smalltalk's doesNotUnderstand: no method found for a selector."""

    def __init__(self, class_name: str, selector: str) -> None:
        super().__init__(f"{class_name} does not understand #{selector}")
        self.class_name = class_name
        self.selector = selector


class ViewError(ObjectModelError):
    """A view definition is invalid or an unsupported view update was made."""


# --------------------------------------------------------------------------
# STDM calculus / algebra (repro.stdm)
# --------------------------------------------------------------------------

class QueryError(GemStoneError):
    """Base class for set-calculus and set-algebra errors."""


class CalculusError(QueryError):
    """A set-calculus expression is malformed or cannot be evaluated."""


class TranslationError(QueryError):
    """A calculus expression cannot be translated to algebra."""


# --------------------------------------------------------------------------
# OPAL language (repro.opal)
# --------------------------------------------------------------------------

class OpalError(GemStoneError):
    """Base class for OPAL language errors."""


class LexError(OpalError):
    """A character sequence cannot be tokenized."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(OpalError):
    """A token sequence is not a valid OPAL program."""


class CompileError(OpalError):
    """A parsed OPAL program cannot be compiled to bytecodes."""


class OpalRuntimeError(OpalError):
    """An error raised while the Interpreter executes bytecodes."""


# --------------------------------------------------------------------------
# Storage (repro.storage)
# --------------------------------------------------------------------------

class StorageError(GemStoneError):
    """Base class for secondary-storage errors."""


class DiskError(StorageError):
    """A simulated disk rejected an operation."""


class DiskCrashed(DiskError):
    """The simulated disk hit its injected crash point; writes are lost."""


class TransientDiskError(DiskError, RetryableError):
    """A retryable I/O failure (injected by a fault plan); retry may succeed."""


class DegradedError(StorageError, FatalError):
    """A resilient volume exhausted its retry budget and went read-only."""


class StaleReplicaError(StorageError, RetryableError):
    """Every live replica holds only a superseded copy of the track.

    Retryable: a down replica holding the current copy may come back, and
    read-repair heals stale copies the moment a good one is served.
    """


class ChecksumError(StorageError):
    """A track's stored checksum does not match its contents."""


class TrackOverflow(StorageError):
    """A record fragment was larger than a track's payload capacity."""


class CodecError(StorageError):
    """A byte sequence is not a valid encoding of an object or value."""


class RecoveryError(StorageError):
    """No valid root record could be found while opening a database."""


class ArchiveError(StorageError):
    """An archived (off-line) object was accessed, or archival failed."""


class ReplicationError(StorageError):
    """Base class for replication-log shipping and recovery errors."""


class ReplicaNotAcknowledged(ReplicationError, RetryableError):
    """A shipped log record was never acknowledged within the retry budget.

    Retryable: the link may heal, and :meth:`LogShipper.catch_up` resends
    everything the replica is missing from its acknowledged epoch.
    """


class ReplicationGapError(ReplicationError, RetryableError):
    """A replica's log is missing epochs; a catch-up resync is required."""


class TornLogRecord(ReplicationError):
    """A replication log record failed its framing or checksum.

    Raised when validating a record before appending it — a torn record
    is *rejected*, never stored, so the log itself stays replayable.
    """


# --------------------------------------------------------------------------
# Sharding (repro.shard)
# --------------------------------------------------------------------------

class ShardError(GemStoneError):
    """Base class for sharded-object-space and cross-shard-commit errors."""


class ShardRoutingError(ShardError, FatalError):
    """A statement could not be routed to exactly one shard.

    Fatal for the statement: one statement may touch keys owned by a
    single shard only — a transaction spans shards by issuing several
    statements, each routable on its own.
    """


class ShardUnavailable(ShardError, RetryableError):
    """A shard worker stopped answering within the retry/deadline budget."""


class CoordinatorUnavailable(ShardError, RetryableError):
    """The commit coordinator stopped answering; undecided work presumes abort."""


class TransactionInDoubt(ShardError, RetryableError):
    """A cross-shard commit lost its coordinator mid-protocol.

    The outcome is unknown to the *client* (the decision log knows): a
    prepared participant neither committed nor aborted yet.  Retryable in
    the operational sense — once the coordinator restarts, in-doubt
    participants are resolved from its durable decision log and the
    transaction lands on exactly one side.
    """


# --------------------------------------------------------------------------
# Concurrency (repro.concurrency)
# --------------------------------------------------------------------------

class ConcurrencyError(GemStoneError):
    """Base class for transaction and session errors."""


class TransactionConflict(ConcurrencyError, RetryableError):
    """Optimistic validation failed: a concurrent commit invalidated reads.

    Retryable in the OCC sense: the workspace is discarded, but replaying
    the transaction body against the fresh state may well succeed.
    """

    def __init__(self, message: str, conflicts: tuple = ()) -> None:
        super().__init__(message)
        self.conflicts = conflicts


class SessionClosed(ConcurrencyError):
    """An operation was issued on a closed session."""


class AuthorizationError(ConcurrencyError):
    """The session's user lacks the privilege for an operation."""


# --------------------------------------------------------------------------
# Directories (repro.directories)
# --------------------------------------------------------------------------

class DirectoryError(GemStoneError):
    """Base class for directory (index) errors."""


# --------------------------------------------------------------------------
# Executor (repro.executor)
# --------------------------------------------------------------------------

class ProtocolError(GemStoneError):
    """A malformed frame was received on the host link."""


class LinkCorruption(ProtocolError):
    """A sequenced frame failed its checksum: damaged in transit, not malformed."""


class LinkTimeout(ProtocolError, RetryableError):
    """No response arrived on the host link within the retry budget."""


# --------------------------------------------------------------------------
# Resource governance (repro.govern)
# --------------------------------------------------------------------------

class GovernanceError(GemStoneError):
    """Base class for resource-governance errors (budgets, quotas, load)."""


class QueryBudgetExceeded(GovernanceError, FatalError):
    """A query exhausted its fuel (steps, send depth, or allocations).

    Fatal for the query: re-running the identical block spends the same
    fuel.  The session survives — only the offending execution dies.
    """

    def __init__(self, limit: str, spent: int, cap: int) -> None:
        super().__init__(f"query budget exceeded: {limit} {spent} > cap {cap}")
        self.limit = limit
        self.spent = spent
        self.cap = cap


class SessionQuotaExceeded(GovernanceError, FatalError):
    """A session's workspace grew past its quota (staged writes/objects).

    Fatal for the transaction: the same staged work cannot fit.  Aborting
    (discarding the workspace) frees the quota and the session lives on.
    """

    def __init__(self, resource: str, used: int, cap: int) -> None:
        super().__init__(f"session quota exceeded: {resource} {used} >= cap {cap}")
        self.resource = resource
        self.used = used
        self.cap = cap


class OverloadedError(GovernanceError, RetryableError):
    """The system shed this request under load; retry after backing off."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(GovernanceError, RetryableError):
    """A request's deadline passed before it could be served."""
