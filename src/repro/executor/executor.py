"""The Executor: sessions on behalf of users on host machines.

Section 6: "The Executor is responsible for controlling sessions in the
GemStone system on behalf of users on host machines ... It maintains a
Compiler and Interpreter for each active user."

:class:`Executor` serves the gem side of a link: LOGIN authenticates and
opens a session with its own OPAL engine (the per-user Compiler +
Interpreter), EXECUTE compiles and runs a block of OPAL source entirely
inside the database system, COMMIT/ABORT drive the Transaction Manager,
and errors return as ERROR frames rather than exceptions.  The serve
loop is :class:`~repro.executor.exchange.ReplayingServer`'s, which is
what keeps it alive on bad frames and makes host-side retry safe for
EXECUTE and COMMIT (``docs/networking.md``, "The exactly-once
exchange").

The Executor adds to that server's stages, which the
asynchronous front door (:mod:`repro.frontdoor`) drives with a real
queue between arrival and execution: :meth:`Executor.gate` is
arrival-time admission (deadline + leaky bucket + breaker, a returned
frame means *refused*), :meth:`Executor.apply` executes one admitted
frame (request-ID minting, tracing, the guarded handler), and
:meth:`Executor.decode` / :meth:`Executor.lookup_replay` publish their
counters.  The front door re-checks the deadline between dequeue and
apply, because work can expire while it waits.

:class:`HostConnection` is the host-side convenience wrapper used by
examples and tests (the "user interface program on the host machine"):
the host flavour of :class:`~repro.executor.exchange.ExactlyOnceClient`,
whose link that never answers surfaces as the typed
:class:`~repro.errors.LinkTimeout`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable, Optional

from ..errors import (
    GemStoneError,
    LinkCorruption,
    OverloadedError,
    ProtocolError,
    StorageError,
    TransactionConflict,
)
from ..opal.interpreter import OpalEngine
from . import protocol
from .exchange import ExactlyOnceClient, ReplayingServer
from .link import LinkEnd, make_link
from .protocol import Frame, FrameType
from .replay import DEFAULT_WINDOW


class Executor(ReplayingServer):
    """Serves one host link against a database."""

    def __init__(
        self, database, admission=None, replay_window: int = DEFAULT_WINDOW
    ) -> None:
        super().__init__(self._handle, replay_window)
        self.database = database
        #: shared :class:`~repro.govern.admission.AdmissionController`
        #: (None = no admission control, the embedded/trusted default)
        self.admission = admission
        #: the database's observability hub: request IDs are minted here,
        #: at the edge where work enters the system (section 6's Executor)
        self.obs = getattr(database, "obs", None)
        if self.obs is not None:
            if admission is not None:
                self.obs.register_admission(admission)
            # the one counter every request touches, resolved once
            self._requests_counter = self.obs.registry.counter("executor.requests")
        self._session = None
        self._engine: Optional[OpalEngine] = None
        self.deadline_rejections = 0

    # -- the stages this server adds to (see ReplayingServer) ---------------

    def decode(self, raw: bytes) -> Frame:
        """Decode one wire frame, counting transit damage before raising."""
        try:
            return super().decode(raw)
        except LinkCorruption:
            if self.obs is not None:
                self.obs.registry.inc("executor.corrupt_frames")
            raise

    def lookup_replay(self, frame: Frame) -> Optional[bytes]:
        """The sealed response a duplicate should get, or None if fresh."""
        cached = super().lookup_replay(frame)
        if cached is not None and self.obs is not None:
            self.obs.registry.inc("executor.replays")
        return cached

    def apply(self, frame: Frame) -> tuple[bytes, Optional[int]]:
        """Execute one admitted frame → (response bytes, request id)."""
        obs = self.obs
        request_id = None
        if obs is not None:
            # the request ID is born here and rides the thread (and the
            # response envelope) through every layer the request touches
            request_id = obs.tracer.next_request_id()
            obs.tracer.current_request = request_id
            self._requests_counter.inc()
        try:
            if obs is not None and obs.tracer.enabled:
                with obs.tracer.span("executor.request", frame=frame.type.name):
                    response = self._guarded_handle(frame)
            else:
                response = self._guarded_handle(frame)
        finally:
            if obs is not None:
                obs.tracer.current_request = None
        return response, request_id

    def _guarded_handle(self, frame: Frame) -> bytes:
        """The handler, with *every* exception answered as an ERROR frame."""
        try:
            return self.handler(frame)
        except Exception as error:  # never let a request kill the serve loop
            return protocol.encode_error(type(error).__name__, str(error))

    def _handle(self, frame: Frame) -> bytes:
        if frame.type is FrameType.LOGIN:
            return self._login(frame.fields["user"], frame.fields["password"])
        if self._session is None:
            return protocol.encode_error("ProtocolError", "not logged in")
        if frame.type is FrameType.EXECUTE:
            return self._execute(frame.fields["source"])
        if frame.type is FrameType.COMMIT:
            try:
                tx_time = self._session.commit()
                self._note_outcome(failed=False)
                # an empty sharded transaction commits without a tx_time
                return protocol.encode_committed(tx_time if tx_time is not None else 0)
            except TransactionConflict:
                # contention, not system failure: the breaker stays shut
                return protocol.encode_simple(FrameType.CONFLICT)
            except StorageError:
                self._note_outcome(failed=True)
                raise
        if frame.type is FrameType.ABORT:
            self._session.abort()
            return protocol.encode_simple(FrameType.ABORTED)
        if frame.type is FrameType.LOGOUT:
            self.hangup()
            return protocol.encode_simple(FrameType.BYE)
        raise ProtocolError(f"unexpected frame {frame.type.name}")

    # -- admission ----------------------------------------------------------

    def gate(self, frame: Frame) -> Optional[bytes]:
        """Arrival-time load gates for one request; a frame means *refused*.

        Only EXECUTE and COMMIT cost real work, and only once a session
        exists; everything else passes.  The front door calls this when
        a request arrives and :meth:`deadline_frame` again when the
        request is dequeued — a deadline can expire while work queues.
        """
        if self.admission is None or self._session is None:
            return None
        if frame.type not in (FrameType.EXECUTE, FrameType.COMMIT):
            return None
        late = self.deadline_frame(frame)
        if late is not None:
            return late
        try:
            self.admission.admit_request()
        except OverloadedError as error:
            return protocol.encode_overloaded(error.retry_after)
        return None

    def deadline_frame(self, frame: Frame) -> Optional[bytes]:
        """A typed ``DeadlineExceeded`` frame if *frame* expired, else None.

        Never run a query whose client has given up: checked at arrival
        (inside :meth:`gate`) and re-checked by the front door at
        dequeue time, where queueing delay may have consumed the budget.
        """
        if self.admission is None or frame.deadline is None:
            return None
        if self.admission.clock.now <= frame.deadline:
            return None
        self.deadline_rejections += 1
        if self.obs is not None:
            self.obs.registry.inc("executor.deadline_rejections")
        return protocol.encode_error(
            "DeadlineExceeded",
            f"deadline {frame.deadline:.1f} passed at "
            f"{self.admission.clock.now:.1f}; not serving stale work",
        )

    def hangup(self) -> None:
        """Close the session and release its slot (LOGOUT or a dead link)."""
        if self._session is None:
            return
        self._session.close()
        self._session = None
        self._engine = None
        if self.admission is not None:
            self.admission.release_session()

    def _note_outcome(self, failed: bool) -> None:
        """Feed the circuit breaker with system-level outcomes."""
        if self.admission is None:
            return
        if failed:
            self.admission.record_failure()
        else:
            self.admission.record_success()

    def _login(self, user: str, password: str) -> bytes:
        if self.admission is not None:
            try:
                self.admission.admit_session()
            except OverloadedError as error:
                return protocol.encode_overloaded(error.retry_after)
        try:
            self._session = self.database.login(user, password)
        except GemStoneError:
            if self.admission is not None:
                self.admission.release_session()  # the slot never opened
            raise
        self._engine = self._session.engine
        return protocol.encode_login_ok(self._session.session.session_id)

    def _execute(self, source: str) -> bytes:
        try:
            value = self._session.execute(source)
        except StorageError:
            self._note_outcome(failed=True)
            raise
        self._note_outcome(failed=False)
        # the session renders its own display: a GemSession printStrings
        # through its object manager, a ShardedSession relays the wire
        # display its shard already produced
        display = self._session.display(value)
        return protocol.encode_result(value, display)


class HostConnection(ExactlyOnceClient):
    """Host-side client: login, execute blocks of OPAL, commit, logout.

    The host flavour of the exactly-once exchange: *link_factory* builds
    the (host_end, gem_end) pair — pass
    :func:`~repro.faults.link.make_faulty_link` partials to interpose a
    lossy link — so the connection can always reconnect, and exhaustion
    is :class:`~repro.errors.LinkTimeout`.  What it adds is the session
    verbs and the OVERLOADED resubmit loop.
    """

    def __init__(
        self,
        database,
        link_factory: Callable[[], tuple] = make_link,
        max_attempts: int = 5,
        admission=None,
        overload_attempts: int = 8,
        request_deadline: Optional[float] = None,
    ) -> None:
        if overload_attempts < 1:
            raise ValueError("overload_attempts must be at least 1")
        self._link_factory = link_factory
        self.executor = Executor(database, admission=admission)
        self.admission = admission
        self.session_id: Optional[int] = None
        #: OVERLOADED answers tolerated (each backed off) per request
        self.overload_attempts = overload_attempts
        self.overload_backoffs = 0
        super().__init__(
            clock=admission.clock if admission is not None else None,
            link_factory=self._dial,
            deadline=request_deadline,
            max_attempts=max_attempts,
        )

    def _dial(self) -> LinkEnd:
        # in-memory links are half-duplex queues: pump the server side
        # ourselves; socket links (gem_end None) have a live server on
        # the far side of the wire
        host_end, gem_end = self._link_factory()
        self.pump = (
            None if gem_end is None else partial(self.executor.serve, gem_end)
        )
        return host_end

    @property
    def host_end(self):
        """The host's end of the current link (replaced on reconnect)."""
        return self.link

    def _request(self, frame: bytes) -> Frame:
        """One logical request: exchanges + typed overload backoff.

        An OVERLOADED answer is not a failure of the link, so it gets its
        own (bounded) retry loop: back off for the carried retry-after —
        on the shared deterministic clock when there is one, in real
        time (1–50 ms) over a socket — then try again under a *new*
        sequence number: the shed request was never applied, so replay
        protection is not wanted.  Exhaustion surfaces as the typed,
        retryable :class:`~repro.errors.OverloadedError`.
        """
        retry_after = 0.0
        for _attempt in range(self.overload_attempts):
            response = self.request(frame)
            if response.type is not FrameType.OVERLOADED:
                return response
            retry_after = response.fields["retry_after"]
            self.overload_backoffs += 1
            if self.clock is not None:
                self.clock.advance(max(retry_after, 0.5))
            else:
                time.sleep(min(max(retry_after, 0.001), 0.05))
        raise OverloadedError(
            f"still shedding after {self.overload_attempts} backoffs",
            retry_after=retry_after,
        )

    def _call(self, frame: bytes) -> Frame:
        """:meth:`_request`, with an ERROR answer raised as its typed
        exception (:func:`~repro.executor.protocol.rehydrate_error`)."""
        return protocol.raise_if_error(self._request(frame))

    def login(self, user: str, password: str) -> int:
        """Authenticate; returns the session id."""
        response = self._call(protocol.encode_login(user, password))
        self.session_id = response.fields["session_id"]
        return self.session_id

    def execute(self, source: str) -> tuple[Any, str]:
        """Run a block of OPAL; returns (wire value, display string).

        The wire value is an immediate or a
        :class:`~repro.core.values.Ref`; hosts dereference through
        further OPAL, as the paper's hosts did.
        """
        response = self._call(protocol.encode_execute(source))
        return response.fields["value"], response.fields["display"]

    def commit(self) -> Optional[int]:
        """Commit; returns the transaction time, or None on conflict."""
        response = self._call(protocol.encode_simple(FrameType.COMMIT))
        if response.type is FrameType.CONFLICT:
            return None
        return response.fields["tx_time"]

    def abort(self) -> None:
        """Abort the current transaction."""
        self._request(protocol.encode_simple(FrameType.ABORT))

    def logout(self) -> None:
        """End the session."""
        self._request(protocol.encode_simple(FrameType.LOGOUT))
        self.session_id = None
