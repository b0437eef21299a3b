"""The exactly-once exchange: one stop-and-wait client, one replaying server.

Every synchronous conversation — host ↔ Executor, cluster ↔ shard
worker, primary ↔ replica — is the same exchange over a blocking link
end (``send`` / ``receive`` / ``close`` / ``peer_closed``): the sender
wraps each request in a checksummed SEQ envelope and resends it until
the reply with the same sequence number arrives; the receiver applies
each ``(channel, seq)`` at most once and answers every resend from its
:class:`~repro.executor.replay.ReplayWindow`.  Both halves live here,
once; the flavours (``HostConnection`` / ``RequestChannel`` /
``LogShipper`` sending, ``Executor`` / shard worker / ``LogReceiver``
receiving) plug in a frame family, an error type and a handler.  ``docs/networking.md`` ("The exactly-once
exchange") is the prose version.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import (
    GemStoneError,
    LinkCorruption,
    LinkTimeout,
    ProtocolError,
    RetryableError,
)
from . import protocol
from .protocol import Frame, FrameType
from .replay import DEFAULT_WINDOW, ReplayWindow

#: replies a client files for *other* sequence numbers before the
#: oldest is forgotten
STASH_LIMIT = 32


class ExactlyOnceClient:
    """The sending half: one request in flight, resent until answered.

    *link* is the client's link end; leave it out and *link_factory*
    (a callable returning a fresh connected end) dials the first one.
    What is passed decides what the ladder can do, nothing is a switch:
    with a *link_factory* a silent or closed link is replaced and the
    request resent (the peer's replay window keeps that exactly-once),
    without one a closed link is the typed error at once; a *pump*
    drains the peer after each send (in-memory links are half-duplex
    queues — a socket peer answers by itself); a *clock* charges each
    retry to simulated time (*policy*'s seeded jittered backoff, else
    the flat *retry_delay*) and, with a *deadline*, stamps ``clock.now
    + deadline`` into each envelope and stops retrying past it.
    *channel* is stamped too, so two streams can share one link.
    Exhaustion raises *unavailable*, ``retry_after`` set if retryable.
    """

    def __init__(
        self,
        link=None,
        pump: Optional[Callable[[], None]] = None,
        clock=None,
        *,
        link_factory: Optional[Callable[[], object]] = None,
        channel: Optional[int] = None,
        deadline: Optional[float] = None,
        retry_delay: float = 1.0,
        max_attempts: int = 5,
        unavailable: type = LinkTimeout,
        policy=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.link_factory = link_factory
        self.pump = pump
        self.clock = clock
        self.channel = channel
        self.deadline = deadline
        self.retry_delay = retry_delay
        self.max_attempts = max_attempts
        self.unavailable = unavailable
        self.policy = policy
        #: replies that arrived for other sequence numbers, keyed by seq
        #: — reordered delivery must correlate, never discard
        self.stash: dict[int, Frame] = {}
        self.retries = 0
        self.reconnects = 0
        self.timeouts = 0
        self.deadline_failures = 0
        self._seq = 0
        # dialed last: a flavour's factory may rely on the fields above
        self.link = link if link is not None else link_factory()

    def reconnect(self) -> None:
        """Replace the link with a fresh one; the peer's session survives."""
        self.link.close()
        self.link = self.link_factory()
        self.reconnects += 1

    def request(self, inner: bytes) -> Frame:
        """Send *inner* exactly once; the reply frame (ERROR included).

        First miss: resend on the same link (a dropped frame).  Repeated
        misses or a closed peer: reconnect first, if a factory allows.
        Attempt budget or deadline spent: raise *unavailable*.
        """
        self._seq += 1
        seq, clock = self._seq, self.clock
        deadline = None
        if clock is not None and self.deadline is not None:
            deadline = clock.now + self.deadline
        envelope = protocol.encode_seq(
            seq, inner, deadline=deadline, channel=self.channel
        )
        for attempt in range(self.max_attempts):
            if attempt:
                self.retries += 1
                if clock is not None:
                    clock.advance(
                        self.policy.backoff_delay(attempt, False)
                        if self.policy is not None else self.retry_delay
                    )
                    if deadline is not None and clock.now > deadline:
                        self.deadline_failures += 1
                        break
                if self.link_factory is not None and (
                    attempt > 1 or self.link.peer_closed
                ):
                    self.reconnect()
            try:
                self.link.send(envelope)
            except ProtocolError:
                if self.link_factory is None:
                    break  # the link itself is closed: the peer is gone
                self.reconnect()
                self.link.send(envelope)
            if self.pump is not None:
                self.pump()
            reply = self._receive_matching(seq)
            if reply is not None:
                return reply
        self.timeouts += 1
        error = self.unavailable(
            f"no reply to channel {self.channel} seq {seq} within "
            f"{self.max_attempts} attempts / deadline {self.deadline}"
        )
        if isinstance(error, RetryableError):
            error.retry_after = self.retry_delay
        raise error

    def _receive_matching(self, seq: int) -> Optional[Frame]:
        """The intact reply for *seq*, or None when the link runs dry.

        Replies are matched by sequence number, never arrival order: one
        for a different seq of this stream — a delayed replay, a shed
        answer overtaking queued work — is *stashed* for its own request
        (bounded; oldest forgotten), so reordering cannot force a
        spurious timeout.  Damaged replies, a socket resume's
        unsequenced ``HELLO_OK`` and another channel's strays are
        skipped; any other unsequenced reply (the peer could not read
        our envelope) answers whatever is in flight.
        """
        if self.stash:
            stashed = self.stash.pop(seq, None)
            if stashed is not None:
                return stashed
        while True:
            try:
                raw = self.link.receive()
            except ProtocolError:
                return None  # truncated tail on a dying link: retry
            if raw is None:
                return None
            try:
                frame = protocol.decode_frame(raw)
            except ProtocolError:
                continue  # damaged in transit: keep draining
            if frame.seq is None:
                if frame.type is FrameType.HELLO_OK:
                    continue
                return frame
            if frame.channel != self.channel:
                continue
            if frame.seq == seq:
                return frame
            self.stash.setdefault(frame.seq, frame)
            while len(self.stash) > STASH_LIMIT:
                self.stash.pop(next(iter(self.stash)))


class ReplayingServer:
    """The receiving half: decode → replay → gate → apply → seal → send.

    *handler* maps one decoded, never-seen-before :class:`Frame` to
    response bytes.  A :class:`~repro.errors.GemStoneError` it raises is
    answered as an ERROR frame; anything else (the soaks' kill signals)
    escapes :meth:`serve` — a dead process does not answer.  The stages
    are methods because the asynchronous front door drives the same
    ones with a queue between arrival and execution.
    """

    def __init__(
        self,
        handler: Callable[[Frame], bytes],
        replay_window: int = DEFAULT_WINDOW,
    ) -> None:
        self.handler = handler
        #: bounded ``(channel, seq)``-keyed window: every sealed response
        #: is remembered, so a delayed duplicate replays, never re-applies
        self.replay = ReplayWindow(replay_window)
        self.corrupt_frames = 0

    @property
    def replays(self) -> int:
        """Duplicates answered from the replay window, not re-applied."""
        return self.replay.replays

    def serve(self, link, drain=None, after_send=None) -> int:
        """Answer every frame on *link*; returns how many were handled.

        Without a *drain* flag the link is an in-memory queue: the loop
        ends when it is empty.  With one (a ``threading.Event``) the
        link's ``receive`` blocks for a budget: an expired budget polls
        the flag; end-of-stream or a failed send ends the loop.
        *after_send(frame)* runs once a frame that was actually applied
        — not replayed, not malformed — has been answered.
        """
        handled = 0
        while drain is None or not drain.is_set():
            try:
                raw = link.receive()
            except ProtocolError:
                break  # truncated tail on a dying link
            if raw is None:
                if drain is None or link.peer_closed:
                    break
                continue
            handled += 1
            response, applied = self.respond(raw)
            if response is None:
                continue  # damaged in transit: dropped, the sender resends
            try:
                link.send(response)
            except ProtocolError:
                break
            if applied is not None and after_send is not None:
                after_send(applied)
        return handled

    def respond(self, raw: bytes) -> tuple[Optional[bytes], Optional[Frame]]:
        """One request → (response or None-to-drop, the frame if applied)."""
        try:
            frame = self.decode(raw)
        except LinkCorruption:
            return None, None
        except Exception as error:  # malformed at the source: worth answering
            return protocol.encode_error(type(error).__name__, str(error)), None
        cached = self.lookup_replay(frame)
        if cached is not None:
            return cached, None
        response, request_id = self.gate(frame), None
        if response is None:
            response, request_id = self.apply(frame)
        return self.seal(frame, response, request_id), frame

    # -- the stages (shared with repro.frontdoor) ---------------------------

    def decode(self, raw: bytes) -> Frame:
        """Decode one wire frame, counting transit damage before raising."""
        try:
            return protocol.decode_frame(raw)
        except LinkCorruption:
            self.corrupt_frames += 1
            raise

    def lookup_replay(self, frame: Frame) -> Optional[bytes]:
        """The sealed response a duplicate should get, or None if fresh."""
        return self.replay.lookup(frame.channel, frame.seq)

    def gate(self, frame: Frame) -> Optional[bytes]:
        """Arrival-time admission; a returned frame means *refused*."""
        return None

    def apply(self, frame: Frame) -> tuple[bytes, Optional[int]]:
        """Execute one admitted frame → (response bytes, request id)."""
        try:
            return self.handler(frame), None
        except GemStoneError as error:
            return protocol.encode_error(type(error).__name__, str(error)), None

    def seal(
        self,
        frame: Frame,
        response: bytes,
        request_id: Optional[int] = None,
    ) -> bytes:
        """Envelope a response for *frame* and record it for replays."""
        if frame.seq is None:
            return response
        sealed = protocol.encode_seq(
            frame.seq, response, request_id=request_id, channel=frame.channel
        )
        self.replay.store(frame.channel, frame.seq, sealed)
        return sealed
