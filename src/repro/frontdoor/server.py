"""The asynchronous session front door: one loop, thousands of links.

The paper's Executor "controls sessions ... on behalf of users on host
machines" (section 6); at production concurrency that means one event
loop multiplexing every host link instead of one blocking serve loop per
link.  :class:`FrontDoor` runs each link as a cheap pair of coroutines
in the SEDA style — explicit queues between stages, back-pressure at
every seam, overload degrading into *typed* refusals instead of
collapse:

* the **reader** awaits frames off the async link, answers replays
  straight from the Executor's bounded ``(channel, seq)`` replay window,
  runs arrival-time admission (deadline check, leaky bucket, circuit
  breaker — a refused request is answered immediately with a typed
  OVERLOADED or ``DeadlineExceeded`` frame), and enqueues admitted work
  on the link's bounded dispatch queue.  A full queue parks the reader,
  which stops draining the link, which eventually parks the client's
  ``send`` — back-pressure all the way to the edge;
* the **dispatcher** dequeues one request at a time (per-session order
  is preserved; sessions interleave freely on the loop), *re-checks the
  request's deadline* — queueing delay may have consumed the client's
  patience, and work whose client has given up is shed, not executed —
  then applies the frame through the same
  :class:`~repro.executor.executor.Executor` stages the synchronous
  path uses, seals the response into the replay window, and sends it.

The queue exists for the request that arrives *behind* something.  One
that arrives on an idle link — nothing queued, nothing being answered,
no frame buffered behind it — would be the dispatcher's next item
anyway, so the reader runs the dispatcher's step itself
(:meth:`FrontDoor._answer`, the one apply-seal-send body both share)
and the request skips a queue hand-off and a task wake-up.  Which of
the two happens is read off the link and the backlog, never configured.

Because refused requests are answered by the reader while earlier,
admitted requests are still queued, responses can legitimately overtake
one another: hosts must correlate responses to requests by sequence
number, never by arrival order (:mod:`repro.frontdoor.client` does).
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from ..errors import LinkCorruption, ProtocolError
from ..executor import protocol
from ..executor.executor import Executor
from ..executor.protocol import FrameType
from ..executor.replay import DEFAULT_WINDOW
from .alink import AsyncLinkEnd, make_async_link

#: default bound on one session's dispatch queue (the server-side
#: pipelining window); must stay below the replay window so a duplicate
#: can never outlive its cached response
DEFAULT_SESSION_WINDOW = 8

#: parked (resumable) sessions kept after their transport dropped; the
#: oldest parked session beyond this is hung up for real
DEFAULT_RESUMABLE_SESSIONS = 256


class _Resumable:
    """One token's session state, surviving transport drops.

    ``parked`` is set while no connection is bound to the token; a
    resume of a still-bound token aborts the old link and waits for its
    serve loop to park before the new connection proceeds — that
    ordering is what lets each serve use a fresh in-flight set without
    racing the old dispatcher.
    """

    __slots__ = ("executor", "link", "parked")

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.link = None
        self.parked = asyncio.Event()
        self.parked.set()


class _Backlog:
    """One link's admitted work that has not been answered yet."""

    __slots__ = ("queue", "inflight", "unfinished")

    def __init__(self, window: int) -> None:
        #: bounded: a full queue parks the reader (and transitively the
        #: client's send) once `window` requests wait on this session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=window)
        #: (channel, seq) keys enqueued but not yet sealed: the replay
        #: window only covers *sealed* responses, so without this set a
        #: duplicate arriving while its original still queues would pass
        #: admission as new load and be applied twice
        self.inflight: set = set()
        #: requests handed to the queue whose answer has not been sent
        self.unfinished = 0


class FrontDoor:
    """Multiplexes every host link of one database on one event loop."""

    def __init__(
        self,
        database,
        admission=None,
        window: int = DEFAULT_SESSION_WINDOW,
        replay_window: int = DEFAULT_WINDOW,
    ) -> None:
        if window < 1:
            raise ValueError("the session window must be at least 1")
        if replay_window < 2 * window:
            raise ValueError(
                "the replay window must be at least twice the session "
                "window, or a pipelined duplicate could outlive its "
                "cached response"
            )
        self.database = database
        self.admission = admission
        self.window = window
        self.replay_window = replay_window
        self.obs = getattr(database, "obs", None)
        if self.obs is not None:
            self.obs.register_frontdoor(self)
            # what every request touches, resolved once
            registry = self.obs.registry
            self._depth_gauge = registry.gauge("frontdoor.queue_depth")
            self._latency = registry.histogram("frontdoor.latency_ms")
        # lifetime counters: the ``frontdoor`` snapshot section
        self.links_served = 0
        self.active_links = 0
        self.requests = 0
        self.replays = 0
        self.shed_overload = 0
        self.shed_deadline = 0
        self.corrupt_frames = 0
        self.protocol_errors = 0
        self.max_queue_depth = 0
        self.queued = 0
        self.suppressed_duplicates = 0
        self.resumed_links = 0
        self.max_resumable = DEFAULT_RESUMABLE_SESSIONS
        #: HELLO token → parked-or-active session state (insertion order
        #: doubles as resume recency for eviction)
        self._sessions: dict[str, _Resumable] = {}
        self._tasks: set[asyncio.Task] = set()

    # -- wiring --------------------------------------------------------------

    def connect(self, capacity: Optional[int] = None) -> AsyncLinkEnd:
        """Open one link: returns the host end, serves the gem end.

        Must be called with a running event loop; the serve coroutine is
        scheduled as a task the front door tracks until the link closes.
        """
        if capacity is None:
            host_end, gem_end = make_async_link()
        else:
            host_end, gem_end = make_async_link(capacity)
        self.spawn(gem_end)
        return host_end

    def spawn(self, gem_end) -> asyncio.Task:
        """Serve *gem_end* (any async-link-shaped endpoint) as a task."""
        task = asyncio.get_running_loop().create_task(self.serve(gem_end))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def close(self) -> None:
        """Cancel every live link task (the overload check's teardown)."""
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        for entry in self._sessions.values():
            entry.executor.hangup()
        self._sessions.clear()

    # -- one link ------------------------------------------------------------

    async def serve(self, gem_end) -> None:
        """Serve one host link until it closes or the session logs out.

        A socket link may open with ``HELLO(token)``: the connection is
        then bound to that token's session — created on first sight,
        *resumed* (same executor, same replay window) after a transport
        drop — so the client's resends of unacked seqs replay instead
        of re-applying.  Links that skip HELLO (the in-memory path) get
        a throwaway session exactly as before.
        """
        token: Optional[str] = None
        pending: Optional[bytes] = None
        try:
            first = await gem_end.receive()
        except ProtocolError:
            first = None
        if first is not None:
            token, pending = self._parse_hello(first)
        entry: Optional[_Resumable] = None
        parked: Optional[asyncio.Event] = None
        if token is not None:
            entry = await self._attach(token, gem_end)
            parked = entry.parked
            executor = entry.executor
            await self._safe_send(gem_end, protocol.encode_hello_ok(token))
        else:
            executor = Executor(
                self.database,
                admission=self.admission,
                replay_window=self.replay_window,
            )
        backlog = _Backlog(self.window)
        self.links_served += 1
        self.active_links += 1
        dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch(executor, gem_end, backlog)
        )
        try:
            await self._read(executor, gem_end, backlog, first=pending)
            await backlog.queue.join()  # drain admitted work before hanging up
        finally:
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass
            if entry is not None:
                # resumable: park the session for the next connection
                # (hung up only if evicted); the event we set must be
                # the one our _attach created — a resume may already
                # have installed a fresh one for the next serve
                parked.set()
            else:
                executor.hangup()  # a dead link must free its session slot
            gem_end.close()
            self.active_links -= 1

    def _parse_hello(self, raw: bytes) -> tuple[Optional[str], Optional[bytes]]:
        """Split a link's first frame into (resume token, leftover frame)."""
        try:
            frame = protocol.decode_frame(raw)
        except Exception:
            return None, raw  # let the read loop answer/count it
        if frame.type is FrameType.HELLO:
            return frame.fields["token"], None
        return None, raw

    async def _attach(self, token: str, gem_end) -> _Resumable:
        """Bind *gem_end* to *token*'s session, resuming if it exists.

        If the token is still bound to a live connection (the client
        redialed before the server noticed the drop), the old link is
        aborted and we wait for its serve loop to drain and park —
        everything it admitted is sealed in the replay window before
        the new connection reads a single frame.
        """
        entry = self._sessions.pop(token, None)
        if entry is None:
            entry = _Resumable(
                Executor(
                    self.database,
                    admission=self.admission,
                    replay_window=self.replay_window,
                )
            )
        else:
            if not entry.parked.is_set():
                abort = getattr(entry.link, "abort", None)
                if abort is not None:
                    abort()
                else:
                    entry.link.close()
                await entry.parked.wait()
            self.resumed_links += 1
            if self.obs is not None:
                self.obs.registry.inc("net.reconnects")
        entry.link = gem_end
        entry.parked = asyncio.Event()
        self._sessions[token] = entry
        self._evict_parked()
        return entry

    def _evict_parked(self) -> None:
        while len(self._sessions) > self.max_resumable:
            for token, entry in list(self._sessions.items()):
                if entry.parked.is_set():
                    del self._sessions[token]
                    entry.executor.hangup()
                    break
            else:
                return  # every session is live: nothing to evict

    @staticmethod
    async def _safe_send(gem_end, data: bytes) -> bool:
        """Send, treating a dead transport as 'response undeliverable'.

        The response (when sequenced) is sealed in the replay window, so
        a resumed connection's resend will still find it — losing the
        send here loses nothing.
        """
        try:
            await gem_end.send(data)
            return True
        except ProtocolError:
            return False

    async def _read(
        self, executor: Executor, gem_end, backlog: _Backlog,
        first: Optional[bytes] = None,
    ) -> None:
        """Arrival stage: decode, replay, admit — then answer or enqueue.

        A request that arrives on an idle link (nothing queued, nothing
        being answered, no frame behind it) is answered here, by
        :meth:`_answer`: with nothing ahead of it the queue would hand
        it to the dispatcher next anyway, so the hand-off only adds a
        wake-up.  Anything else takes the queue, which is what lets a
        refusal of a later frame overtake admitted work.
        """
        obs = self.obs
        queue, inflight = backlog.queue, backlog.inflight
        while True:
            if first is not None:
                raw, first = first, None
            else:
                try:
                    raw = await gem_end.receive()
                except ProtocolError:
                    return  # truncated tail on a dying link
                if raw is None:
                    return  # peer closed
            try:
                frame = executor.decode(raw)
            except LinkCorruption:
                self.corrupt_frames += 1
                continue  # damaged in transit: dropped, the host resends
            except Exception as error:  # malformed at the source
                self.protocol_errors += 1
                if not await self._safe_send(
                    gem_end, protocol.encode_error(type(error).__name__, str(error))
                ):
                    return
                continue
            if frame.type is FrameType.HELLO:
                # a duplicated handshake frame mid-stream: ack and move on
                if not await self._safe_send(
                    gem_end, protocol.encode_hello_ok(frame.fields["token"])
                ):
                    return
                continue
            self.requests += 1
            cached = executor.lookup_replay(frame)
            if cached is not None:
                # answered from the replay window without re-entering
                # admission: a resend is not new load
                self.replays += 1
                if not await self._safe_send(gem_end, cached):
                    return
                continue
            if frame.seq is not None and (frame.channel, frame.seq) in inflight:
                # a duplicate of work still queued: its response is
                # already coming, and admitting it again would apply it
                # twice — the in-flight gap the replay window can't see
                self.suppressed_duplicates += 1
                continue
            refused = executor.gate(frame)
            if refused is not None:
                self._count_shed(refused)
                if not await self._safe_send(gem_end, executor.seal(frame, refused)):
                    return
                continue
            depth = queue.qsize() + 1
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            if obs is not None:
                self._depth_gauge.set(depth)
            self.queued += 1
            if backlog.unfinished == 0:
                try:
                    first = gem_end.poll()  # is another frame already here?
                except ProtocolError:
                    first = None  # a dying link: the next receive says so
                if first is None:
                    await self._answer(
                        executor, gem_end, frame, inflight, time.perf_counter()
                    )
                    continue
            if frame.seq is not None:
                inflight.add((frame.channel, frame.seq))
            backlog.unfinished += 1
            await queue.put((frame, time.perf_counter()))
            # NB: the reader keeps draining after a LOGOUT — if the
            # LOGOUT response is lost in transit, the resend must find
            # someone to replay it; only a closed link ends the loop

    async def _dispatch(self, executor: Executor, gem_end, backlog: _Backlog) -> None:
        """Execution stage for queued work, one request at a time."""
        queue = backlog.queue
        while True:
            frame, admitted_at = await queue.get()
            try:
                await self._answer(
                    executor, gem_end, frame, backlog.inflight, admitted_at
                )
            finally:
                backlog.unfinished -= 1
                queue.task_done()

    async def _answer(
        self, executor: Executor, gem_end, frame, inflight: set, admitted_at: float
    ) -> None:
        """Re-check the deadline → apply → seal → send, for one admitted
        request (the reader's, on an idle link; else the dispatcher's)."""
        # work that expired while it waited is shed with a typed frame,
        # never run
        late = executor.deadline_frame(frame)
        if late is not None:
            self.shed_deadline += 1
            response, request_id = late, None
        else:
            response, request_id = executor.apply(frame)
        sealed = executor.seal(frame, response, request_id)
        # sealed into the replay window *before* the in-flight key is
        # dropped: duplicates are covered at every instant
        inflight.discard((frame.channel, frame.seq))
        # a dead transport must NOT end the caller: the queue may still
        # hold admitted work whose effects belong in the replay window
        # (and whose task_done()s unblock serve's queue.join());
        # undeliverable responses are replayed after the client resumes
        await self._safe_send(gem_end, sealed)
        if self.obs is not None:
            self._latency.observe((time.perf_counter() - admitted_at) * 1000.0)

    def _count_shed(self, refused: bytes) -> None:
        kind = refused[0] if refused else 0
        if kind == FrameType.OVERLOADED:
            self.shed_overload += 1
        else:
            self.shed_deadline += 1

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """JSON-ready counters for the ``frontdoor`` snapshot section."""
        return {
            "links_served": self.links_served,
            "active_links": self.active_links,
            "window": self.window,
            "replay_window": self.replay_window,
            "requests": self.requests,
            "queued": self.queued,
            "replays": self.replays,
            "suppressed_duplicates": self.suppressed_duplicates,
            "shed_overload": self.shed_overload,
            "shed_deadline": self.shed_deadline,
            "corrupt_frames": self.corrupt_frames,
            "protocol_errors": self.protocol_errors,
            "max_queue_depth": self.max_queue_depth,
        }


__all__ = ["FrontDoor", "DEFAULT_SESSION_WINDOW"]
