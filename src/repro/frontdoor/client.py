"""The asynchronous host connection: a pipelined, exactly-once client.

The synchronous :class:`~repro.executor.executor.HostConnection` is
stop-and-wait: one request in flight, one response awaited.  This client
keeps up to ``window`` requests in flight on one link (the pipelining
window), which makes two disciplines mandatory:

* **correlation by sequence number** — the front door legitimately
  answers out of order (a shed request is refused at arrival while
  earlier admitted work is still queued), so a receiver task files every
  response with the future that requested its seq; arrival order means
  nothing;
* **replay-safe retries** — a request that goes unanswered is resent
  under the *same* sequence number, and the server's bounded
  ``(channel, seq)`` replay window guarantees at-most-once application;
  an OVERLOADED answer is resubmitted under a *new* sequence number
  (the shed request was never applied, so replay protection is not
  wanted) after backing off for the carried retry-after.

Requests are sent in submission order — the window semaphore and a send
lock keep the wire order equal to the sequence order — but loss can
still deliver them to the dispatcher out of order; callers that need
happens-before (an EXECUTE its COMMIT must see) await the earlier
response first, exactly as they would over TCP on a real network.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from ..errors import (
    GemStoneError,
    LinkTimeout,
    OverloadedError,
)
from ..executor import protocol
from ..executor.protocol import Frame, FrameType


class AsyncHostConnection:
    """Pipelined client over one async link (build with :meth:`open`)."""

    def __init__(
        self,
        host_end,
        window: int = 4,
        max_attempts: int = 5,
        overload_attempts: int = 8,
        reply_timeout: float = 0.05,
        clock=None,
        request_deadline: Optional[float] = None,
        channel: Optional[int] = None,
        link_factory=None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if overload_attempts < 1:
            raise ValueError("overload_attempts must be at least 1")
        self.host_end = host_end
        self.window = window
        self.max_attempts = max_attempts
        self.overload_attempts = overload_attempts
        #: wall seconds to wait for a response before resending
        self.reply_timeout = reply_timeout
        #: the deterministic clock deadlines and backoff are charged to
        #: (shared with the server's admission controller)
        self.clock = clock
        #: clock units after "now" each request stays worth serving
        self.request_deadline = request_deadline
        self.channel = channel
        #: rebuilds the transport after a drop (an async factory; usually
        #: :func:`repro.net.aio.stream_link_factory`, which re-dials and
        #: re-sends the HELLO resume handshake); None = in-memory link,
        #: no reconnect possible
        self.link_factory = link_factory
        self.session_id: Optional[int] = None
        self.retries = 0
        self.reconnects = 0
        self.overload_backoffs = 0
        self._seq = 0
        self._window = asyncio.Semaphore(window)
        self._send_lock = asyncio.Lock()
        self._reconnect_lock = asyncio.Lock()
        self._link_epoch = 0
        self._closing = False
        self._pending: dict[int, asyncio.Future] = {}
        self._receiver: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, host_end, **kwargs) -> "AsyncHostConnection":
        """Build a connection and start its receiver task.

        *host_end* may be None when a ``link_factory`` is supplied; the
        first transport is then dialed here.
        """
        connection = cls(host_end, **kwargs)
        if connection.host_end is None:
            if connection.link_factory is None:
                raise ValueError("host_end or link_factory is required")
            connection.host_end = await connection._redial()
        connection._receiver = asyncio.get_running_loop().create_task(
            connection._receive_loop()
        )
        return connection

    async def close(self) -> None:
        """Stop the receiver and close the link."""
        self._closing = True
        if self._receiver is not None:
            self._receiver.cancel()
            try:
                await self._receiver
            except asyncio.CancelledError:
                pass
            self._receiver = None
        if self.host_end is not None:
            self.host_end.close()

    # -- correlation ---------------------------------------------------------

    async def _receive_loop(self) -> None:
        """File every response with the future that owns its seq."""
        while True:
            try:
                raw = await self.host_end.receive()
            except GemStoneError:
                continue  # truncated tail; senders will retry
            if raw is None:
                # peer closed: redial when we can (the server parks the
                # session under our HELLO token; unacked seqs are resent
                # by their waiting _complete tasks on the new transport,
                # in seq order, and land as replays when already applied)
                if self._closing or self.link_factory is None:
                    return  # in-flight requests time out
                if not await self._reconnect(self._link_epoch):
                    return
                continue
            try:
                frame = protocol.decode_frame(raw)
            except GemStoneError:
                continue  # damaged in transit: the resend will arrive
            if frame.seq is None:
                continue  # unsequenced noise on a sequenced conversation
            future = self._pending.get(frame.seq)
            if future is not None and not future.done():
                future.set_result(frame)
            # else: a replay for a seq already satisfied — drop it

    # -- transport replacement ------------------------------------------------

    async def _redial(self):
        """A fresh transport from ``link_factory``: three tries, 20 then
        40 ms apart (the wire can die during the HELLO itself — a faulty
        transport wraps the handshake too); the last failure escapes."""
        for attempt in range(3):
            try:
                return await self.link_factory()
            except GemStoneError:
                if attempt == 2:
                    raise
                await asyncio.sleep(0.02 * (attempt + 1))

    async def _reconnect(self, seen_epoch: int) -> bool:
        """Replace a dead transport; True once a live link is installed.

        *seen_epoch* is the link epoch the caller observed when its send
        or receive failed: if another task already swapped the transport
        since, there is nothing to do — without this check concurrent
        failures (the receive loop plus several retrying requests) would
        each burn a perfectly good new connection.
        """
        async with self._reconnect_lock:
            if self._link_epoch != seen_epoch or self._closing:
                return self._link_epoch != seen_epoch
            try:
                self.host_end.close()
            except GemStoneError:
                pass
            try:
                self.host_end = await self._redial()
            except GemStoneError:
                return False
            self._link_epoch += 1
            self.reconnects += 1
            return True

    # -- the pipelined request machinery -------------------------------------

    def _deadline(self) -> Optional[float]:
        if self.request_deadline is None or self.clock is None:
            return None
        return self.clock.now + self.request_deadline

    async def _post(self, inner: bytes) -> "asyncio.Task[Frame]":
        """Claim a window slot and send; returns the completion task.

        The send has *happened* by the time this returns, so submission
        order is wire order; the returned task resolves to the response
        frame (retrying under the same seq as needed).
        """
        await self._window.acquire()
        future: Optional[asyncio.Future] = None
        try:
            async with self._send_lock:
                self._seq += 1
                seq = self._seq
                envelope = protocol.encode_seq(
                    seq, inner, deadline=self._deadline(), channel=self.channel
                )
                future = asyncio.get_running_loop().create_future()
                self._pending[seq] = future
                # the fresh link may die under the very first send too
                # (disconnect-mid-frame), so the initial transmission
                # gets the same bounded reconnect ladder as resends
                for _attempt in range(self.max_attempts):
                    epoch = self._link_epoch
                    try:
                        await self.host_end.send(envelope)
                        break
                    except GemStoneError as error:
                        if self.link_factory is None or not await self._reconnect(
                            epoch
                        ):
                            raise LinkTimeout(
                                f"link closed while sending seq {seq}"
                            ) from error
                else:
                    raise LinkTimeout(
                        f"link kept dying while sending seq {seq} "
                        f"({self.max_attempts} attempts)"
                    )
        except BaseException:
            if future is not None:
                self._pending.pop(seq, None)
            self._window.release()
            raise
        return asyncio.get_running_loop().create_task(
            self._complete(seq, envelope, future)
        )

    async def _complete(
        self, seq: int, envelope: bytes, future: asyncio.Future
    ) -> Frame:
        """Await seq's response, resending until it arrives or we give up."""
        try:
            for attempt in range(self.max_attempts):
                if attempt:
                    self.retries += 1
                    epoch = self._link_epoch
                    try:
                        async with self._send_lock:
                            await self.host_end.send(envelope)
                    except GemStoneError as error:
                        if self.link_factory is None or not await self._reconnect(
                            epoch
                        ):
                            raise LinkTimeout(
                                f"link closed while retrying seq {seq}"
                            ) from error
                        try:
                            async with self._send_lock:
                                await self.host_end.send(envelope)
                        except GemStoneError:
                            continue  # next attempt redials again
                try:
                    return await asyncio.wait_for(
                        asyncio.shield(future), self.reply_timeout
                    )
                except asyncio.TimeoutError:
                    continue  # lost somewhere: resend under the same seq
            raise LinkTimeout(
                f"no response to frame seq {seq} "
                f"after {self.max_attempts} attempts"
            )
        finally:
            self._pending.pop(seq, None)
            self._window.release()

    async def _submit(
        self, inner: bytes, decode: Callable[[Frame], Any]
    ) -> "asyncio.Task":
        """Pipeline one logical request; resolves to ``decode(frame)``.

        The first transmission is on the wire before this returns.
        OVERLOADED answers are resubmitted under fresh sequence numbers
        inside the returned task, after the carried backoff.
        """
        first = await self._post(inner)
        return asyncio.get_running_loop().create_task(
            self._finish(first, inner, decode)
        )

    async def _finish(
        self,
        in_flight: "asyncio.Task[Frame]",
        inner: bytes,
        decode: Callable[[Frame], Any],
    ) -> Any:
        retry_after = 0.0
        for _attempt in range(self.overload_attempts):
            frame = await in_flight
            if frame.type is not FrameType.OVERLOADED:
                return decode(frame)
            retry_after = frame.fields["retry_after"]
            self.overload_backoffs += 1
            await self._backoff(retry_after)
            in_flight = await self._post(inner)
        raise OverloadedError(
            f"still shedding after {self.overload_attempts} backoffs",
            retry_after=retry_after,
        )

    async def _backoff(self, retry_after: float) -> None:
        if self.clock is not None:
            # simulated time: advance the shared clock so the leaky
            # bucket drains, then yield so the loop makes progress
            self.clock.advance(max(retry_after, 0.5))
            await asyncio.sleep(0)
        else:
            await asyncio.sleep(min(max(retry_after, 0.001), 0.05))

    async def _request(self, inner: bytes, decode: Callable[[Frame], Any]) -> Any:
        return await (await self._submit(inner, decode))

    # -- response decoders ----------------------------------------------------

    @staticmethod
    def _decode_execute(frame: Frame) -> tuple[Any, str]:
        protocol.raise_if_error(frame)
        return frame.fields["value"], frame.fields["display"]

    @staticmethod
    def _decode_commit(frame: Frame) -> Optional[int]:
        if frame.type is FrameType.CONFLICT:
            return None
        return protocol.raise_if_error(frame).fields["tx_time"]

    @staticmethod
    def _decode_any(frame: Frame) -> Frame:
        return frame

    # -- session protocol -----------------------------------------------------

    async def login(self, user: str, password: str) -> int:
        """Authenticate; returns the session id."""
        frame = await self._request(
            protocol.encode_login(user, password), self._decode_any
        )
        self.session_id = protocol.raise_if_error(frame).fields["session_id"]
        return self.session_id

    async def execute(self, source: str) -> tuple[Any, str]:
        """Run a block of OPAL; returns (wire value, display string)."""
        return await self._request(
            protocol.encode_execute(source), self._decode_execute
        )

    async def post_execute(self, source: str) -> "asyncio.Task":
        """Pipelined :meth:`execute`: sent now, awaited later."""
        return await self._submit(
            protocol.encode_execute(source), self._decode_execute
        )

    async def commit(self) -> Optional[int]:
        """Commit; the transaction time, or None on conflict."""
        return await self._request(
            protocol.encode_simple(FrameType.COMMIT), self._decode_commit
        )

    async def post_commit(self) -> "asyncio.Task":
        """Pipelined :meth:`commit`: sent now, awaited later."""
        return await self._submit(
            protocol.encode_simple(FrameType.COMMIT), self._decode_commit
        )

    async def abort(self) -> None:
        await self._request(
            protocol.encode_simple(FrameType.ABORT), self._decode_any
        )

    async def logout(self) -> None:
        """End the session (the link stays open until :meth:`close`)."""
        await self._request(
            protocol.encode_simple(FrameType.LOGOUT), self._decode_any
        )
        self.session_id = None
