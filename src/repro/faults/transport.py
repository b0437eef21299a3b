"""Socket-level fault injection for the TCP transport (``repro.net``).

``FaultyAsyncLink`` perturbs whole frames; a real wire fails *under*
the framing layer.  ``FaultyTransport`` wraps a ``StreamLink``-shaped
async endpoint and injects the three socket-native failure modes:

- **disconnect-mid-frame** — write a seeded prefix of the
  length-prefixed frame, then hard-close the connection (RST).  The
  receiver sees a truncated frame on a closed link; the client
  reconnects and resends unacked seqs;
- **stalled read** — sleep before delivering the next frame, modelling
  a congested or half-wedged peer;
- **split write (1-byte dribble)** — deliver the frame one byte per
  write/drain cycle, exercising every partial-read path in the framer.

Faults are drawn from one seeded ``random.Random`` held by a
``TransportFaults`` schedule shared across reconnections, so a whole
session — drops, redials, and all — replays from its seed.
"""

from __future__ import annotations

import asyncio
import random
import struct

from ..errors import ProtocolError

_HEADER = struct.Struct("<I")


class SocketFaultSpec:
    """Rates for each socket-level fault (independent draws per frame)."""

    def __init__(
        self,
        disconnect_rate: float = 0.0,
        stall_rate: float = 0.0,
        dribble_rate: float = 0.0,
        stall_seconds: float = 0.02,
        max_disconnects: int | None = None,
    ) -> None:
        self.disconnect_rate = disconnect_rate
        self.stall_rate = stall_rate
        self.dribble_rate = dribble_rate
        self.stall_seconds = stall_seconds
        #: bound on injected disconnects (None = unbounded) so a seeded
        #: run cannot livelock redialing forever
        self.max_disconnects = max_disconnects


class TransportFaults:
    """One seeded fault schedule, shared across a session's transports.

    Each reconnection wraps its fresh link in a new
    :class:`FaultyTransport` carrying this same schedule, so the fault
    stream (and the counters the tests assert on) continues across
    transport generations instead of resetting.
    """

    def __init__(self, spec: SocketFaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.disconnects = 0
        self.stalls = 0
        self.dribbles = 0

    def wrap(self, link) -> "FaultyTransport":
        return FaultyTransport(link, self)

    def draw_send(self) -> str | None:
        spec = self.spec
        roll = self.rng.random()
        if roll < spec.disconnect_rate and self._disconnect_budget():
            return "disconnect"
        if roll < spec.disconnect_rate + spec.dribble_rate:
            return "dribble"
        return None

    def draw_receive(self) -> str | None:
        spec = self.spec
        roll = self.rng.random()
        if roll < spec.stall_rate:
            return "stall"
        return None

    def _disconnect_budget(self) -> bool:
        cap = self.spec.max_disconnects
        return cap is None or self.disconnects < cap


class FaultyTransport:
    """A ``StreamLink`` wrapper injecting seeded socket-level faults."""

    def __init__(self, inner, faults: TransportFaults) -> None:
        self.inner = inner
        self.faults = faults

    async def send(self, frame: bytes) -> None:
        fault = self.faults.draw_send()
        # below the framing: a ``StreamLink``'s raw write (an in-memory
        # end has none, and takes the frame whole)
        write = getattr(self.inner, "write", None)
        if fault == "disconnect":
            self.faults.disconnects += 1
            data = _HEADER.pack(len(frame)) + frame
            cut = self.faults.rng.randrange(1, len(data))
            if write is not None:
                try:
                    await write(data[:cut])
                except ProtocolError:
                    pass
            abort = getattr(self.inner, "abort", self.inner.close)
            abort()
            raise ProtocolError("link is closed")
        if fault == "dribble":
            self.faults.dribbles += 1
            if write is None:
                await self.inner.send(frame)
                return
            data = _HEADER.pack(len(frame)) + frame
            for i in range(len(data)):
                await write(data[i : i + 1])
                await asyncio.sleep(0)
            self.inner.frames_sent += 1
            self.inner.bytes_sent += len(data)
            return
        await self.inner.send(frame)

    async def receive(self) -> bytes | None:
        if self.faults.draw_receive() == "stall":
            self.faults.stalls += 1
            await asyncio.sleep(self.faults.spec.stall_seconds)
        return await self.inner.receive()

    def close(self) -> None:
        self.inner.close()

    def abort(self) -> None:
        abort = getattr(self.inner, "abort", self.inner.close)
        abort()

    @property
    def peer_closed(self) -> bool:
        return self.inner.peer_closed


__all__ = ["FaultyTransport", "SocketFaultSpec", "TransportFaults"]
