"""Host-link wrappers that inject planned frame and socket faults.

:class:`FaultyLink` mirrors the :class:`~repro.executor.link.LinkEnd`
interface, so either side of a connection can be wrapped without the
peer noticing.  Outgoing frames consult the plan:

* **drop** — the frame vanishes (the host's retry loop must resend);
* **duplicate** — the frame is delivered twice (the Executor's replay
  cache must deduplicate);
* **truncate** — a prefix of the frame is delivered as a complete wire
  frame, so the payload checksum fails at the receiver;
* **reorder** — the frame is held back and delivered *after* the next
  frame sent on the same direction (at most one frame is in the hold
  slot at a time), so receivers must correlate by sequence number
  rather than arrival order;
* **partition** — an explicit state (not rate-drawn): every frame sent
  into a partition is lost until :meth:`heal`, modelling a severed
  host ↔ Gem connection that forces a reconnect.
"""

from __future__ import annotations

import asyncio
from contextlib import suppress

from ..errors import ProtocolError
from ..executor.link import LinkEnd, make_link
from .plan import FaultPlan


class LinkFaults:
    """The fault decision for one link endpoint, made once per send.

    Holds the plan, the partition state, the reorder hold slot and the
    counters; :meth:`deliveries` turns one outgoing frame into the
    decision and the frames that actually reach the wire.  The blocking
    :class:`FaultyLink` and the awaitable :class:`FaultyAsyncLink` are
    each a loop over that result, so both stacks face byte-identical
    fault schedules.
    Everything but ``send`` (``receive``, ``close``, ``peer_closed``,
    the traffic counters) is the wrapped end's own.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.partitioned = False
        self.dropped = 0
        self.duplicated = 0
        self.truncated = 0
        self.reordered = 0
        #: the frame a "reorder" decision held back, delivered after the
        #: next frame that actually reaches the wire
        self._held: bytes | None = None

    def deliveries(self, frame: bytes) -> tuple[str, list[bytes]]:
        """One send's decision and the frames it puts on the wire (a
        socket outcome delivers as "none" does)."""
        if self.partitioned:
            self.dropped += 1
            return "partition", []
        fault = self.plan.link_fault(len(frame))
        if fault == "drop":
            self.dropped += 1
            return fault, []
        if fault == "truncate" and len(frame) > 1:
            self.truncated += 1
            return fault, [frame[: max(1, len(frame) // 2)]]
        if fault == "reorder" and self._held is None:
            # hold this frame; it rides out behind the next delivery
            # (a held frame with no successor is simply a drop, which
            # the sender's retry loop already covers)
            self.reordered += 1
            self._held = frame
            return fault, []
        wire = [frame]
        if self._held is not None:
            wire.append(self._held)
            self._held = None
        if fault == "duplicate":
            self.duplicated += 1
            wire.append(frame)
        return fault, wire

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def partition(self) -> None:
        """Sever this direction: all sends are lost until :meth:`heal`."""
        self.partitioned = True

    def heal(self) -> None:
        """Restore delivery after a partition."""
        self.partitioned = False


class FaultyLink(LinkFaults):
    """Injects a :class:`FaultPlan`'s link faults on one link endpoint."""

    def send(self, frame: bytes) -> None:
        for wire in self.deliveries(frame)[1]:
            self.inner.send(wire)


class FaultyAsyncLink(LinkFaults):
    """The awaitable :class:`FaultyLink`, plus the socket outcomes: a
    stall sleeps, then sends; through a ``StreamLink``'s raw ``write`` a
    dribble goes a byte at a time and a disconnect sends a seeded prefix
    (an end with no ``write`` takes a dribble whole, a cut not at all)."""

    async def send(self, frame: bytes) -> None:
        fault, wires = self.deliveries(frame)
        write = getattr(self.inner, "write", None)
        if fault == "stall":
            await asyncio.sleep(self.plan.spec.stall_seconds)
        elif fault == "disconnect":
            data = len(frame).to_bytes(4, "little") + frame
            cut = self.plan.cut_point(len(data))
            if write is not None:
                with suppress(ProtocolError):
                    await write(data[:cut])
            self.inner.abort()
            raise ProtocolError("link is closed")
        for wire in wires:
            if fault != "dribble" or write is None:
                await self.inner.send(wire)
                continue
            data = len(wire).to_bytes(4, "little") + wire
            for i in range(len(data)):
                await write(data[i : i + 1])
                await asyncio.sleep(0)
            self.inner.frames_sent += 1
            self.inner.bytes_sent += len(data)


def make_faulty_link(
    plan: FaultPlan,
    host_faulty: bool = True,
    gem_faulty: bool = True,
) -> tuple[LinkEnd | FaultyLink, LinkEnd | FaultyLink]:
    """A connected (host_end, gem_end) pair with faults on chosen sides."""
    host_end, gem_end = make_link()
    host: LinkEnd | FaultyLink = host_end
    gem: LinkEnd | FaultyLink = gem_end
    if host_faulty:
        host = FaultyLink(host_end, plan)
    if gem_faulty:
        gem = FaultyLink(gem_end, plan)
    return host, gem
