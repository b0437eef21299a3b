"""Request/response plumbing for shard links.

Both sides reuse the Executor's SEQ envelope — checksummed,
sequence-numbered, exactly-once — so shard traffic inherits the whole
fault model (droppable, duplicable, truncatable, wrappable in
:class:`~repro.faults.link.FaultyLink`).  Two additions matter here:

* **channels** — a worker link carries two logical streams (session
  statements and 2PC control); each
  :class:`RequestChannel` stamps its channel id into the envelope so
  the peer's replay cache keys on ``(channel, seq)`` and the streams
  cannot collide after a reconnect.
* **deadlines** — every request carries one, and once it passes the
  sender raises :class:`~repro.errors.ShardUnavailable`.  A dead peer
  costs a bounded amount of simulated time, never a wedge — which is
  what lets a coordinator presume abort and a participant stay safely
  in doubt.

:class:`RequestChannel` is the shard flavour of the one exactly-once
client and the receiving half is the one replaying server, both in
:mod:`repro.executor.exchange` (``docs/networking.md``, "The
exactly-once exchange").  Kill signals (the soak's
:class:`WorkerKilled` / :class:`CoordinatorKilled`) are deliberately
*not* GemStone errors, so they pass straight through the server's
dispatch guard: a dead process does not answer.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ShardUnavailable
from ..executor import protocol
from ..executor.exchange import ExactlyOnceClient
from ..executor.protocol import Frame


class WorkerKilled(Exception):
    """The soak's kill signal for a shard worker — not a GemStoneError,
    so no retry or error-frame layer can swallow it: the worker is gone
    and its link simply stops answering."""


class CoordinatorKilled(Exception):
    """The soak's kill signal for the commit coordinator."""


class RequestChannel(ExactlyOnceClient):
    """One logical request stream over a link end.

    The shard flavour of the client: always on a *channel*, always on
    the deterministic :class:`~repro.faults.plan.FaultClock` with a
    *deadline*, paced by a :class:`repro.govern.CommitPolicy` when given
    one (a herd of channels hammering a silent peer then decorrelates
    exactly like contending committers).  A shard link is never
    re-dialed from here, so a closed link is *unavailable* at once.
    ERROR replies are rehydrated into their typed exceptions and raised.
    """

    def __init__(
        self,
        link,
        pump: Optional[Callable[[], None]],
        clock,
        channel: int = 0,
        deadline: float = 10.0,
        **ladder,  # retry_delay, max_attempts, policy: the client's own
    ) -> None:
        super().__init__(
            link, pump, clock, channel=channel, deadline=deadline,
            unavailable=ShardUnavailable, **ladder,
        )

    def request(self, inner: bytes) -> Frame:
        """One exactly-once request; the matching non-ERROR reply frame.

        Raises :class:`~repro.errors.ShardUnavailable` when the peer
        never answers inside the deadline/attempt budget — a
        :class:`~repro.errors.RetryableError`, carrying ``retry_after``.
        """
        return protocol.raise_if_error(super().request(inner))
