"""``repro.frontdoor`` — the asyncio session front door.

One event loop multiplexing thousands of host links (section 6's
Executor at production concurrency): async framing over the existing
SEQ envelope, request pipelining with a bounded per-session window,
arrival-time admission plus dequeue-time deadline shedding, and a
bounded ``(channel, seq)`` replay window for pipelined exactly-once.
See ``docs/frontdoor.md``.
"""

from .alink import AsyncLinkEnd, make_async_link
from .client import AsyncHostConnection
from .server import DEFAULT_SESSION_WINDOW, FrontDoor

__all__ = [
    "AsyncHostConnection",
    "AsyncLinkEnd",
    "DEFAULT_SESSION_WINDOW",
    "FrontDoor",
    "make_async_link",
]
