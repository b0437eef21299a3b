"""``repro.executor`` — sessions over a host link (section 6's Executor)."""

from .exchange import ExactlyOnceClient, ReplayingServer
from .executor import Executor, HostConnection
from .link import LinkEnd, make_link
from .protocol import Frame, FrameType, decode_frame
from .replay import ReplayWindow

__all__ = [
    "ExactlyOnceClient",
    "Executor",
    "Frame",
    "FrameType",
    "HostConnection",
    "LinkEnd",
    "ReplayWindow",
    "ReplayingServer",
    "decode_frame",
    "make_link",
]
