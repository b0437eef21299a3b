"""``TcpHostConnection``: the synchronous host client over a socket.

It *is* a :class:`repro.executor.executor.HostConnection` — same seq
numbering, same retry/reconnect ladder, same reply decoding, same
OVERLOADED backoff, same typed errors — whose link factory dials TCP
instead of building an in-memory pipe pair.  Its server is on the far
side of the wire, so it holds no :class:`~repro.executor.executor.Executor`
(``executor`` is None).  Every connection (first dial and every
reconnect) opens with ``HELLO(token)``, a fresh random token per client,
so the server binds it to the same session executor and the replay
window keeps post-reconnect resends exactly-once.
"""

from __future__ import annotations

import secrets

from ..executor import protocol
from ..executor.executor import HostConnection
from .tcp import DEFAULT_RECEIVE_TIMEOUT, dial

#: seconds a dial may take before it is a ``LinkTimeout``
CONNECT_TIMEOUT = 5.0


class TcpHostConnection(HostConnection):
    """Dial a listening front door and speak SEQ frames over TCP."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        receive_timeout: float = DEFAULT_RECEIVE_TIMEOUT,
    ) -> None:
        self._address = (host, port)
        self._token = secrets.token_hex(8)
        self.receive_timeout = receive_timeout
        super().__init__(None, link_factory=self._dial_link)

    def _dial_link(self):
        link = dial(
            *self._address,
            timeout=CONNECT_TIMEOUT,
            receive_timeout=self.receive_timeout,
        )
        link.send(protocol.encode_hello(self._token))
        # no need to await HELLO_OK: TCP is FIFO within one connection,
        # so the server processes the HELLO before anything sent after it
        return link, None

    def close(self) -> None:
        """Drop the transport (the server parks the session for resume)."""
        self.host_end.close()
