"""The time dial: session-wide navigation through past database states.

Section 5.4: "we have eschewed the !-notation for navigating through object
histories in favor of a time dial.  We feel that almost all navigation
through history would be within a single past state of the database.
Setting the time dial to time T is the same as appending @T to each
component in a path expression."

The dial belongs to a session (or a bare object manager in standalone use);
path resolution and element fetches consult it whenever a component has no
explicit ``@`` pin.  ``SafeTime`` — "the most recent state for which no
currently running transaction can make changes" — is computed by the
Transaction Manager; :meth:`TimeDial.set_safe` fetches it through a
provider callable so this module stays independent of the concurrency
layer.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class TimeDial:
    """A settable pointer into database history.

    ``time is None`` means "now": reads see the current state.  Any other
    value *T* makes every unpinned fetch behave as if ``@T`` were appended
    to it.
    """

    __slots__ = (
        "time", "_safe_time_provider", "_commit_time_provider", "clamps",
    )

    def __init__(
        self,
        safe_time_provider: Optional[Callable[[], int]] = None,
        commit_time_provider: Optional[Callable[[], int]] = None,
    ) -> None:
        self.time: Optional[int] = None
        self._safe_time_provider = safe_time_provider
        #: the commit-clock ceiling SafeTime may never exceed (§5.4);
        #: ``None`` trusts the SafeTime provider unconditionally
        self._commit_time_provider = commit_time_provider
        #: times :meth:`set_safe` had to clamp a too-new SafeTime (the
        #: snapshot's ``governance.safetime_clamps`` sums every dial's)
        self.clamps = 0

    def __repr__(self) -> str:
        setting = "now" if self.time is None else str(self.time)
        return f"<TimeDial {setting}>"

    def set(self, time: Optional[int]) -> None:
        """Point the dial at transaction *time* (None returns to now)."""
        self.time = time

    def reset(self) -> None:
        """Return the dial to the present."""
        self.time = None

    @property
    def is_now(self) -> bool:
        """True when the dial reads the current state."""
        return self.time is None

    def set_safe(self) -> int:
        """Set the dial to ``SafeTime`` and return it.

        A read-only transaction dialed to SafeTime sees the most recent
        state no running transaction can still change (section 5.4).
        SafeTime must never exceed the commit clock — a state that has
        not committed yet is not "safe", it is imaginary — so a provider
        that answers a time newer than the latest committed transaction
        (a skewed clock, a provider wired to the wrong counter) is
        clamped to the commit ceiling, and the clamp is counted for the
        observability layer.
        """
        if self._safe_time_provider is None:
            raise RuntimeError("this dial has no SafeTime provider")
        safe = self._safe_time_provider()
        if self._commit_time_provider is not None:
            ceiling = self._commit_time_provider()
            if safe > ceiling:
                safe = ceiling
                self.clamps += 1
        self.time = safe
        return safe

    @contextmanager
    def at(self, time: Optional[int]) -> Iterator["TimeDial"]:
        """Temporarily dial to *time* for the duration of a ``with`` block."""
        previous = self.time
        self.time = time
        try:
            yield self
        finally:
            self.time = previous
