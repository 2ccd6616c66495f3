"""The liveness policy and the watchdog both ends of an AIP link keep, and
the backoff of a device server's reconnect attempts."""

from __future__ import annotations

from typing import Callable, Optional

from ..clock import TimerHandle, VirtualClock

# The liveness policy both sides apply: an agent beats every
# HEARTBEAT_INTERVAL seconds, and MISSED_K missed beats disconnect it.
HEARTBEAT_INTERVAL = 5.0
MISSED_K = 3
_SILENCE = HEARTBEAT_INTERVAL * MISSED_K

# A device server sends REGISTER until one is accepted: at start at once, and
# after a disconnect first after RECONNECT_BASE seconds; each delay doubles, up
# to RECONNECT_MAX_DELAY, and after RECONNECT_ATTEMPTS delays it gives up.
RECONNECT_BASE = 1.0
RECONNECT_MAX_DELAY = 30.0
RECONNECT_ATTEMPTS = 5


def reconnect_delay(attempt: int) -> float:
    """The delay before reconnect attempt ``attempt`` (0-based)."""
    return min(RECONNECT_BASE * 2.0**attempt, RECONNECT_MAX_DELAY)


class Watchdog:
    """Timeout failure detector for one end of a link (Chandra & Toueg,
    "Unreliable failure detectors for reliable distributed systems", JACM
    1996): a peer silent for ``MISSED_K`` beats since the last ``feed`` is
    reported once through ``on_silence``.

    ``feed`` only moves the last-seen time. The one armed timer re-checks it
    when it expires and is re-armed at the new deadline while feeds keep
    coming, so a beat schedules no timer."""

    def __init__(self, clock: VirtualClock, on_silence: Callable[[], None]) -> None:
        self.clock = clock
        self.on_silence = on_silence
        self.last_seen = 0.0
        self._timer: Optional[TimerHandle] = None

    def start(self) -> None:
        """Watch from now on, replacing the armed timer if there is one."""
        if self._timer is not None:
            self._timer.cancel()
        self.last_seen = self.clock.now
        self._arm()

    def feed(self) -> None:
        self.last_seen = self.clock.now

    def _arm(self) -> None:
        self._timer = self.clock.call_at(self.last_seen + _SILENCE, self._expire)

    def _expire(self) -> None:
        if self.clock.now < self.last_seen + _SILENCE:
            self._arm()
        else:
            self.on_silence()
