"""The liveness policy both ends of an AIP link apply, each through one
``TimerLane`` of silence deadlines that a beat re-adds (a timeout failure
detector, Chandra & Toueg, JACM 1996), and a device server's reconnect backoff."""

# The liveness policy both sides apply: an agent beats every
# HEARTBEAT_INTERVAL seconds, and MISSED_K missed beats disconnect it.
HEARTBEAT_INTERVAL = 5.0
MISSED_K = 3

# A device server sends REGISTER until one is accepted: at start at once, and
# after a disconnect first after RECONNECT_BASE seconds; each delay doubles, up
# to RECONNECT_MAX_DELAY, and after RECONNECT_ATTEMPTS delays it gives up.
RECONNECT_BASE = 1.0
RECONNECT_MAX_DELAY = 30.0
RECONNECT_ATTEMPTS = 5


def reconnect_delay(attempt: int) -> float:
    """The delay before reconnect attempt ``attempt`` (0-based)."""
    return min(RECONNECT_BASE * 2.0**attempt, RECONNECT_MAX_DELAY)
