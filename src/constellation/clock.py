"""Deterministic virtual clock.

Callbacks are ordered by (due time, schedule sequence number), so two timers
due at the same instant always fire in the order they were scheduled. All
time is virtual; nothing here touches wall-clock time. The clock and its
handles are plain classes, so a process builds no code for them at import.

A ``TimerHandle`` is a plain ``__slots__`` class holding only its callback,
built once per timer: the heap entry carries the due time and sequence
number. Its callback is ``None`` once it is cancelled or has fired, and
``step`` tests the popped handle's callback directly. Handles compare by
identity.

``run`` with a deadline drops cancelled timers from the head of the heap and
compares the first live one's due time with the deadline inside its own
loop; every timer still fires through ``step``.

A ``TimerLane`` holds keyed timers of one delay, which fall due in the order
they were set: a FIFO of which only the first live entry is on the heap (a
one-slot timing wheel, Varghese & Lauck 1987). An entry keeps the sequence
number it drew when added, as ``call_later`` would, so it fires at the place
a timer of its own would take: one drawn when it is armed would put a
deadline behind a completion set after it for the same instant. ``discard``
is O(1), and a re-add replaces a live key's deadline: a discarded or replaced
head fires in one ``step`` that calls nothing and arms the next live entry.
An empty lane cancels its heap timer, so it never keeps the clock running;
the heap drops cancelled timers once lane cancellations are over half of it.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

MAX_STEPS = 1_000_000  # the steps one ``run`` may take


class TimerHandle:
    __slots__ = ("callback",)

    def __init__(self, callback: Optional[Callable[[], None]]) -> None:
        self.callback = callback

    def cancel(self) -> None:
        self.callback = None


class VirtualClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now
        self._heap: List[Tuple[float, int, TimerHandle]] = []
        self._seq = itertools.count()
        # Lane timers cancelled since the heap was last rebuilt without them.
        self._dropped = 0

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        if not when >= self.now:  # a NaN time fails this too
            raise ValueError(f"cannot schedule at {when} before now={self.now}")
        handle = TimerHandle(callback)
        heapq.heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.call_at(self.now + delay, callback)

    def _drop(self, handle: TimerHandle) -> None:
        """Cancels a lane's heap timer."""
        handle.callback = None
        self._dropped += 1
        if 2 * self._dropped > len(self._heap):
            self._heap[:] = [entry for entry in self._heap if entry[2].callback is not None]
            heapq.heapify(self._heap)
            self._dropped = 0

    def step(self) -> bool:
        """Fire the next live timer; returns False when none remain."""
        heap = self._heap
        while heap:
            when, _, handle = heapq.heappop(heap)
            callback = handle.callback
            if callback is None:
                continue
            self.now = when
            handle.callback = None
            callback()
            return True
        return False

    def run(self, until: Optional[Callable[[], bool]] = None, deadline: Optional[float] = None) -> None:
        """Drain timers until the predicate holds, the deadline passes or the
        queue empties. A timer due exactly at the deadline fires; when the
        next live timer is later, ``now`` becomes the deadline. More than
        ``MAX_STEPS`` steps is a runaway: a ``RuntimeError``."""
        heap = self._heap
        for _ in range(MAX_STEPS):
            if until is not None and until():
                return
            if deadline is not None:
                while heap and heap[0][2].callback is None:
                    heapq.heappop(heap)
                if heap and heap[0][0] > deadline:
                    self.now = deadline
                    return
            if not self.step():
                return
        raise RuntimeError(f"virtual clock exceeded {MAX_STEPS} steps")


class TimerLane:
    """Calls ``callback(key)`` ``delay`` after the last ``add(key)``, unless
    the key is discarded first. ``live`` maps each live key to its entry."""

    def __init__(self, clock: VirtualClock, delay: float, callback: Callable[[Any], None]) -> None:
        self.clock, self.delay, self.callback = clock, delay, callback
        self.live: Dict[Any, Tuple[float, int, Any]] = {}
        self._entries: Deque[Tuple[float, int, Any]] = deque()
        self._armed: Optional[TimerHandle] = None

    def add(self, key: Any) -> None:
        entry = (self.clock.now + self.delay, next(self.clock._seq), key)
        self._entries.append(entry)
        self.live[key] = entry
        if self._armed is None:
            self._arm(entry)

    def discard(self, key: Any) -> None:
        if self.live.pop(key, None) is not None and not self.live:
            self._entries.clear()
            self.clock._drop(self._armed)
            self._armed = None

    def _arm(self, entry: Tuple[float, int, Any]) -> None:
        self._armed = handle = TimerHandle(self._expire)
        heapq.heappush(self.clock._heap, (entry[0], entry[1], handle))

    def _expire(self) -> None:
        """Arms the next live entry, then calls back for the head unless it
        was discarded."""
        entries, live = self._entries, self.live
        head = entries.popleft()
        fire = live.get(head[2]) is head
        if fire:
            del live[head[2]]
        while entries and live.get(entries[0][2]) is not entries[0]:
            entries.popleft()
        self._armed = None
        if entries:
            self._arm(entries[0])
        if fire:
            self.callback(head[2])
