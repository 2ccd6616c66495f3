"""Deterministic virtual clock.

Callbacks are ordered by (due time, schedule sequence number), so two timers
due at the same instant always fire in the order they were scheduled. All
time is virtual; nothing here touches wall-clock time.

A ``TimerHandle`` is a plain ``__slots__`` class holding only its callback,
built once per timer: the heap entry carries the due time and sequence
number. Its callback is ``None`` once it is cancelled or has fired, and
``step`` tests the popped handle's callback directly. Handles compare by
identity.

``run`` with a deadline drops cancelled timers from the head of the heap and
compares the first live one's due time with the deadline inside its own
loop; every timer still fires through ``step``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


class TimerHandle:
    __slots__ = ("callback",)

    def __init__(self, callback: Optional[Callable[[], None]]) -> None:
        self.callback = callback

    def cancel(self) -> None:
        self.callback = None


@dataclass
class VirtualClock:
    now: float = 0.0
    _heap: List[Tuple[float, int, TimerHandle]] = field(default_factory=list)
    _seq: "itertools.count[int]" = field(default_factory=itertools.count)

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} before now={self.now}")
        handle = TimerHandle(callback)
        heapq.heappush(self._heap, (when, next(self._seq), handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        return self.call_at(self.now + delay, callback)

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

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        """Drain timers until the predicate holds, the deadline passes or the
        queue empties. A timer due exactly at the deadline fires; when the
        next live timer is later, ``now`` becomes the deadline."""
        heap = self._heap
        for _ in range(max_steps):
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
        raise RuntimeError(f"virtual clock exceeded {max_steps} steps")
