"""Deterministic virtual clock.

Callbacks are ordered by (due time, schedule sequence number), so two timers
due at the same instant always fire in the order they were scheduled. All
time is virtual; nothing here touches wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass
class TimerHandle:
    when: float
    seq: int
    callback: Optional[Callable[[], None]]
    label: str = ""

    def cancel(self) -> None:
        self.callback = None

    @property
    def cancelled(self) -> bool:
        return self.callback is None


@dataclass
class VirtualClock:
    now: float = 0.0
    _heap: List[Tuple[float, int, TimerHandle]] = field(default_factory=list)
    _seq: "itertools.count[int]" = field(default_factory=itertools.count)

    def call_at(self, when: float, callback: Callable[[], None], label: str = "") -> TimerHandle:
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} before now={self.now}")
        handle = TimerHandle(when, next(self._seq), callback, label)
        heapq.heappush(self._heap, (handle.when, handle.seq, handle))
        return handle

    def call_later(self, delay: float, callback: Callable[[], None], label: str = "") -> TimerHandle:
        return self.call_at(self.now + delay, callback, label)

    def step(self) -> bool:
        """Fire the next live timer; returns False when none remain."""
        while self._heap:
            when, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = when
            callback = handle.callback
            handle.callback = None
            callback()  # type: ignore[misc]
            return True
        return False

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
        max_steps: int = 1_000_000,
    ) -> None:
        """Drain timers until the predicate holds, the deadline passes or the
        queue empties."""
        for _ in range(max_steps):
            if until is not None and until():
                return
            if deadline is not None and self._next_due() is not None and self._next_due() > deadline:
                self.now = deadline
                return
            if not self.step():
                return
        raise RuntimeError(f"virtual clock exceeded {max_steps} steps")

    def _next_due(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None
