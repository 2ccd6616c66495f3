"""Deterministic virtual clock.

Callbacks are ordered by (due time, schedule sequence number), so two timers
due at the same instant always fire in the order they were scheduled. All
time is virtual; nothing here touches wall-clock time.

A ``TimerHandle`` is a plain ``__slots__`` class, built once per timer: its
callback is ``None`` once it is cancelled or has fired, and ``step`` tests
the popped handle's callback directly. Handles compare by identity.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


class TimerHandle:
    __slots__ = ("when", "seq", "callback")

    def __init__(self, when: float, seq: int, callback: Optional[Callable[[], None]]) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback

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

    def call_at(self, when: float, callback: Callable[[], None]) -> TimerHandle:
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} before now={self.now}")
        seq = next(self._seq)
        handle = TimerHandle(when, seq, callback)
        heapq.heappush(self._heap, (when, seq, handle))
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
        queue empties."""
        for _ in range(max_steps):
            if until is not None and until():
                return
            if deadline is not None:
                due = self._next_due()
                if due is not None and due > deadline:
                    self.now = deadline
                    return
            if not self.step():
                return
        raise RuntimeError(f"virtual clock exceeded {max_steps} steps")

    def _next_due(self) -> Optional[float]:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None
