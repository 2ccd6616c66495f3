"""Exponential backoff policy for reconnection attempts."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class BackoffPolicy:
    base: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    max_attempts: int = 5
    jitter: float = 0.1  # fraction of the nominal delay, symmetric

    def nominal_delay(self, attempt: int) -> float:
        """Delay before attempt ``attempt`` (0-based), without jitter."""
        return min(self.base * self.multiplier**attempt, self.max_delay)

    def delay(self, attempt: int, rng: Optional[random.Random]) -> float:
        """Delay before attempt ``attempt``; ``rng`` is drawn from, and so
        needed, only when ``jitter`` is not zero."""
        nominal = self.nominal_delay(attempt)
        if self.jitter == 0:
            return nominal
        return nominal * (1.0 + rng.uniform(-self.jitter, self.jitter))
