"""Exponential backoff policy for reconnection attempts."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    base: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    max_attempts: int = 5

    def nominal_delay(self, attempt: int) -> float:
        """Delay before attempt ``attempt`` (0-based)."""
        return min(self.base * self.multiplier**attempt, self.max_delay)
