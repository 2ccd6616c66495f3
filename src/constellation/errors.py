"""Exception hierarchy shared across the orchestration engine."""

from __future__ import annotations


class ConstellationError(Exception):
    """Base class for all engine errors."""


class DuplicateId(ConstellationError):
    pass


class DuplicateEdge(ConstellationError):
    pass


class NotFound(ConstellationError):
    pass


class ImmutableTask(ConstellationError):
    """Raised when an edit touches a task that is no longer PENDING."""


class IllegalField(ConstellationError):
    """Raised when a patch touches a field the editor may not change."""


class CycleIntroduced(ConstellationError):
    pass


class ValidationFailed(ConstellationError):
    """Carries the full list of violations found during validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "validation failed")


class ParseError(ConstellationError):
    pass


class IllegalTransition(ConstellationError):
    pass


class ScriptMiss(ConstellationError):
    """A strict script has no trigger matching the presented input."""


class SchemaViolation(ConstellationError):
    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class PeerDisconnected(ConstellationError):
    pass


class AttemptsExhausted(ConstellationError):
    pass


class NoScriptEntry(ConstellationError):
    pass


class IncompleteRun(ConstellationError):
    pass


class BoundExceeded(ConstellationError):
    pass


class InvariantViolation(ConstellationError):
    def __init__(self, invariant: str, state, witness_path=None):
        self.invariant = invariant
        self.state = state
        self.witness_path = witness_path or []
        super().__init__(f"invariant {invariant} violated")


class VerdictMismatch(ConstellationError):
    def __init__(self, diffs):
        self.diffs = list(diffs)
        super().__init__("; ".join(self.diffs))
