"""Exception hierarchy shared across the orchestration engine.

One class per failure kind. Reading an entry, a patch or an edit op raises
``ParseError``, ``IllegalField``, ``NotFound`` or ``DuplicateId``; every
structural or edit-locality fault of a graph, whether it comes from a
document, a build or a delta, is the one ``ValidationFailed`` that lists
each violation by kind.
"""

from __future__ import annotations


class ConstellationError(Exception):
    """Base class for all engine errors."""


class DuplicateId(ConstellationError):
    pass


class NotFound(ConstellationError):
    pass


class IllegalField(ConstellationError):
    """Raised when a patch touches a field the editor may not change."""


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
