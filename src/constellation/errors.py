"""Exception hierarchy shared across the orchestration engine.

One class per failure kind. Reading an entry, a patch or an edit op raises
``ParseError``, ``IllegalField``, ``NotFound`` or ``DuplicateId``; every
structural or edit-locality fault of a graph, whether it comes from a
document, a build or a delta, is the one ``ValidationFailed`` that lists
each violation by kind. A scenario or script file that its schema refuses,
a scenario field the schema does not name included, is a ``ParseError``.
A protocol frame that its schema refuses, or whose message type is not one
of the seven, is a ``SchemaViolation``, which the receiving endpoint
answers with an ERROR frame, so no peer's frame raises out of the clock.
What a run reports is not an exception: a dispatch to a device outside the
pool ends its task FAILED (AGENT_DISCONNECTED), a device whose reconnect
attempts run out is marked ``permanently_failed``, and a verdict mismatch
is listed in ``ScenarioResult.diffs``.
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
    """A strict script (planner, reasoner or executor) has no entry for the
    presented input."""


class SchemaViolation(ConstellationError):
    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


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

