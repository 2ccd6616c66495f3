"""Exception hierarchy shared across the orchestration engine.

One class per failure kind. Reading an entry, a patch or an edit op raises
``ParseError``, ``IllegalField``, ``NotFound`` or ``DuplicateId``; every
structural or edit-locality fault of a graph, whether a document, a build,
a delta or the parallelism metrics find it, is the one ``ValidationFailed``
that lists each violation by kind. Every document is judged by the check
compiled from its packaged schema (``schema.py``): a scenario or script
file it refuses is a ``ParseError`` naming the JSON path; so is a
constellation document, build config, entry or patch, except that a field
an entry or a patch may not carry is an ``IllegalField``; and a protocol
frame it refuses is a ``SchemaViolation`` naming the field, which the
receiving endpoint answers with an ERROR frame, so no peer's frame raises
out of the clock.
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
    """A field that an entry or a patch may not carry, such as an
    engine-owned ``status`` on a created task or an ``id`` in a patch."""


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
    """A script has no entry for the presented input: a reasoner or executor
    table always, a planner script unless it is not ``strict``."""


class SchemaViolation(ConstellationError):
    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class BoundExceeded(ConstellationError):
    pass


class InvariantViolation(ConstellationError):
    def __init__(self, invariant: str, state, witness_path=None):
        self.invariant = invariant
        self.state = state
        self.witness_path = witness_path or []
        super().__init__(f"invariant {invariant} violated")

