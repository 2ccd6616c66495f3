"""Orchestrator event vocabulary."""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, NamedTuple, Optional


class EventKind(Enum):
    TASK_STARTED = "TASK_STARTED"
    TASK_COMPLETED = "TASK_COMPLETED"
    TASK_FAILED = "TASK_FAILED"
    CONSTELLATION_MODIFIED = "CONSTELLATION_MODIFIED"


class _EventFields(NamedTuple):
    kind: EventKind
    task_id: str = ""
    at: float = 0.0
    payload: Optional[Dict[str, Any]] = None


class OrchestratorEvent(_EventFields):
    """An event of a run: a named tuple whose missing ``payload`` is a fresh
    dict per event, not one default shared by every event."""

    __slots__ = ()

    def __new__(
        cls,
        kind: EventKind,
        task_id: str = "",
        at: float = 0.0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> "OrchestratorEvent":
        return tuple.__new__(cls, (kind, task_id, at, {} if payload is None else payload))

    def as_dict(self) -> Dict[str, Any]:
        # ``_value_`` is the member's value as a plain attribute; the
        # ``value`` property costs a descriptor call per event.
        doc: Dict[str, Any] = {"kind": self.kind._value_, "at": self.at}
        if self.task_id:
            doc["task_id"] = self.task_id
        if self.payload:
            doc["payload"] = self.payload
        return doc
