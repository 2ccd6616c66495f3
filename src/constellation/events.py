"""Orchestrator event vocabulary."""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, NamedTuple


class EventKind(Enum):
    TASK_STARTED = "TASK_STARTED"
    TASK_COMPLETED = "TASK_COMPLETED"
    TASK_FAILED = "TASK_FAILED"
    CONSTELLATION_MODIFIED = "CONSTELLATION_MODIFIED"


class OrchestratorEvent(NamedTuple):
    kind: EventKind
    task_id: str
    at: float
    payload: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        # ``_value_`` is the member's value as a plain attribute; the
        # ``value`` property costs a descriptor call per event.
        doc: Dict[str, Any] = {"kind": self.kind._value_, "at": self.at}
        if self.task_id:
            doc["task_id"] = self.task_id
        if self.payload:
            doc["payload"] = self.payload
        return doc
