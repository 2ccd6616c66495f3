"""Orchestrator event vocabulary."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict


class EventKind(Enum):
    TASK_STARTED = "TASK_STARTED"
    TASK_COMPLETED = "TASK_COMPLETED"
    TASK_FAILED = "TASK_FAILED"
    CONSTELLATION_MODIFIED = "CONSTELLATION_MODIFIED"


@dataclass(frozen=True)
class OrchestratorEvent:
    kind: EventKind
    task_id: str = ""
    at: float = 0.0
    payload: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind.value, "at": self.at}
        if self.task_id:
            doc["task_id"] = self.task_id
        if self.payload:
            doc["payload"] = self.payload
        return doc
