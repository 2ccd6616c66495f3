"""Orchestrator event vocabulary."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class EventKind(Enum):
    TASK_STARTED = "TASK_STARTED"
    TASK_COMPLETED = "TASK_COMPLETED"
    TASK_FAILED = "TASK_FAILED"
    CONSTELLATION_MODIFIED = "CONSTELLATION_MODIFIED"


@dataclass(frozen=True, init=False)
class OrchestratorEvent:
    """An event of a run. Frozen, with a hand-written ``__init__`` that
    writes each field once into the instance dict, as ``model.TaskStar``
    does; a missing ``payload`` is a fresh dict per event."""

    kind: EventKind
    task_id: str = ""
    at: float = 0.0
    payload: Dict[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        kind: EventKind,
        task_id: str = "",
        at: float = 0.0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        values = self.__dict__
        values["kind"] = kind
        values["task_id"] = task_id
        values["at"] = at
        values["payload"] = {} if payload is None else payload

    def as_dict(self) -> Dict[str, Any]:
        # ``_value_`` is the member's value as a plain attribute; the
        # ``value`` property costs a descriptor call per event.
        doc: Dict[str, Any] = {"kind": self.kind._value_, "at": self.at}
        if self.task_id:
            doc["task_id"] = self.task_id
        if self.payload:
            doc["payload"] = self.payload
        return doc
