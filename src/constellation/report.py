"""Structured record of a single orchestration run."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from .edits import ModificationSummary
from .events import OrchestratorEvent


class RunOutcome(Enum):
    SUCCESS = "SUCCESS"
    PARTIAL = "PARTIAL"
    FAILED = "FAILED"


@dataclass
class TaskTiming:
    task_id: str
    device: str
    dispatched_at: float
    finished_at: Optional[float] = None
    status: str = "RUNNING"

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.dispatched_at


@dataclass
class EditCycleRecord:
    round_index: int
    started_at: float
    committed_at: float
    batch: List[Dict[str, Any]]
    observation: str
    thought: str
    next_state: str
    summary: Dict[str, int]
    version_after: int
    represented: bool = False


@dataclass
class RunReport:
    request: str = ""
    outcome: Optional[RunOutcome] = None
    result: Optional[str] = None
    initial_document: Optional[Dict[str, Any]] = None
    final_document: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = field(default_factory=list)
    edit_cycles: List[EditCycleRecord] = field(default_factory=list)
    timings: Dict[str, TaskTiming] = field(default_factory=dict)
    lock_trace: List[Dict[str, Any]] = field(default_factory=list)
    dropped_frames: List[Dict[str, Any]] = field(default_factory=list)
    assignments_while_held: int = 0
    deadline_exceeded: bool = False
    error: Optional[str] = None
    finished_at: Optional[float] = None

    def record_event(self, event: OrchestratorEvent) -> None:
        self.events.append(event.as_dict())

    def record_lock(self, action: str, at: float) -> None:
        self.lock_trace.append({"action": action, "at": at})

    @property
    def edit_summary_totals(self) -> Dict[str, int]:
        totals = ModificationSummary().as_dict()
        for cycle in self.edit_cycles:
            for key in totals:
                totals[key] += cycle.summary.get(key, 0)
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request": self.request,
            "outcome": self.outcome.value if self.outcome else None,
            "result": self.result,
            "finished_at": self.finished_at,
            "deadline_exceeded": self.deadline_exceeded,
            "error": self.error,
            "initial_document": self.initial_document,
            "final_document": self.final_document,
            "events": self.events,
            "edit_cycles": [asdict(c) for c in self.edit_cycles],
            "timings": {
                tid: {
                    "device": t.device,
                    "dispatched_at": t.dispatched_at,
                    "finished_at": t.finished_at,
                    "duration": t.duration,
                    "status": t.status,
                }
                for tid, t in sorted(self.timings.items())
            },
            "lock_trace": self.lock_trace,
            "edit_summary_totals": self.edit_summary_totals,
            "dropped_frames": self.dropped_frames,
            "instrumentation": {
                "assignments_while_held": self.assignments_while_held,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, ensure_ascii=False, sort_keys=False) + "\n"
