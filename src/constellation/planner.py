"""Planner finite-state machine and the deterministic scripted planner.

The planner is the single component allowed to edit the constellation. It is
driven in rounds: each round receives a read-only snapshot plus the batch of
events drained under the lock, and answers with an observation, a thought, a
next FSM state, an optional final result and an edit delta. The orchestrator
alone tracks the planner's FSM state and checks each requested move with
``fsm_advance``.
"""

from __future__ import annotations

import fnmatch
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .edits import EditDelta, delta_from_doc
from .errors import IllegalTransition, ParseError, ScriptMiss
from .events import EventKind, OrchestratorEvent
from .model import TaskConstellation, TaskStar, TaskStatus, unrecovered_failures


class PlannerState(Enum):
    START = "START"
    CONTINUE = "CONTINUE"
    FINISH = "FINISH"
    FAIL = "FAIL"


_LEGAL_PLANNER_TRANSITIONS = {
    PlannerState.START: {PlannerState.CONTINUE, PlannerState.FINISH, PlannerState.FAIL},
    PlannerState.CONTINUE: {PlannerState.CONTINUE, PlannerState.FINISH, PlannerState.FAIL},
    PlannerState.FINISH: set(),
    PlannerState.FAIL: set(),
}


def fsm_advance(current: PlannerState, requested: PlannerState) -> PlannerState:
    if requested not in _LEGAL_PLANNER_TRANSITIONS[current]:
        raise IllegalTransition(
            f"planner may not move {current.value} -> {requested.value}"
        )
    return requested


@dataclass(frozen=True)
class PlannerInput:
    snapshot: TaskConstellation
    batch: Tuple[OrchestratorEvent, ...]
    round_index: int
    violations: Tuple[str, ...] = ()


@dataclass
class PlannerOutput:
    observation: str
    thought: str
    next_state: PlannerState
    result: Optional[str] = None
    delta: EditDelta = field(default_factory=EditDelta)
    duration: float = 0.0


class Planner:
    """Interface; concrete planners override :meth:`edit`."""

    def edit(self, planner_input: PlannerInput) -> PlannerOutput:
        raise NotImplementedError


class NoopPlanner(Planner):
    """Creates nothing and never edits; finishes as soon as the graph is
    quiescent. Useful when the constellation is supplied up front."""

    def edit(self, planner_input: PlannerInput) -> PlannerOutput:
        return PlannerOutput(
            observation=f"{len(planner_input.batch)} event(s) observed",
            thought="no edits required",
            next_state=PlannerState.CONTINUE,
        )


# -- scripted planner ----------------------------------------------------


@dataclass(frozen=True)
class Trigger:
    """Multiset of (event kind, task-id glob) patterns.

    A trigger matches a batch when the patterns can be matched one-to-one
    against distinct events of the batch (order-free). The empty trigger
    matches only the initial round (empty batch).
    """

    patterns: Tuple[Tuple[EventKind, str], ...]

    def matches(self, batch: Sequence[OrchestratorEvent]) -> bool:
        if len(self.patterns) != len(batch):
            return False
        return self._match(list(self.patterns), list(batch))

    @staticmethod
    def _match(patterns: List[Tuple[EventKind, str]], events: List[OrchestratorEvent]) -> bool:
        if not patterns:
            return True
        kind, glob = patterns[0]
        for i, event in enumerate(events):
            if event.kind is kind and fnmatch.fnmatchcase(event.task_id, glob):
                if Trigger._match(patterns[1:], events[:i] + events[i + 1 :]):
                    return True
        return False


@dataclass
class ScriptEntry:
    trigger: Trigger
    output_doc: Dict[str, Any]


@dataclass
class PlannerScript:
    entries: List[ScriptEntry]
    strict: bool = True


def load_script(source: Union[str, Path, Dict[str, Any]]) -> PlannerScript:
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot load planner script {source}: {exc}") from exc
    else:
        doc = source
    try:
        entries = []
        for entry in doc["entries"]:
            patterns = tuple(
                (EventKind(p["kind"]), p.get("task", "*")) for p in entry.get("trigger", [])
            )
            output_doc = {k: v for k, v in entry.items() if k != "trigger"}
            entries.append(ScriptEntry(Trigger(patterns), output_doc))
        return PlannerScript(entries, strict=doc.get("strict", True))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad planner script: {exc}") from exc


class ScriptedPlanner(Planner):
    """Replays a fixed decision table: the first entry (in file order) whose
    trigger matches the drained batch supplies the round's output."""

    def __init__(self, script: PlannerScript):
        self.script = script

    def edit(self, planner_input: PlannerInput) -> PlannerOutput:
        entry = self._select(planner_input.batch)
        if entry is None:
            if self.script.strict:
                raise ScriptMiss(
                    "no trigger matches batch "
                    + str([(e.kind.value, e.task_id) for e in planner_input.batch])
                )
            return PlannerOutput(
                observation=f"{len(planner_input.batch)} unmatched event(s)",
                thought="no scripted reaction; waiting",
                next_state=PlannerState.CONTINUE,
            )
        return self._instantiate(entry.output_doc, planner_input)

    def _select(self, batch: Sequence[OrchestratorEvent]) -> Optional[ScriptEntry]:
        for entry in self.script.entries:
            if entry.trigger.matches(batch):
                return entry
        return None

    @staticmethod
    def _instantiate(doc: Dict[str, Any], planner_input: PlannerInput) -> PlannerOutput:
        filled = _deep_fill(doc, planner_input)
        delta = delta_from_doc(filled.get("delta", []), provenance="planner-script")
        return PlannerOutput(
            observation=filled.get(
                "observation", f"{len(planner_input.batch)} event(s) observed"
            ),
            thought=filled.get("thought", ""),
            next_state=PlannerState(filled.get("next_state", "CONTINUE")),
            result=filled.get("result"),
            delta=delta,
            duration=float(filled.get("duration", 0.0)),
        )


# -- template substitution ----------------------------------------------
#
# Script strings may reference runtime context:
#   $completed_results        "id: result" for every COMPLETED task, id-sorted
#   $failure_traces           one trace per failed job (grouped by matching
#                             description+device, retries collapse into one)
#                             that has no completed counterpart
#   $task_result:<id>         the recorded result of one task

_TASK_RESULT_RE = re.compile(r"\$task_result:([A-Za-z0-9_\-]+)")


def _fill_text(text: str, snapshot: TaskConstellation) -> str:
    if "$completed_results" in text:
        completed = "; ".join(
            f"{tid}: {task.result}"
            for tid, task in sorted(snapshot.tasks.items())
            if task.status is TaskStatus.COMPLETED
        )
        text = text.replace("$completed_results", completed)
    if "$failure_traces" in text:
        text = text.replace("$failure_traces", _failure_traces(snapshot))
    def task_result(match: "re.Match[str]") -> str:
        task = snapshot.tasks.get(match.group(1))
        return str(task.result) if task is not None and task.result is not None else ""
    return _TASK_RESULT_RE.sub(task_result, text)


def _failure_traces(snapshot: TaskConstellation) -> str:
    groups: Dict[Tuple[str, str], List[TaskStar]] = {}
    for task in unrecovered_failures(snapshot):
        groups.setdefault((task.description, task.device), []).append(task)
    traces = []
    for (description, device), tasks in sorted(groups.items()):
        reason = tasks[-1].failure_reason
        reason_text = reason.value if reason is not None else "UNKNOWN"
        task_ids = ", ".join(task.id for task in tasks)
        traces.append(f"job '{description}' on {device} FAILED ({reason_text}; tasks {task_ids})")
    return "; ".join(traces)


def _deep_fill(value: Any, planner_input: PlannerInput) -> Any:
    if isinstance(value, str):
        return _fill_text(value, planner_input.snapshot)
    if isinstance(value, list):
        return [_deep_fill(item, planner_input) for item in value]
    if isinstance(value, dict):
        return {key: _deep_fill(item, planner_input) for key, item in value.items()}
    return value
