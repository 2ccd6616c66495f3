"""Planner finite-state machine and the deterministic scripted planner.

The planner is the single component allowed to edit the constellation. It is
driven in rounds: each round receives a borrowed snapshot plus the batch of
events drained under the lock, and answers with an observation, a thought, a
next FSM state, an optional final result and an edit delta. FINISH and FAIL
end the run, so the orchestrator refuses only a move to START, and needs no
state of its own for that: the planner is in START until its first round
commits, and in CONTINUE after. A round's input, a trigger and a loaded
script are named tuples, never changed once built; a round's output is
judged when built.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .edits import EditDelta, delta_from_doc
from .errors import ScriptMiss
from .events import EventKind, OrchestratorEvent
from .model import TaskConstellation, TaskStar, TaskStatus, unrecovered_failures
from .schema import read_document


class PlannerState(Enum):
    START = "START"
    CONTINUE = "CONTINUE"
    FINISH = "FINISH"
    FAIL = "FAIL"


class PlannerInput(NamedTuple):
    """One round's input. ``snapshot`` is the committed graph, borrowed
    (``TaskConstellation.borrow``) for this round, and for its re-presentation
    after a refused delta. Writes through ``transition`` or the raw ops copy
    it first, keep its ``ready_tasks`` and ``is_quiescent`` true and never
    reach the engine; direct dict writes are not allowed."""

    snapshot: TaskConstellation
    batch: Tuple[OrchestratorEvent, ...]
    round_index: int
    violations: Tuple[str, ...] = ()


@dataclass
class PlannerOutput:
    """One round's answer; the engine applies its delta and moves to its state."""
    observation: str
    thought: str
    next_state: PlannerState
    result: Optional[str] = None
    delta: EditDelta = EditDelta()
    duration: float = 0.0

    def __post_init__(self) -> None:
        # Raised inside the planner's round, so that the engine aborts the run.
        if not isinstance(self.next_state, PlannerState):
            raise TypeError(f"next_state must be a PlannerState, got {self.next_state!r}")


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


class Trigger(NamedTuple):
    """Multiset of (event kind, task-id glob) patterns.

    A trigger matches a batch when the patterns can be matched one-to-one
    against distinct events of the batch (order-free). The empty trigger
    matches only the initial round (empty batch).
    """

    patterns: Tuple[Tuple[EventKind, str], ...]

    def matches(self, batch: Sequence[OrchestratorEvent]) -> bool:
        if len(self.patterns) != len(batch):
            return False
        if len(batch) == 1:  # one glob test: most rounds drain one event
            (kind, glob), event = self.patterns[0], batch[0]
            return event.kind is kind and fnmatch.fnmatchcase(event.task_id, glob)
        return self._match(self.patterns, batch)

    @staticmethod
    def _match(patterns: Sequence[Tuple[EventKind, str]], events: Sequence[OrchestratorEvent]) -> bool:
        """Whether every event can take a pattern of its own, of as many
        patterns: a bipartite matching. Patterns of one (kind, glob) are
        interchangeable, so they form one group, whose glob is tested once
        per event and which takes as many events (``members``) as it has
        patterns. Events take groups along shortest augmenting paths, all
        those of one length in one phase (Hopcroft & Karp, SIAM J. Comput.
        1973), the first phase greedily, with no recursion: O(E sqrt(V)) for
        E compatible pairs of group and event."""
        room: Dict[Tuple[EventKind, str], int] = {}
        for pattern in patterns:
            room[pattern] = room.get(pattern, 0) + 1
        capacity, members, free = list(room.values()), [set() for _ in room], list(range(len(events)))
        adjacent = [
            [g for g, (kind, glob) in enumerate(room) if event.kind is kind and fnmatch.fnmatchcase(event.task_id, glob)]
            for event in events
        ]
        while free:
            # Layer the events by alternating distance from the free ones: a
            # full group leads to its events, one layer down.
            depth, below, shortest = dict.fromkeys(free, 0), {}, None  # below: group -> (layer above, its events)
            for index in (queue := list(free)):  # grows as events are layered
                if shortest is not None and depth[index] >= shortest:
                    break
                for g in adjacent[index]:
                    if len(members[g]) < capacity[g]:
                        shortest = shortest or depth[index] + 1
                    elif g not in below:
                        below[g] = (depth[index], [other for other in members[g] if other not in depth])
                        depth.update(dict.fromkeys(below[g][1], depth[index] + 1))
                        queue += below[g][1]
            # One walk down the layers per free event: a group's events and an
            # event's groups are each tried once per phase.
            next_group, next_event, unmatched = dict.fromkeys(depth, 0), dict.fromkeys(below, 0), []
            for start in free:
                path, links = [start], []  # path[i + 1] is an event of the group links[i]
                while path:
                    index, groups = path[-1], adjacent[path[-1]]
                    while next_group[index] < len(groups):
                        g = groups[next_group[index]]
                        layer, others = below.get(g, (None, ()))
                        if len(members[g]) < capacity[g] or layer == depth[index] and next_event[g] < len(others):
                            break
                        next_group[index] += 1
                    else:  # a dead end: back one event
                        path.pop()
                        del links[-1:]
                        continue
                    if len(members[g]) < capacity[g]:  # room: each event on the path takes the next group
                        members[g].add(index)
                        for link, taker, leaver in zip(links, path, path[1:]):
                            members[link].discard(leaver)
                            members[link].add(taker)
                        break
                    path.append(others[next_event[g]])
                    links.append(g)
                    next_event[g] += 1
                else:
                    unmatched.append(start)
            if len(unmatched) == len(free):  # no augmenting path: the matching is maximum
                break
            free = unmatched
        return not free


class ScriptEntry(NamedTuple):
    trigger: Trigger
    output_doc: Dict[str, Any]


class PlannerScript(NamedTuple):
    entries: List[ScriptEntry]
    strict: bool = True


def load_script(source: Union[str, Path, Dict[str, Any]]) -> PlannerScript:
    """Read a script that ``schemas/planner_script.schema.json`` accepts,
    each edit op carrying the fields of its ``op``; anything else is a
    ``ParseError`` naming the file, or ``document``, and the JSON path of the
    refused value. The ops' specs, patches and configs are judged when a
    round's delta is applied, once their templates are filled."""
    doc = read_document(source, "planner_script")
    entries = []
    for entry in doc["entries"]:
        patterns = tuple((EventKind(p["kind"]), p.get("task", "*")) for p in entry.get("trigger", []))
        entries.append(ScriptEntry(Trigger(patterns), {k: v for k, v in entry.items() if k != "trigger"}))
    return PlannerScript(entries, strict=doc.get("strict", True))


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
        delta = delta_from_doc(filled.get("delta", []))
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
    if "$" not in text:  # every placeholder starts with "$"
        return text
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
