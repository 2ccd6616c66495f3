"""Mutable dependency-DAG of tasks: the data model the whole engine runs on.

A constellation holds tasks keyed by id and directed dependency edges keyed
by id. Task and dependency entries (the format of
``schemas/constellation.schema.json``) are read by one parser each,
``task_from_entry`` and ``edge_from_entry``; a malformed entry raises
``ParseError`` and a field the entry may not carry raises ``IllegalField``,
whichever path reads it. Whole graphs (``serial.from_document`` and
``edits.build_constellation``) are made by ``from_entries``: insert every
entry, then validate once. After that the structure changes only through
``edits.apply_delta``, which runs the raw ``_...`` ops below on a working
copy, checks the result once and bumps the version once per commit; the
engine moves task statuses with ``transition``. The raw ops only parse and
mutate: they raise ``NotFound``, ``DuplicateId``, ``ParseError`` and
``IllegalField``, and leave cycles, dangling or parallel edges and edits of
non-PENDING tasks to the one check of the result.

Task and dependency records are frozen: ``transition`` and the raw ops store
a replaced record instead of changing one, so ``clone`` copies only the two
dicts and versions share every record they did not change (path copying).
The incoming-edge ids of each task are a derived index, built lazily from
``edges``, dropped by the raw ops that change the structure, and shared by
clones, which have the same structure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .errors import (
    DuplicateId,
    IllegalField,
    IllegalTransition,
    NotFound,
    ParseError,
    ValidationFailed,
)


class TaskStatus(Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in (TaskStatus.COMPLETED, TaskStatus.FAILED)


# PENDING -> FAILED covers planner cancellation and the dependency timeout
# policy; terminal states have no outgoing transitions.
_LEGAL_TRANSITIONS = {
    (TaskStatus.PENDING, TaskStatus.RUNNING),
    (TaskStatus.RUNNING, TaskStatus.COMPLETED),
    (TaskStatus.RUNNING, TaskStatus.FAILED),
    (TaskStatus.PENDING, TaskStatus.FAILED),
}


class FailureReason(Enum):
    EXECUTION_ERROR = "EXECUTION_ERROR"
    DEPENDENCY_UNSATISFIED = "DEPENDENCY_UNSATISFIED"
    AGENT_DISCONNECTED = "AGENT_DISCONNECTED"
    TIMEOUT = "TIMEOUT"
    PLANNER_CANCELLED = "PLANNER_CANCELLED"


class DependencyKind(Enum):
    UNCONDITIONAL = "UNCONDITIONAL"
    SUCCESS_ONLY = "SUCCESS_ONLY"
    CONDITIONAL = "CONDITIONAL"


@dataclass(frozen=True)
class DependencyType:
    kind: DependencyKind
    condition_id: Optional[str] = None

    def __post_init__(self):
        if self.kind is DependencyKind.CONDITIONAL and not self.condition_id:
            raise ValueError("CONDITIONAL dependency requires a condition_id")
        if self.kind is not DependencyKind.CONDITIONAL and self.condition_id:
            raise ValueError("condition_id only valid on CONDITIONAL dependencies")

    @classmethod
    def unconditional(cls) -> "DependencyType":
        return cls(DependencyKind.UNCONDITIONAL)


# Named predicates a CONDITIONAL edge may use, evaluated over the upstream
# task's result; an edge naming any other is a validation violation.
CONDITIONS: Dict[str, Callable[[Any], bool]] = {"always": lambda _result: True}

# Fields an editor may patch on a task; status/result are engine-owned.
EDITABLE_TASK_FIELDS = ("name", "description", "device", "tips")
EDITABLE_EDGE_FIELDS = ("dep_type", "description")
# Task fields only a document may carry: the engine-owned ones, and the
# `dependencies` list derived from the edges (read back, never trusted).
_DOCUMENT_TASK_FIELDS = ("status", "result", "failure_reason", "dependencies")
_EDGE_FIELDS = ("id", "from_task", "to_task", "dep_type", "condition_id", "description")


@dataclass(frozen=True)
class TaskStar:
    id: str
    device: str
    name: str = ""
    description: str = ""
    tips: Tuple[str, ...] = ()
    status: TaskStatus = TaskStatus.PENDING
    result: Any = None
    failure_reason: Optional[FailureReason] = None


@dataclass(frozen=True)
class TaskStarLine:
    id: str
    from_task: str
    to_task: str
    dep_type: DependencyType = field(default_factory=DependencyType.unconditional)
    description: str = ""


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class TaskConstellation:
    def __init__(self, request: str = "") -> None:
        self.request = request
        self.tasks: Dict[str, TaskStar] = {}
        self.edges: Dict[str, TaskStarLine] = {}
        self.version = 0
        # Endpoint id -> incoming edge ids, id-sorted; None until first read.
        self._incoming: Optional[Dict[str, Tuple[str, ...]]] = None

    # -- queries ---------------------------------------------------------

    def task(self, task_id: str) -> TaskStar:
        try:
            return self.tasks[task_id]
        except (KeyError, TypeError):
            raise NotFound(f"no task {task_id!r}") from None

    def edge(self, edge_id: str) -> TaskStarLine:
        try:
            return self.edges[edge_id]
        except (KeyError, TypeError):
            raise NotFound(f"no dependency {edge_id!r}") from None

    def incoming(self, task_id: str) -> List[TaskStarLine]:
        return [self.edges[edge_id] for edge_id in self._incoming_ids(task_id)]

    def dependencies_of(self, task_id: str) -> List[str]:
        """Incoming edge ids of a task, the derived `dependencies` field."""
        return list(self._incoming_ids(task_id))

    def _incoming_ids(self, task_id: str) -> Tuple[str, ...]:
        if self._incoming is None:
            index: Dict[str, List[str]] = {}
            for edge_id in sorted(self.edges):
                index.setdefault(self.edges[edge_id].to_task, []).append(edge_id)
            self._incoming = {task: tuple(ids) for task, ids in index.items()}
        return self._incoming.get(task_id, ())

    # -- raw ops (no version bump, no check of the result; see apply_delta) --

    def _add_task(self, spec: Dict[str, Any]) -> None:
        task = task_from_entry(spec, created=True)
        if task.id in self.tasks:
            raise DuplicateId(f"task id {task.id!r} already present")
        self.tasks[task.id] = task

    def _remove_task(self, task_id: str) -> None:
        self.task(task_id)
        for edge in list(self.edges.values()):
            if task_id in (edge.from_task, edge.to_task):
                del self.edges[edge.id]
        del self.tasks[task_id]
        self._incoming = None

    def _update_task(self, task_id: str, patch: Dict[str, Any]) -> None:
        task = self.task(task_id)
        _check_patch(patch, EDITABLE_TASK_FIELDS, f"task {task_id!r}")
        parsed = task_from_entry({**patch, "id": task_id}, created=True)
        self.tasks[task_id] = replace(task, **{key: getattr(parsed, key) for key in patch})

    def _add_dependency(self, spec: Dict[str, Any]) -> None:
        edge = edge_from_entry(spec)
        if edge.id in self.edges:
            raise DuplicateId(f"dependency id {edge.id!r} already present")
        self.edges[edge.id] = edge
        self._incoming = None

    def _remove_dependency(self, edge_id: str) -> None:
        del self.edges[self.edge(edge_id).id]
        self._incoming = None

    def _update_dependency(self, edge_id: str, patch: Dict[str, Any]) -> None:
        edge = self.edge(edge_id)
        _check_patch(patch, EDITABLE_EDGE_FIELDS, f"dependency {edge_id!r}")
        parsed = edge_from_entry(
            {**patch, "id": edge_id, "from_task": edge.from_task, "to_task": edge.to_task}
        )
        self.edges[edge_id] = replace(edge, **{key: getattr(parsed, key) for key in patch})

    # -- engine-owned status transitions ---------------------------------

    def transition(
        self,
        task_id: str,
        new_status: TaskStatus,
        result: Any = None,
        failure_reason: Optional[FailureReason] = None,
    ) -> None:
        task = self.task(task_id)
        if (task.status, new_status) not in _LEGAL_TRANSITIONS:
            raise IllegalTransition(
                f"illegal transition {task.status.value}->{new_status.value} on task {task_id!r}"
            )
        changes = {"result": result, "failure_reason": failure_reason} if new_status.terminal else {}
        self.tasks[task_id] = replace(task, status=new_status, **changes)

    # -- validation ------------------------------------------------------

    def validate(self) -> List[Violation]:
        violations: List[Violation] = []
        for edge in sorted(self.edges.values(), key=lambda e: e.id):
            for endpoint in (edge.from_task, edge.to_task):
                if endpoint not in self.tasks:
                    violations.append(
                        Violation("DanglingEdge", f"edge {edge.id!r} references missing task {endpoint!r}")
                    )
            if edge.from_task == edge.to_task:
                violations.append(Violation("SelfLoop", f"edge {edge.id!r} on {edge.from_task!r}"))
            condition_id = edge.dep_type.condition_id
            if edge.dep_type.kind is DependencyKind.CONDITIONAL and condition_id not in CONDITIONS:
                violations.append(
                    Violation("UnknownCondition", f"edge {edge.id!r} names condition {condition_id!r}")
                )
        seen_pairs: Set[Tuple[str, str]] = set()
        for edge in sorted(self.edges.values(), key=lambda e: e.id):
            pair = (edge.from_task, edge.to_task)
            if pair in seen_pairs:
                violations.append(
                    Violation("DuplicateEdge", f"multiple edges {pair[0]!r}->{pair[1]!r}")
                )
            seen_pairs.add(pair)
        cycle = self._find_cycle()
        if cycle:
            violations.append(
                Violation("CycleIntroduced", f"cycle through {{{', '.join(sorted(cycle))}}}")
            )
        for task in sorted(self.tasks.values(), key=lambda t: t.id):
            if task.result is not None and not task.status.terminal:
                violations.append(
                    Violation("StatusResult", f"task {task.id!r} has a result while {task.status.value}")
                )
        return violations

    def _find_cycle(self) -> Set[str]:
        """Kahn peel; returns the node set of the residual cyclic core."""
        return set(self.tasks).difference(self._peel_order())

    def _peel_order(self) -> List[str]:
        """Kahn's peel, smallest ready id first: a topological order of the
        tasks not on or behind a cycle. The adjacency is built here from
        ``edges``, not from the cached index, so a corrupted dict shows."""
        indegree = dict.fromkeys(self.tasks, 0)
        successors: Dict[str, List[str]] = {}
        for edge in self.edges.values():
            if edge.from_task in indegree and edge.to_task in indegree:
                indegree[edge.to_task] += 1
                successors.setdefault(edge.from_task, []).append(edge.to_task)
        ready = [t for t, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for successor in successors.get(node, ()):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    heapq.heappush(ready, successor)
        return order

    # -- readiness -------------------------------------------------------

    def edge_satisfied(self, edge: TaskStarLine) -> bool:
        upstream = self.task(edge.from_task)
        kind = edge.dep_type.kind
        if kind is DependencyKind.UNCONDITIONAL:
            return upstream.status.terminal
        if kind is DependencyKind.SUCCESS_ONLY:
            return upstream.status is TaskStatus.COMPLETED
        return upstream.status.terminal and _condition_holds(edge, upstream)

    def ready_tasks(self) -> List[str]:
        """PENDING tasks whose incoming edges are all satisfied, id-sorted."""
        ready = []
        for task_id in sorted(self.tasks):
            task = self.tasks[task_id]
            if task.status is not TaskStatus.PENDING:
                continue
            if all(self.edge_satisfied(e) for e in self.incoming(task_id)):
                ready.append(task_id)
        return ready

    def is_quiescent(self) -> bool:
        """True iff every task is terminal or can never become ready.

        A PENDING task is permanently blocked when some incoming edge can
        never be satisfied under any completion of the still-live tasks:
        a SUCCESS_ONLY upstream FAILED, a CONDITIONAL upstream terminal with
        a false predicate, or (transitively) an upstream that is itself
        permanently blocked.
        """
        if any(t.status is TaskStatus.RUNNING for t in self.tasks.values()):
            return False
        # In topological order every upstream is judged before its
        # downstream tasks, so one pass finds every blocked task.
        blocked: Set[str] = set()
        for task_id in self._peel_order():
            if not self.tasks[task_id].status.terminal and self._edge_blocks(task_id, blocked):
                blocked.add(task_id)
        return all(task.status.terminal or tid in blocked for tid, task in self.tasks.items())

    def _edge_blocks(self, task_id: str, blocked: Set[str]) -> bool:
        for edge in self.incoming(task_id):
            upstream = self.task(edge.from_task)
            kind = edge.dep_type.kind
            if upstream.status.terminal:
                if kind is DependencyKind.SUCCESS_ONLY and upstream.status is TaskStatus.FAILED:
                    return True
                if kind is DependencyKind.CONDITIONAL and not _condition_holds(edge, upstream):
                    return True
            elif edge.from_task in blocked:
                return True
        return False

    # -- copies and equality ---------------------------------------------

    def clone(self) -> "TaskConstellation":
        """A new version sharing every (frozen) record and the index."""
        other = TaskConstellation(self.request)
        other.version = self.version
        other.tasks = dict(self.tasks)
        other.edges = dict(self.edges)
        other._incoming = self._incoming
        return other

    def structurally_equal(self, other: "TaskConstellation") -> bool:
        from .serial import serialize

        return serialize(self) == serialize(other)


def _condition_holds(edge: TaskStarLine, upstream: TaskStar) -> bool:
    return bool(CONDITIONS[edge.dep_type.condition_id](upstream.result))


def unrecovered_failures(constellation: TaskConstellation) -> List[TaskStar]:
    """FAILED tasks, id-sorted, whose job no COMPLETED task has done.

    A job is a (description, device) pair: a FAILED task whose pair also
    belongs to a COMPLETED task counts as retried, not as a failure.
    """
    tasks = [task for _, task in sorted(constellation.tasks.items())]
    completed_jobs = {
        (task.description, task.device) for task in tasks if task.status is TaskStatus.COMPLETED
    }
    return [
        task
        for task in tasks
        if task.status is TaskStatus.FAILED
        and (task.description, task.device) not in completed_jobs
    ]


def task_from_entry(entry: Dict[str, Any], created: bool) -> TaskStar:
    """Parse one task entry: a document's, or with ``created`` an ``AddTask``
    spec or build-config entry, which may not carry _DOCUMENT_TASK_FIELDS."""
    allowed = {"id", *EDITABLE_TASK_FIELDS, *(() if created else _DOCUMENT_TASK_FIELDS)}
    task_id = _entry_id(entry, "task", allowed)
    tips = entry.get("tips", [])
    if not isinstance(tips, list) or not all(isinstance(tip, str) for tip in tips):
        raise ParseError(f"task {task_id!r}: tips must be a list of strings, not {tips!r}")
    try:
        reason = entry.get("failure_reason")
        return TaskStar(
            id=task_id,
            name=_text(entry, "name", task_id),
            description=_text(entry, "description"),
            device=_text(entry, "device"),
            tips=tuple(tips),
            status=TaskStatus(entry.get("status", "PENDING")),
            result=entry.get("result"),
            failure_reason=None if reason is None else FailureReason(reason),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad task entry {task_id!r}: {exc}") from exc


def edge_from_entry(entry: Dict[str, Any]) -> TaskStarLine:
    """Parse one dependency entry, of a document, a build config or an
    ``AddDependency`` spec alike."""
    edge_id = _entry_id(entry, "dependency", set(_EDGE_FIELDS))
    for endpoint in ("from_task", "to_task"):
        if not isinstance(entry.get(endpoint), str) or not entry[endpoint]:
            raise ParseError(f"dependency {edge_id!r} requires a non-empty {endpoint}")
    return TaskStarLine(
        id=edge_id,
        from_task=entry["from_task"],
        to_task=entry["to_task"],
        dep_type=_dep_type(entry.get("dep_type", "UNCONDITIONAL"), entry.get("condition_id")),
        description=_text(entry, "description"),
    )


def _entry_id(entry: Any, what: str, allowed: Set[str]) -> str:
    """Check an entry's shape and field names; return its id."""
    if not isinstance(entry, dict):
        raise ParseError(f"{what} entry must be an object, not {entry!r}")
    illegal = sorted(map(str, set(entry) - allowed))
    if illegal:
        raise IllegalField(f"{what} entry cannot carry {', '.join(illegal)}")
    if not isinstance(entry.get("id"), str) or not entry["id"]:
        raise ParseError(f"{what} entry requires a non-empty id")
    return entry["id"]


def _check_patch(patch: Any, editable: Tuple[str, ...], what: str) -> None:
    if not isinstance(patch, dict):
        raise ParseError(f"patch of {what} must be an object, not {patch!r}")
    illegal = sorted(map(str, set(patch) - set(editable)))
    if illegal:
        raise IllegalField(f"cannot patch {', '.join(illegal)} on {what}")


def _text(entry: Dict[str, Any], key: str, default: str = "") -> str:
    value = entry.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"entry {entry['id']!r}: {key} must be a string, not {value!r}")
    return value


def _dep_type(kind: Any, condition_id: Any = None) -> DependencyType:
    if condition_id is not None and not isinstance(condition_id, str):
        raise ParseError(f"condition_id must be a string, not {condition_id!r}")
    try:
        return DependencyType(DependencyKind(kind), condition_id)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad dep_type {kind!r}: {exc}") from exc


def from_entries(doc: Dict[str, Any], created: bool) -> TaskConstellation:
    """Build a graph from a document or build config in one pass.

    Every entry is parsed and inserted first; a malformed one raises at
    once. Repeated ids and all of ``validate``'s violations are then raised
    together as one ``ValidationFailed``, so a build costs one Kahn pass.
    """
    constellation, violations = insert_entries(doc, created)
    violations.extend(constellation.validate())
    if violations:
        raise ValidationFailed(violations)
    return constellation


def insert_entries(
    doc: Dict[str, Any], created: bool
) -> Tuple[TaskConstellation, List[Violation]]:
    """Parse and insert every entry of a document or build config, without
    validating the result; a malformed entry raises at once. Returns the
    graph and a ``DuplicateId`` violation per repeated id (the first entry
    is kept), which the graph itself no longer shows."""
    if not isinstance(doc, dict):
        raise ParseError("a constellation must be a JSON object")
    request = doc.get("request", "")
    tasks, edges = doc.get("tasks", []), doc.get("dependencies", [])
    if not isinstance(request, str) or not isinstance(tasks, list) or not isinstance(edges, list):
        raise ParseError("a constellation needs a string request and lists of tasks and dependencies")
    constellation = TaskConstellation(request)
    violations: List[Violation] = []
    for entry in tasks:
        task = task_from_entry(entry, created)
        if task.id in constellation.tasks:
            violations.append(Violation("DuplicateId", f"task id {task.id!r} appears twice"))
        else:
            constellation.tasks[task.id] = task
    for entry in edges:
        edge = edge_from_entry(entry)
        if edge.id in constellation.edges:
            violations.append(Violation("DuplicateId", f"dependency id {edge.id!r} appears twice"))
        else:
            constellation.edges[edge.id] = edge
    return constellation, violations
