"""Mutable dependency-DAG of tasks: the data model the whole engine runs on.

A constellation holds tasks keyed by id and directed dependency edges keyed
by id. Task and dependency entries (the format of
``schemas/constellation.schema.json``) are read by one parser each,
``task_from_entry`` and ``edge_from_entry``; a malformed entry raises
``ParseError`` and a field the entry may not carry raises ``IllegalField``,
whichever path reads it. Whole graphs (``serial.from_document`` and
``edits.build_constellation``) are made by ``from_entries``: insert every
entry, then judge the whole graph with one ``validate`` call. After that the
structure changes only through ``edits.apply_delta``, which runs the raw
``_...`` ops below on a working copy, checks the result once and bumps the
version once per commit; the engine moves task statuses with
``transition``. The raw ops only parse and mutate: they raise ``NotFound``,
``DuplicateId``, ``ParseError`` and ``IllegalField``, and leave cycles,
dangling or parallel edges and edits of non-PENDING tasks to the one check
of the result.

One judge decides a graph's structure: ``validate`` lists every fault in
one linear pass, and ``_changes_valid`` judges a commit from the region
downstream of the edges it added. Both find a cycle with one count-only
Kahn peel (``_unpeeled``); ``topological_order`` only produces an order.

Task and dependency records are frozen and assigned once: each ``__init__``
writes every field once into the instance dict, and ``transition`` and the
raw ops store a replaced record instead of changing one, so ``clone`` copies
only the dicts and versions share every record they did not change (path
copying). ``borrow`` copies nothing: the borrowed graph shares every dict
and set until its first write (``transition`` or a raw op) copies them, so
a snapshot per planner round costs O(1). A status's legal targets are a
plain tuple on the member, so ``transition`` checks a move without hashing.
Two derived indexes map each task to the ids of its incoming (id-sorted) and
outgoing edges. They are built with the graph, kept up to date by the raw
ops, and copied by ``clone`` as dicts sharing their immutable tuples.

Every graph keeps one change record: the ids of tasks whose record or
incoming edges the raw ops replaced since ``clone``, and of edges they added
or updated. ``clone`` and ``borrow`` start it empty; ``insert_entries`` puts
every record it inserts in it. A commit judges a delta from this record
alone (see ``edits.apply_delta``).

Readiness is kept, not searched for (Kahn's in-degree counts, applied to
edge satisfaction): each PENDING task's count of unsatisfied incoming edges,
the PENDING tasks whose count is zero, and the RUNNING tasks. They are
settled whenever a graph becomes valid: ``from_entries`` counts every task
once the check passes, and a commit recounts the tasks in its record.
After that ``transition`` lowers the counts of a task's downstream tasks
when it turns terminal (satisfaction only ever goes from false to true,
since a terminal record never changes), so the queries only read.
``clone`` copies the counts and sets.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, NoReturn, Optional, Set, Tuple

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

    def __init__(self, value: str) -> None:
        # Plain attributes, not properties: the readiness upkeep reads
        # ``terminal`` per edge, and a member lookup through the enum class is
        # slow. ``targets`` is set below, once every member exists.
        self.terminal = value in ("COMPLETED", "FAILED")
        self.targets: Tuple[TaskStatus, ...] = ()


# Each status's legal targets, a plain attribute that ``transition`` searches
# by identity: hashing a pair of members goes through ``Enum.__hash__``.
# PENDING -> FAILED covers planner cancellation and the dependency timeout
# policy; terminal states have no outgoing transitions.
TaskStatus.PENDING.targets = (TaskStatus.RUNNING, TaskStatus.FAILED)
TaskStatus.RUNNING.targets = (TaskStatus.COMPLETED, TaskStatus.FAILED)


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


# The type of every UNCONDITIONAL edge: records are frozen, so one is shared.
UNCONDITIONAL = DependencyType(DependencyKind.UNCONDITIONAL)

# Named predicates a CONDITIONAL edge may use, evaluated over the upstream
# task's result; an edge naming any other is a validation violation.
CONDITIONS: Dict[str, Callable[[Any], bool]] = {"always": lambda _result: True}

# Fields an editor may patch on a task; status/result are engine-owned.
EDITABLE_TASK_FIELDS = ("name", "description", "device", "tips")
EDITABLE_EDGE_FIELDS = ("dep_type", "condition_id", "description")
# Task fields only a document may carry: the engine-owned ones, and the
# `dependencies` list derived from the edges (read back, never trusted).
_DOCUMENT_TASK_FIELDS = ("status", "result", "failure_reason", "dependencies")
# The keys each kind of entry may carry.
_CREATED_TASK_KEYS = frozenset(("id", *EDITABLE_TASK_FIELDS))
_DOCUMENT_TASK_KEYS = _CREATED_TASK_KEYS.union(_DOCUMENT_TASK_FIELDS)
_EDGE_KEYS = frozenset(("id", "from_task", "to_task", *EDITABLE_EDGE_FIELDS))


# The records built per task and per edge are frozen dataclasses with a
# hand-written ``__init__`` of the generated signature. It writes each field
# once into the instance's own dict, where the generated one calls
# ``object.__setattr__`` per field; writing in field order keeps the dict's
# keys shared between instances. Eq, hash, repr, ``fields`` and ``replace``
# are still generated.


@dataclass(frozen=True, init=False)
class TaskStar:
    id: str
    device: str
    name: str = ""
    description: str = ""
    tips: Tuple[str, ...] = ()
    status: TaskStatus = TaskStatus.PENDING
    result: Any = None
    failure_reason: Optional[FailureReason] = None

    def __init__(
        self,
        id: str,
        device: str,
        name: str = "",
        description: str = "",
        tips: Tuple[str, ...] = (),
        status: TaskStatus = TaskStatus.PENDING,
        result: Any = None,
        failure_reason: Optional[FailureReason] = None,
    ) -> None:
        values = self.__dict__
        values["id"] = id
        values["device"] = device
        values["name"] = name
        values["description"] = description
        values["tips"] = tips
        values["status"] = status
        values["result"] = result
        values["failure_reason"] = failure_reason


@dataclass(frozen=True, init=False)
class TaskStarLine:
    id: str
    from_task: str
    to_task: str
    dep_type: DependencyType = UNCONDITIONAL
    description: str = ""

    def __init__(
        self,
        id: str,
        from_task: str,
        to_task: str,
        dep_type: DependencyType = UNCONDITIONAL,
        description: str = "",
    ) -> None:
        values = self.__dict__
        values["id"] = id
        values["from_task"] = from_task
        values["to_task"] = to_task
        values["dep_type"] = dep_type
        values["description"] = description


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
        # Endpoint id -> incoming edge ids, id-sorted, and outgoing edge ids.
        self._incoming: Dict[str, Tuple[str, ...]] = {}
        self._outgoing: Dict[str, Tuple[str, ...]] = {}
        # The change record: ids of tasks whose record or incoming edges the
        # raw ops replaced, and of edges they added or updated.
        self._touched_tasks: Set[str] = set()
        self._touched_edges: Set[str] = set()
        # Readiness: PENDING task -> count of its unsatisfied incoming edges,
        # the PENDING tasks counting zero, and the RUNNING tasks.
        self._waiting: Dict[str, int] = {}
        self._ready: Set[str] = set()
        self._running: Set[str] = set()
        self._borrowed = False  # shares the containers above; see ``borrow``

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
        return [self.edges[edge_id] for edge_id in self._incoming.get(task_id, ())]

    def dependencies_of(self, task_id: str) -> List[str]:
        """Incoming edge ids of a task, the derived `dependencies` field."""
        return list(self._incoming.get(task_id, ()))

    def _index_edges(self) -> None:
        """Build both indexes from ``edges``."""
        incoming: Dict[str, List[str]] = {}
        outgoing: Dict[str, List[str]] = {}
        for edge_id in sorted(self.edges):
            edge = self.edges[edge_id]
            incoming.setdefault(edge.to_task, []).append(edge_id)
            outgoing.setdefault(edge.from_task, []).append(edge_id)
        self._incoming = {task: tuple(ids) for task, ids in incoming.items()}
        self._outgoing = {task: tuple(ids) for task, ids in outgoing.items()}

    def _touch(self, task_id: str, edge_id: Optional[str] = None) -> None:
        self._touched_tasks.add(task_id)
        if edge_id is not None:
            self._touched_edges.add(edge_id)

    # -- raw ops (no version bump, no check of the result; see apply_delta) --

    def _add_task(self, spec: Dict[str, Any]) -> None:
        self._own()
        task = task_from_entry(spec, created=True)
        if task.id in self.tasks:
            raise DuplicateId(f"task id {task.id!r} already present")
        self.tasks[task.id] = task
        self._touch(task.id)

    def _remove_task(self, task_id: str) -> None:
        self._own()
        self.task(task_id)
        incident = (*self._incoming.get(task_id, ()), *self._outgoing.get(task_id, ()))
        for edge_id in dict.fromkeys(incident):
            self._remove_dependency(edge_id)
        del self.tasks[task_id]
        self._touch(task_id)

    def _update_task(self, task_id: str, patch: Dict[str, Any]) -> None:
        self._own()
        task = self.task(task_id)
        _check_patch(patch, EDITABLE_TASK_FIELDS, f"task {task_id!r}")
        parsed = task_from_entry({"device": task.device, **patch, "id": task_id}, created=True)
        self.tasks[task_id] = replace(task, **{key: getattr(parsed, key) for key in patch})
        self._touch(task_id)

    def _add_dependency(self, spec: Dict[str, Any]) -> None:
        self._own()
        edge = edge_from_entry(spec)
        if edge.id in self.edges:
            raise DuplicateId(f"dependency id {edge.id!r} already present")
        self.edges[edge.id] = edge
        ids = self._incoming.get(edge.to_task, ())
        at = bisect(ids, edge.id)
        self._incoming[edge.to_task] = ids[:at] + (edge.id,) + ids[at:]
        self._outgoing[edge.from_task] = self._outgoing.get(edge.from_task, ()) + (edge.id,)
        self._touch(edge.to_task, edge.id)

    def _remove_dependency(self, edge_id: str) -> None:
        self._own()
        edge = self.edges.pop(self.edge(edge_id).id)
        for index, task_id in ((self._incoming, edge.to_task), (self._outgoing, edge.from_task)):
            ids = tuple(other for other in index[task_id] if other != edge_id)
            if ids:
                index[task_id] = ids
            else:
                del index[task_id]
        self._touch(edge.to_task)

    def _update_dependency(self, edge_id: str, patch: Dict[str, Any]) -> None:
        self._own()
        edge = self.edge(edge_id)
        _check_patch(patch, EDITABLE_EDGE_FIELDS, f"dependency {edge_id!r}")
        # A patch naming dep_type replaces the whole type, condition included;
        # one naming condition_id alone changes the current type's condition.
        current = {"description": edge.description}
        if "dep_type" not in patch:
            current.update(dep_type=edge.dep_type.kind.value, condition_id=edge.dep_type.condition_id)
        self.edges[edge_id] = edge_from_entry(
            {**current, **patch, "id": edge_id, "from_task": edge.from_task, "to_task": edge.to_task}
        )
        self._touch(edge.to_task, edge_id)

    # -- engine-owned status transitions ---------------------------------

    def transition(
        self,
        task_id: str,
        new_status: TaskStatus,
        result: Any = None,
        failure_reason: Optional[FailureReason] = None,
    ) -> None:
        task = self.task(task_id)
        if new_status not in task.status.targets:
            raise IllegalTransition(
                f"illegal transition {task.status.value}->{new_status.value} on task {task_id!r}"
            )
        if not new_status.terminal:
            result, failure_reason = task.result, task.failure_reason
        if self._borrowed:  # tested here, not in a call: two transitions per task
            self._own()
        self.tasks[task_id] = TaskStar(
            task_id, task.device, task.name, task.description, task.tips, new_status, result, failure_reason
        )
        self._waiting.pop(task_id, None)
        self._ready.discard(task_id)
        if new_status is TaskStatus.RUNNING:
            self._running.add(task_id)
            return
        self._running.discard(task_id)
        # The upstream of every edge walked is this task, now terminal, so an
        # UNCONDITIONAL edge is satisfied without looking it up.
        for edge_id in self._outgoing.get(task_id, ()):
            edge = self.edges[edge_id]
            unsatisfied = self._waiting.get(edge.to_task)
            if unsatisfied is not None and (edge.dep_type is UNCONDITIONAL or self.edge_satisfied(edge)):
                self._waiting[edge.to_task] = unsatisfied - 1
                if unsatisfied == 1:
                    self._ready.add(edge.to_task)

    # -- validation ------------------------------------------------------

    def validate(self) -> List[Violation]:
        """Every structural fault, found in one linear pass: one walk over
        ``edges`` checks endpoints, self-loops, conditions and parallel pairs
        and counts in-degrees, then ``_unpeeled`` leaves the cycle. Only the
        faults found are sorted: each edge's in edge id order, a
        ``DuplicateEdge`` per edge of a pair but its smallest id, the cycle,
        and each task holding a result while not terminal, by id."""
        tasks = self.tasks
        faults: List[Tuple[str, Violation]] = []  # (edge id, fault)
        parallel: List[Tuple[str, Violation]] = []  # (edge id, DuplicateEdge)
        least: Dict[Tuple[str, str], str] = {}  # (from, to) -> its smallest edge id so far
        indegree = dict.fromkeys(tasks, 0)
        for edge_id, edge in self.edges.items():
            pair = from_task, to_task = edge.from_task, edge.to_task
            if from_task in tasks and to_task in tasks:
                indegree[to_task] += 1
            else:
                for missing in (task_id for task_id in pair if task_id not in tasks):
                    detail = f"edge {edge.id!r} references missing task {missing!r}"
                    faults.append((edge_id, Violation("DanglingEdge", detail)))
            if from_task == to_task:
                faults.append((edge_id, Violation("SelfLoop", f"edge {edge.id!r} on {from_task!r}")))
            condition_id = edge.dep_type.condition_id  # set on CONDITIONAL edges only
            if condition_id and condition_id not in CONDITIONS:
                detail = f"edge {edge.id!r} names condition {condition_id!r}"
                faults.append((edge_id, Violation("UnknownCondition", detail)))
            first = least.setdefault(pair, edge_id)
            if first != edge_id:
                detail = f"multiple edges {from_task!r}->{to_task!r}"
                parallel.append((max(first, edge_id), Violation("DuplicateEdge", detail)))
                least[pair] = min(first, edge_id)
        faults.sort(key=itemgetter(0))  # stable: an edge's faults keep their order
        violations = [violation for _, violation in faults + sorted(parallel, key=itemgetter(0))]
        cycle = self._unpeeled(indegree)
        if cycle:
            violations.append(Violation("CycleIntroduced", f"cycle through {{{', '.join(sorted(cycle))}}}"))
        holding = [task for task in tasks.values() if task.result is not None and not task.status.terminal]
        for task in sorted(holding, key=attrgetter("id")):
            violations.append(Violation("StatusResult", f"task {task.id!r} has a result while {task.status.value}"))
        return violations

    def _changes_valid(self) -> bool:
        """Whether ``validate()`` would return no violation, judged from the
        edges in the change record alone. Exact when the graph the record
        starts from was valid: a clone of a valid graph, or the empty graph
        ``insert_entries`` fills from created entries. Removals add no
        violation, neither the raw ops nor created entries set a result, a
        new parallel pair has a recorded edge and a new cycle runs through
        one."""
        tasks, edges, targets = self.tasks, self.edges, set()
        for edge in (edges[edge_id] for edge_id in self._touched_edges if edge_id in edges):
            condition_id = edge.dep_type.condition_id
            unknown = condition_id and condition_id not in CONDITIONS
            if unknown or edge.from_task not in tasks or edge.to_task not in tasks:
                return False
            targets.add(edge.to_task)
        for task_id in targets:
            sources = [edges[edge_id].from_task for edge_id in self._incoming[task_id]]
            if len(set(sources)) < len(sources):
                return False
        return not self._cycle_downstream_of(targets)

    def _cycle_downstream_of(self, starts: Set[str]) -> bool:
        """Whether a cycle runs through the tasks reachable from ``starts``.
        A cycle through an added edge lies wholly downstream of its target (a
        self-loop included), so one search from all targets counts the
        in-degrees within the region they reach, for ``_unpeeled``."""
        edges, outgoing = self.edges, self._outgoing
        indegree, stack = dict.fromkeys(starts, 0), list(starts)
        while stack:
            for edge_id in outgoing.get(stack.pop(), ()):
                target = edges[edge_id].to_task
                if target not in indegree:
                    stack.append(target)
                indegree[target] = indegree.get(target, 0) + 1
        return bool(self._unpeeled(indegree))

    def _unpeeled(self, indegree: Dict[str, int]) -> List[str]:
        """Kahn's peel along the outgoing index, counting only: the tasks of
        ``indegree`` (their counts of incoming edges from each other, used up
        here) left on or behind a cycle, the same whatever the pop order."""
        edges, outgoing = self.edges, self._outgoing
        stack = [task_id for task_id, count in indegree.items() if not count]
        while stack:
            for edge_id in outgoing.get(stack.pop(), ()):
                target = edges[edge_id].to_task
                if target in indegree:  # not so for an edge to no task
                    indegree[target] -= 1
                    if not indegree[target]:
                        stack.append(target)
        return [task_id for task_id, count in indegree.items() if count]

    def topological_order(self) -> List[str]:
        """Kahn's order, smallest ready id first, leaving out the tasks on or
        behind a cycle: for the parallelism metrics, not for any check."""
        indegree = dict.fromkeys(self.tasks, 0)
        successors: Dict[str, List[str]] = {}
        for edge in self.edges.values():
            if edge.from_task in indegree and edge.to_task in indegree:
                successors.setdefault(edge.from_task, []).append(edge.to_task)
                indegree[edge.to_task] += 1
        ready = [task_id for task_id, count in indegree.items() if not count]
        heapq.heapify(ready)
        order = []
        while ready:
            order.append(heapq.heappop(ready))
            for successor in successors.get(order[-1], ()):
                indegree[successor] -= 1
                if not indegree[successor]:
                    heapq.heappush(ready, successor)
        return order

    # -- readiness -------------------------------------------------------

    def edge_satisfied(self, edge: TaskStarLine) -> bool:
        upstream = self.task(edge.from_task)
        if not upstream.status.terminal:
            return False
        kind = edge.dep_type.kind
        if kind is DependencyKind.SUCCESS_ONLY:
            return upstream.status is TaskStatus.COMPLETED
        return kind is DependencyKind.UNCONDITIONAL or _condition_holds(edge, upstream)

    def ready_tasks(self) -> List[str]:
        """PENDING tasks whose incoming edges are all satisfied, id-sorted:
        the kept ready set, sorted."""
        return sorted(self._ready)

    def is_quiescent(self) -> bool:
        """True iff no task is RUNNING and none is ready; read from the kept
        sets, with no scan.

        In an acyclic graph a PENDING task that is not ready waits, directly
        or through PENDING upstream tasks, on an edge whose terminal upstream
        can never satisfy it, so no completion can make progress.
        """
        return not self._running and not self.ready_tasks()

    def _recount(self) -> None:
        """Recount the readiness of the tasks in the change record from
        their record and incoming edges, whatever status they had before.
        The graph must be valid, so that every edge has its endpoints. An
        edge whose upstream is not terminal is unsatisfied at a glance."""
        waiting, ready, running = self._waiting, self._ready, self._running
        for task_id in self._touched_tasks:
            waiting.pop(task_id, None)
            ready.discard(task_id)
            running.discard(task_id)
            task = self.tasks.get(task_id)
            if task is None:
                continue
            if task.status is TaskStatus.PENDING:
                unsatisfied = 0
                for edge_id in self._incoming.get(task_id, ()):
                    edge = self.edges[edge_id]
                    terminal = self.tasks[edge.from_task].status.terminal
                    unsatisfied += not (terminal and self.edge_satisfied(edge))
                waiting[task_id] = unsatisfied
                if not unsatisfied:
                    ready.add(task_id)
            elif task.status is TaskStatus.RUNNING:
                running.add(task_id)

    # -- copies and equality ---------------------------------------------

    def borrow(self) -> "TaskConstellation":
        """In O(1), a graph sharing every dict and set of this one, with its
        own empty change record. Its first write copies what it shares, so
        its writes never reach this graph; this graph's show through it."""
        other = TaskConstellation(self.request)
        other.version = self.version
        other.tasks, other.edges = self.tasks, self.edges
        other._incoming, other._outgoing = self._incoming, self._outgoing
        other._waiting, other._ready, other._running = self._waiting, self._ready, self._running
        other._borrowed = True
        return other

    def clone(self) -> "TaskConstellation":
        """A new version sharing every (frozen) record and index tuple, with
        its own copy of the dicts and sets: a borrow that copies at once."""
        other = self.borrow()
        other._own()
        return other

    def _own(self) -> None:
        """Copy the dicts and sets a borrowed graph shares, before it writes."""
        if self._borrowed:
            self._borrowed = False
            self.tasks, self.edges = dict(self.tasks), dict(self.edges)
            self._incoming, self._outgoing = dict(self._incoming), dict(self._outgoing)
            self._waiting, self._ready = dict(self._waiting), set(self._ready)
            self._running = set(self._running)

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
    task_id = _entry_id(entry, "task", _CREATED_TASK_KEYS if created else _DOCUMENT_TASK_KEYS)
    if "device" not in entry:
        raise ParseError(f"task {task_id!r} requires a device")
    tips = entry.get("tips", [])
    if not isinstance(tips, list) or not all(isinstance(tip, str) for tip in tips):
        raise ParseError(f"task {task_id!r}: tips must be a list of strings, not {tips!r}")
    name, description, device = entry.get("name", task_id), entry.get("description", ""), entry["device"]
    if not (isinstance(name, str) and isinstance(description, str) and isinstance(device, str)):
        _raise_non_text(task_id, name=name, description=description, device=device)
    try:
        status = TaskStatus(entry["status"]) if "status" in entry else TaskStatus.PENDING
        reason = entry.get("failure_reason")
        failure_reason = None if reason is None else FailureReason(reason)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad task entry {task_id!r}: {exc}") from exc
    return TaskStar(task_id, device, name, description, tuple(tips), status, entry.get("result"), failure_reason)


def edge_from_entry(entry: Dict[str, Any]) -> TaskStarLine:
    """Parse one dependency entry, of a document, a build config or an
    ``AddDependency`` spec alike."""
    edge_id = _entry_id(entry, "dependency", _EDGE_KEYS)
    from_task, to_task = entry.get("from_task"), entry.get("to_task")
    if not (isinstance(from_task, str) and from_task and isinstance(to_task, str) and to_task):
        endpoint = "to_task" if isinstance(from_task, str) and from_task else "from_task"
        raise ParseError(f"dependency {edge_id!r} requires a non-empty {endpoint}")
    dep_type = _dep_type(entry.get("dep_type", "UNCONDITIONAL"), entry.get("condition_id"))
    description = entry.get("description", "")
    if not isinstance(description, str):
        _raise_non_text(edge_id, description=description)
    return TaskStarLine(edge_id, from_task, to_task, dep_type, description)


def _entry_id(entry: Any, what: str, allowed: FrozenSet[str]) -> str:
    """Check an entry's shape and field names; return its id."""
    if not isinstance(entry, dict):
        raise ParseError(f"{what} entry must be an object, not {entry!r}")
    if not allowed.issuperset(entry):
        illegal = sorted(map(str, set(entry) - allowed))
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


def _raise_non_text(entry_id: str, **values: Any) -> NoReturn:
    """Raise ``ParseError`` for the first of ``values`` that is not a string."""
    key, value = next((key, value) for key, value in values.items() if not isinstance(value, str))
    raise ParseError(f"entry {entry_id!r}: {key} must be a string, not {value!r}")


def _dep_type(kind: Any, condition_id: Any = None) -> DependencyType:
    if kind == "UNCONDITIONAL" and condition_id is None:
        return UNCONDITIONAL
    if condition_id is not None and not isinstance(condition_id, str):
        raise ParseError(f"condition_id must be a string, not {condition_id!r}")
    try:
        return DependencyType(DependencyKind(kind), condition_id)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad dep_type {kind!r}: {exc}") from exc


def from_entries(doc: Dict[str, Any], created: bool) -> TaskConstellation:
    """Build a graph from a document or build config in one pass.

    Every entry is parsed and inserted first; a malformed one raises at
    once. The graph is then judged by one ``validate`` call, a linear pass,
    and repeated ids and its violations are raised together as one
    ``ValidationFailed``. A valid graph has its readiness counted before it
    is returned.
    """
    constellation, violations = insert_entries(doc, created)
    violations.extend(constellation.validate())
    if violations:
        raise ValidationFailed(violations)
    constellation._recount()
    return constellation


def insert_entries(
    doc: Dict[str, Any], created: bool
) -> Tuple[TaskConstellation, List[Violation]]:
    """Parse and insert every entry of a document or build config, without
    validating the result; a malformed entry raises at once. Returns the
    graph, whose change record holds every inserted record, and a
    ``DuplicateId`` violation per repeated id (the first entry is kept),
    which the graph itself no longer shows."""
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
    constellation._index_edges()
    constellation._touched_tasks = set(constellation.tasks)
    constellation._touched_edges = set(constellation.edges)
    return constellation, violations
