"""Mutable dependency-DAG of tasks: the data model the whole engine runs on.

A constellation holds tasks keyed by id and directed dependency edges keyed
by id. One judge decides the shape of every document, build config, entry
and patch, and makes its records: the check compiled from
``schemas/constellation.schema.json``, of the whole document or of one of
its ``$defs``, returns a task entry's ``TaskStar`` and a dependency entry's
``TaskStarLine`` (built by ``_task_star`` and ``_task_star_line``, the one
place for the conversions JSON Schema cannot state). A field that an entry
or a patch may not carry raises ``IllegalField``, and any other refusal
``ParseError``, naming the JSON path. ``insert_entries`` makes a whole graph
from the records the check of a document (``serial.from_document``) or of a
build op's config (``edits.apply_delta``) returns, and judges it in the same
walk over its edges. After that the structure changes only through
``edits.apply_delta``, which runs the raw ``_...`` ops below on a working
copy, checks the result once and bumps the version once per commit; the
engine moves task statuses with ``transition``. The raw ops judge their spec
or patch, mutate and keep readiness: they raise ``NotFound``, ``DuplicateId``,
``ParseError`` and ``IllegalField``, and leave cycles, dangling or parallel
edges and edits of non-PENDING tasks to the one check of the result.

One judge decides a graph's structure: ``_walk`` lists every fault of a
whole graph in one linear pass, and ``_changes_valid`` judges a commit from
the region downstream of the edges it added. Both find a cycle with one
Kahn peel (``_peel``), as the tasks it leaves out; ``topological_order`` is
the same peel over every task.

Task and dependency records are named tuples, a dependency's holding its
entry's fields in the document's order: its ``dep_type`` a
``DependencyKind`` member, and the ``condition_id`` that only a CONDITIONAL
edge carries. ``transition`` and the raw ops store a replaced record instead
of changing one, so ``clone`` copies only the dicts and versions share every
record they did not change (path copying). A record equals a plain tuple
of the same values and ``json`` writes one as a list, so records are
compared only with records, and ``serial`` turns them into JSON objects
before anything is written.
``borrow`` copies nothing: the borrowed graph shares every dict and set
until its first write (``transition`` or a raw op) copies them, so a
snapshot per planner round costs O(1). A status's legal targets are a plain
tuple on the member, so ``transition`` checks a move without hashing.
Two derived indexes map each task to the ids of its incoming and outgoing
edges, id-sorted. They are filled by the walk that inserts a graph's edges,
kept up to date by the raw ops, and copied by ``clone`` as dicts sharing
their immutable tuples.

Every graph keeps one change record: the ids of tasks whose record or
incoming edges the raw ops replaced since ``clone``, and of edges they added
or updated. ``clone``, ``borrow`` and ``insert_entries`` start it empty; a
build op records every task it inserts or replaces and every edge it inserts.
A commit that no build op ends is judged from this record alone (see
``edits.apply_delta``).

Readiness is kept, not searched for (Kahn's in-degree counts, applied to edge
satisfaction): each PENDING task's count of the incoming edges holding it
back, the PENDING tasks counting zero, and the RUNNING tasks. One rule
decides: an edge holds its PENDING target back unless its upstream exists, is
terminal and satisfies it (an unknown condition never does). The walk that
inserts a graph settles the counts, each raw op adds or takes one for the task
it affects (``_hold``), and ``transition`` lowers them downstream of a task
that turns terminal (satisfaction only ever goes from false to true: a
terminal record never changes). So the queries only read, and read true on any
graph, a written snapshot included. ``clone`` copies them.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections import defaultdict
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from .errors import (
    DuplicateId,
    IllegalField,
    IllegalTransition,
    NotFound,
    ParseError,
)
from .schema import RECORDS, Refusal, UnknownFields, check_of


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


# A plain module name, so ``transition`` tests an edge's kind per edge
# without a member lookup through the enum class.
UNCONDITIONAL = DependencyKind.UNCONDITIONAL

# Named predicates a CONDITIONAL edge may use, evaluated over the upstream
# task's result; an edge naming any other is a validation violation.
CONDITIONS: Dict[str, Callable[[Any], bool]] = {"always": lambda _result: True}


class TaskStar(NamedTuple):
    id: str
    device: str
    name: str = ""
    description: str = ""
    tips: Tuple[str, ...] = ()
    status: TaskStatus = TaskStatus.PENDING
    result: Any = None
    failure_reason: Optional[FailureReason] = None


class TaskStarLine(NamedTuple):
    id: str
    from_task: str
    to_task: str
    dep_type: DependencyKind = UNCONDITIONAL
    description: str = ""
    condition_id: Optional[str] = None  # a CONDITIONAL edge's only: the schema refuses it elsewhere


class Violation(NamedTuple):
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

    def _touch(self, task_id: str, edge_id: Optional[str] = None) -> None:
        self._touched_tasks.add(task_id)
        if edge_id is not None:
            self._touched_edges.add(edge_id)

    # -- raw ops (no version bump, no check of the result; see apply_delta) --

    def _add_task(self, spec: Dict[str, Any]) -> None:
        self._own()
        task = _judge(spec, "created_task", "task spec")
        if task.id in self.tasks:
            raise DuplicateId(f"task id {task.id!r} already present")
        self.tasks[task.id] = task
        self._waiting[task.id] = 0
        self._ready.add(task.id)
        for edge in self.incoming(task.id):
            self._hold(edge, 1)
        self._touch(task.id)

    def _remove_task(self, task_id: str) -> None:
        self._own()
        self.task(task_id)
        incident = (*self._incoming.get(task_id, ()), *self._outgoing.get(task_id, ()))
        for edge_id in dict.fromkeys(incident):
            self._remove_dependency(edge_id)
        del self.tasks[task_id]
        self._waiting.pop(task_id, None)
        self._ready.discard(task_id)
        self._running.discard(task_id)
        self._touch(task_id)

    def _update_task(self, task_id: str, patch: Dict[str, Any]) -> None:
        self._own()
        task = self.task(task_id)
        what = f"patch of task {task_id!r}"
        _judge(patch, "task_patch", what)
        parsed = _judge({"id": task_id, "device": task.device, **patch}, "created_task", what)
        self.tasks[task_id] = task._replace(**{key: getattr(parsed, key) for key in patch})
        self._touch(task_id)

    def _add_dependency(self, spec: Dict[str, Any]) -> None:
        self._own()
        edge = _judge(spec, "dependency", "dependency spec")
        if edge.id in self.edges:
            raise DuplicateId(f"dependency id {edge.id!r} already present")
        self.edges[edge.id] = edge
        ids = self._incoming.get(edge.to_task, ())
        at = bisect(ids, edge.id)
        self._incoming[edge.to_task] = ids[:at] + (edge.id,) + ids[at:]
        self._outgoing[edge.from_task] = self._outgoing.get(edge.from_task, ()) + (edge.id,)
        self._hold(edge, 1)
        self._touch(edge.to_task, edge.id)

    def _remove_dependency(self, edge_id: str) -> None:
        self._own()
        edge = self.edges.pop(self.edge(edge_id).id)
        self._hold(edge, -1)
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
        what = f"patch of dependency {edge_id!r}"
        _judge(patch, "dependency_patch", what)
        # A patch naming dep_type replaces the whole type, condition included;
        # one naming condition_id alone changes the current type's condition.
        # The patched entry is judged as a dependency.
        entry = {"id": edge_id, "from_task": edge.from_task, "to_task": edge.to_task, "description": edge.description}
        if "dep_type" not in patch:
            entry["dep_type"] = edge.dep_type.value
            if edge.condition_id is not None:
                entry["condition_id"] = edge.condition_id
        entry.update(patch)
        self.edges[edge_id] = patched = _judge(entry, "dependency", what)
        self._hold(edge, -1)
        self._hold(patched, 1)
        self._touch(edge.to_task, edge_id)

    def _hold(self, edge: TaskStarLine, change: int) -> None:
        """Add ``change`` to the count of ``edge``'s PENDING target if the edge
        holds it back: unless its upstream exists, is terminal and satisfies it."""
        count = self._waiting.get(edge.to_task)
        if count is not None and (edge.from_task not in self.tasks or not self.edge_satisfied(edge)):
            self._waiting[edge.to_task] = count = count + change
            (self._ready.discard if count else self._ready.add)(edge.to_task)

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
        self._moved(task_id, new_status)

    def _moved(self, task_id: str, status: TaskStatus) -> None:
        """Keep readiness once a task has left PENDING for ``status``."""
        self._waiting.pop(task_id, None)
        self._ready.discard(task_id)
        if status is TaskStatus.RUNNING:
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
        """Every structural fault: ``_walk`` over the graph's own edges."""
        return self._walk(self.edges.values())

    def _walk(self, edges: Iterable[TaskStarLine], repeated: Optional[List[Violation]] = None) -> List[Violation]:
        """Every structural fault, in one linear pass: each edge's endpoints,
        self-loop, condition and parallel pair judged and its in-degree
        counted, then ``_peel`` leaves the cycle. With ``repeated``, the list
        for a repeated id's ``DuplicateId``, the edges are inserted as they go
        and readiness is settled, faults or not. Only the faults found are
        sorted: each edge's in edge id order, a ``DuplicateEdge`` per edge of
        a pair but its smallest id, the cycle, and each task holding a result
        while not terminal, by id."""
        tasks, inserting = self.tasks, repeated is not None
        faults: List[Tuple[str, Violation]] = []  # (edge id, fault)
        parallel: List[Tuple[str, Violation]] = []  # (edge id, DuplicateEdge)
        least: Dict[Tuple[str, str], str] = {}  # (from, to) -> its smallest edge id so far
        indegree = dict.fromkeys(tasks, 0)  # of edges between tasks
        if inserting:  # the id-sorted indexes, as lists: ``insort`` appends an id that arrives in order
            incoming: Dict[str, List[str]] = defaultdict(list)
            outgoing: Dict[str, List[str]] = defaultdict(list)
        for edge in edges:
            edge_id = edge.id
            pair = from_task, to_task = edge.from_task, edge.to_task
            if inserting:
                if edge_id in self.edges:
                    repeated.append(Violation("DuplicateId", f"dependency id {edge_id!r} appears twice"))
                    continue
                self.edges[edge_id] = edge
                insort(incoming[to_task], edge_id)
                insort(outgoing[from_task], edge_id)
            if from_task in tasks and to_task in tasks:
                indegree[to_task] += 1
            else:
                for missing in (task_id for task_id in pair if task_id not in tasks):
                    detail = f"edge {edge_id!r} references missing task {missing!r}"
                    faults.append((edge_id, Violation("DanglingEdge", detail)))
            if from_task == to_task:
                faults.append((edge_id, Violation("SelfLoop", f"edge {edge_id!r} on {from_task!r}")))
            condition_id = edge.condition_id
            if condition_id and condition_id not in CONDITIONS:
                detail = f"edge {edge_id!r} names condition {condition_id!r}"
                faults.append((edge_id, Violation("UnknownCondition", detail)))
            first = least.setdefault(pair, edge_id)
            if first != edge_id:
                detail = f"multiple edges {from_task!r}->{to_task!r}"
                parallel.append((max(first, edge_id), Violation("DuplicateEdge", detail)))
                least[pair] = min(first, edge_id)
        if inserting:
            self._incoming = {task_id: tuple(ids) for task_id, ids in incoming.items()}
            self._outgoing = {task_id: tuple(ids) for task_id, ids in outgoing.items()}
        faults.sort(key=itemgetter(0))  # stable: an edge's faults keep their order
        violations = [violation for _, violation in faults + sorted(parallel, key=itemgetter(0))]
        self._peel(indegree)
        cycle = [task_id for task_id, count in indegree.items() if count]
        if cycle:
            violations.append(Violation("CycleIntroduced", f"cycle through {{{', '.join(sorted(cycle))}}}"))
        holding = [task for task in tasks.values() if task.result is not None and not task.status.terminal]
        for task in sorted(holding, key=attrgetter("id")):
            violations.append(Violation("StatusResult", f"task {task.id!r} has a result while {task.status.value}"))
        if inserting:  # readiness: each task held by all its incoming edges as if PENDING, then moved to its status
            self._waiting = {task_id: len(self._incoming.get(task_id, ())) for task_id in tasks}
            self._ready = {task_id for task_id, count in self._waiting.items() if not count}
            for task in tasks.values():
                if task.status is not TaskStatus.PENDING:
                    self._moved(task.id, task.status)
        return violations

    def _changes_valid(self) -> bool:
        """Whether ``validate()`` would return no violation, judged from the
        edges in the change record alone; exact from a valid graph: removals
        add no violation, the raw ops set no result, a new parallel pair has a
        recorded edge and a new cycle runs through one."""
        tasks, edges, targets = self.tasks, self.edges, set()
        for edge in (edges[edge_id] for edge_id in self._touched_edges if edge_id in edges):
            condition_id = edge.condition_id
            unknown = condition_id and condition_id not in CONDITIONS
            if unknown or edge.from_task not in tasks or edge.to_task not in tasks:
                return False
            targets.add(edge.to_task)
        for task_id in targets:
            sources = [edges[edge_id].from_task for edge_id in self._incoming[task_id]]
            if len(set(sources)) < len(sources):
                return False
        return not targets or not self._cycle_downstream_of(targets)

    def _cycle_downstream_of(self, starts: Set[str]) -> bool:
        """Whether a cycle runs through the tasks reachable from ``starts``.
        A cycle through an added edge lies wholly downstream of its target (a
        self-loop included), so one search from all targets counts the
        in-degrees within the region they reach, for ``_peel``."""
        edges, outgoing = self.edges, self._outgoing
        indegree, stack = dict.fromkeys(starts, 0), list(starts)
        while stack:
            for edge_id in outgoing.get(stack.pop(), ()):
                target = edges[edge_id].to_task
                if target not in indegree:
                    stack.append(target)
                indegree[target] = indegree.get(target, 0) + 1
        return len(self._peel(indegree)) < len(indegree)

    def _peel(self, indegree: Dict[str, int]) -> List[str]:
        """Kahn's peel along the outgoing index: the tasks of ``indegree``
        (their counts of incoming edges from each other, used up here) in a
        topological order. The tasks on or behind a cycle are left out and
        keep a non-zero count, the same ones whatever the pop order."""
        edges, outgoing = self.edges, self._outgoing
        stack = [task_id for task_id, count in indegree.items() if not count]
        order = []
        while stack:
            task_id = stack.pop()
            order.append(task_id)
            for edge_id in outgoing.get(task_id, ()):
                target = edges[edge_id].to_task
                if target in indegree:  # not so for an edge to no task
                    indegree[target] -= 1
                    if not indegree[target]:
                        stack.append(target)
        return order

    def topological_order(self) -> List[str]:
        """The peel over every task of a graph whose edges all have their
        endpoints, its in-degrees read from the incoming index: a
        topological order, leaving out the tasks on or behind a cycle."""
        return self._peel({task_id: len(self._incoming.get(task_id, ())) for task_id in self.tasks})

    # -- readiness -------------------------------------------------------

    def edge_satisfied(self, edge: TaskStarLine) -> bool:
        upstream = self.task(edge.from_task)
        if not upstream.status.terminal:
            return False
        kind = edge.dep_type
        if kind is DependencyKind.SUCCESS_ONLY:
            return upstream.status is TaskStatus.COMPLETED
        condition = CONDITIONS.get(edge.condition_id)  # an unknown one, refused at commit, is unsatisfied
        return kind is UNCONDITIONAL or condition is not None and bool(condition(upstream.result))

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
        return not self._running and not self._ready

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


def _judge(value: Any, shape: str, what: str) -> Any:
    """``value`` parsed by the check of ``shape``, a ``$defs`` entry of
    ``schemas/constellation.schema.json`` or its root (a document) where
    ``shape`` is empty: a task or dependency entry as its record, and a
    document or build config as a copy whose ``tasks`` and ``dependencies``
    are lists of records. A refusal is an ``IllegalField`` for a field that
    an entry or a patch may not carry, else a ``ParseError``, whose text
    names the JSON path. A document's or a build config's own unknown field
    is not an entry's."""
    try:
        return check_of("constellation", shape)(value)
    except Refusal as exc:
        illegal = isinstance(exc, UnknownFields) and (exc.path or shape not in ("", "build_config"))
        raise (IllegalField if illegal else ParseError)(f"bad {what}: {exc}") from exc


# The builders of the records the schema's checks return, with the
# conversions that JSON Schema cannot state: a task's name defaults to its
# id, enum strings become members and ``tips`` a tuple. A field the entry
# omits arrives with its schema ``default``, or as None where it states none.
_STATUSES = {status._value_: status for status in TaskStatus}
_REASONS = {reason._value_: reason for reason in FailureReason}
_KINDS = {kind._value_: kind for kind in DependencyKind}
_new = tuple.__new__  # a record's fields, as ``TaskStar(...)`` stores them, without its ``__new__``


def _task_star(id, name, description, device, tips, status="PENDING", dependencies=None, result=None,
               failure_reason=None) -> TaskStar:
    """The record of a task entry: a document's, an ``AddTask`` spec or a
    build-config entry, the last two PENDING with no result. A document
    task's derived ``dependencies`` are judged by ``insert_entries``."""
    return _new(TaskStar, (id, device, id if name is None else name, description, tuple(tips), _STATUSES[status],
                           result, None if failure_reason is None else _REASONS[failure_reason]))


def _task_star_line(id, from_task, to_task, dep_type, description, condition_id) -> TaskStarLine:
    """The record of a dependency entry: its fields in the entry's order, the
    kind a member."""
    return _new(TaskStarLine, (id, from_task, to_task, _KINDS[dep_type], description, condition_id))


RECORDS.update(TaskStar=_task_star, TaskStarLine=_task_star_line)


def insert_entries(
    doc: Dict[str, Any], created: bool
) -> Tuple[TaskConstellation, List[Violation]]:
    """Judge a document, or with ``created`` a build config, insert every
    record its check returns and judge the graph in the same walk over its
    edges (``_walk``). Returns the graph and every violation: a
    ``DuplicateId`` per repeated id (the first entry is kept), a
    ``DependencyMismatch`` per inserted document task whose ``dependencies``
    list, taken as a set, is not the set of its incoming edge ids, then what
    ``validate`` lists."""
    parsed = _judge(doc, "build_config" if created else "", "build config" if created else "constellation document")
    constellation = TaskConstellation(doc.get("request", ""))
    tasks = constellation.tasks
    violations: List[Violation] = []
    for task in parsed.get("tasks", ()):
        if task.id in tasks:
            violations.append(Violation("DuplicateId", f"task id {task.id!r} appears twice"))
        else:
            tasks[task.id] = task
    faults = constellation._walk(parsed.get("dependencies", ()), violations)
    if not created:
        for entry, task in zip(doc.get("tasks", ()), parsed.get("tasks", ())):
            if "dependencies" in entry and tasks[task.id] is task:
                dependencies, ids = entry["dependencies"], constellation._incoming.get(task.id, ())
                if set(dependencies) != set(ids):
                    detail = f"task {task.id!r} lists {sorted(set(dependencies))}, its incoming edges are {list(ids)}"
                    violations.append(Violation("DependencyMismatch", detail))
    return constellation, violations + faults
