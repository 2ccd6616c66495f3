"""Batched, atomic constellation edits.

A delta is an ordered list of edit ops applied to a clone of the pre-state.
The clone shares the pre-state's frozen records, and an op replaces the
records it changes, so the pre-state is never touched. The ops only parse
and mutate, so a delta is judged on its result: the post-state is checked
once, for structure and for edit locality (no non-PENDING task changed),
together with any id a build op's config repeats. The check reads the
post-state's change record: one holding every task, as a build op's does,
is judged by one ``validate`` call, a linear pass, and any other by the
region downstream of its edges, ``validate`` listing a fault found there.
Either the delta passes, commits with its readiness recounted and the
version risen by exactly one, or one error propagates: the op's parse or
lookup error, or one ``ValidationFailed`` listing every violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Tuple

from .errors import ParseError, ValidationFailed
from .model import TaskConstellation, TaskStatus, Violation, from_entries, insert_entries


@dataclass(frozen=True)
class AddTask:
    spec: Dict[str, Any]


@dataclass(frozen=True)
class RemoveTask:
    task_id: str


@dataclass(frozen=True)
class UpdateTask:
    task_id: str
    patch: Dict[str, Any]


@dataclass(frozen=True)
class AddDependency:
    spec: Dict[str, Any]


@dataclass(frozen=True)
class RemoveDependency:
    edge_id: str


@dataclass(frozen=True)
class UpdateDependency:
    edge_id: str
    patch: Dict[str, Any]


@dataclass(frozen=True)
class BuildConstellation:
    """Replaces the whole graph; grow one with AddTask/AddDependency ops."""

    config: Dict[str, Any]


EditOp = Any  # one of the dataclasses above


@dataclass
class EditDelta:
    ops: List[EditOp] = field(default_factory=list)
    provenance: str = ""

    def __bool__(self) -> bool:
        return bool(self.ops)


@dataclass
class ModificationSummary:
    """Per-delta change counts, one bucket per edit category."""

    added_tasks: int = 0
    removed_tasks: int = 0
    modified_tasks: int = 0
    added_dependencies: int = 0
    removed_dependencies: int = 0
    modified_dependencies: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "added_tasks": self.added_tasks,
            "removed_tasks": self.removed_tasks,
            "modified_tasks": self.modified_tasks,
            "added_dependencies": self.added_dependencies,
            "removed_dependencies": self.removed_dependencies,
            "modified_dependencies": self.modified_dependencies,
        }


def build_constellation(config: Dict[str, Any]) -> TaskConstellation:
    """Create a graph from a build config in one pass, atomically."""
    target = from_entries(config, created=True)
    target.version = 1
    return target


def apply_delta(
    constellation: TaskConstellation, delta: EditDelta
) -> Tuple[TaskConstellation, ModificationSummary]:
    """Apply every op in order on a clone, check the result once, and
    commit with the version bumped once.

    ``constellation`` must be valid, as every graph made by
    ``model.from_entries`` or committed here is. The check then needs only
    the change record, and calls ``validate`` at most once: at once when the
    record holds every task (a build's), otherwise only to list a fault
    ``_changes_valid`` found in the edges added or updated (endpoints,
    condition, no parallel edge, no cycle downstream of their targets). The
    locality check reads the tasks touched.

    Any failure aborts the whole delta and propagates; the caller's
    pre-state object is never mutated.
    """
    working = constellation.clone()
    summary = ModificationSummary()
    violations: List[Violation] = []
    for op in delta.ops:
        if isinstance(op, AddTask):
            working._add_task(op.spec)
            summary.added_tasks += 1
        elif isinstance(op, RemoveTask):
            working._remove_task(op.task_id)
            summary.removed_tasks += 1
        elif isinstance(op, UpdateTask):
            working._update_task(op.task_id, op.patch)
            summary.modified_tasks += 1
        elif isinstance(op, AddDependency):
            working._add_dependency(op.spec)
            summary.added_dependencies += 1
        elif isinstance(op, RemoveDependency):
            working._remove_dependency(op.edge_id)
            summary.removed_dependencies += 1
        elif isinstance(op, UpdateDependency):
            working._update_dependency(op.edge_id, op.patch)
            summary.modified_dependencies += 1
        elif isinstance(op, BuildConstellation):
            built, repeated = insert_entries(op.config, created=True)
            built.request = op.config.get("request", working.request)
            built._touched_tasks.update(constellation.tasks)
            working = built
            violations.extend(repeated)
            summary.added_tasks += len(working.tasks)
            summary.added_dependencies += len(working.edges)
        else:
            raise ParseError(f"unknown edit op {op!r}")
    if working.tasks.keys() <= working._touched_tasks or not working._changes_valid():
        violations.extend(working.validate())
    violations.extend(edit_locality_violations(constellation, working))
    if violations:
        raise ValidationFailed(violations)
    working._recount()
    working.version = constellation.version + 1
    return working, summary


def edit_locality_violations(
    pre: TaskConstellation, post: TaskConstellation
) -> List[Violation]:
    """Diff-based check that no edit touched a non-PENDING task.

    Non-PENDING tasks must keep their record (fields, status, result) and
    their incoming edge records equal across the edit; the frozen records
    are compared directly. Outgoing edges of terminal tasks may be rewired,
    since only the (PENDING) downstream endpoint's inputs change.

    Only the tasks of ``pre`` in ``post``'s change record are compared, in
    id order: ``post`` is a clone of ``pre`` changed by the raw ops, or a
    build op's graph, whose record also holds every task of ``pre``. A task
    the delta added cannot be non-PENDING before it, so a build of many
    tasks into a small graph costs the small graph's size.
    """
    violations: List[Violation] = []
    for task_id in sorted(pre.tasks.keys() & post._touched_tasks):
        task = pre.tasks[task_id]
        if task.status is TaskStatus.PENDING:
            continue
        if task_id not in post.tasks:
            violations.append(
                Violation("ImmutableTask", f"non-PENDING task {task_id!r} was removed")
            )
        elif post.tasks[task_id] != task or pre.dependencies_of(task_id) != post.dependencies_of(task_id):
            violations.append(
                Violation("ImmutableTask", f"non-PENDING task {task_id!r} was modified")
            )
        elif pre.incoming(task_id) != post.incoming(task_id):
            violations.append(
                Violation(
                    "ImmutableTask",
                    f"incoming edges of non-PENDING task {task_id!r} changed",
                )
            )
    return violations


# -- document form (script files) ---------------------------------------

_OPS = {
    "add_task": AddTask,
    "remove_task": RemoveTask,
    "update_task": UpdateTask,
    "add_dependency": AddDependency,
    "remove_dependency": RemoveDependency,
    "update_dependency": UpdateDependency,
    "build_constellation": BuildConstellation,
}


def op_from_doc(doc: Dict[str, Any]) -> EditOp:
    try:
        name = doc["op"]
        op = _OPS[name]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad edit op document: {doc!r}") from exc
    names = [f.name for f in fields(op)]
    unknown = sorted(set(doc) - {"op", *names})
    if unknown:
        raise ParseError(f"edit op {name!r} has unknown field(s) {', '.join(unknown)}")
    try:
        return op(*(doc[n] for n in names))
    except KeyError as exc:
        raise ParseError(f"edit op {name!r} missing field {exc}") from exc


def delta_from_doc(docs: List[Dict[str, Any]], provenance: str = "") -> EditDelta:
    return EditDelta([op_from_doc(d) for d in docs], provenance=provenance)
