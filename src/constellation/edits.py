"""Batched, atomic constellation edits.

A delta is an ordered list of edit ops applied to a clone of the pre-state.
The clone shares the pre-state's frozen records, and an op replaces the
records it changes, so the pre-state is never touched. The ops only parse
and mutate, so a delta is judged on its result: the post-state is checked
once, for structure (``validate``) and for edit locality (no non-PENDING
task changed), together with any id a build op's config repeats. Either it
passes, commits and the version rises by exactly one, or one error
propagates: the op's parse or lookup error, or one ``ValidationFailed``
listing every violation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest
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
        return asdict(self)


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
            working = built
            violations.extend(repeated)
            summary.added_tasks += len(working.tasks)
            summary.added_dependencies += len(working.edges)
        else:
            raise ParseError(f"unknown edit op {op!r}")
    violations.extend(working.validate())
    violations.extend(edit_locality_violations(constellation, working))
    if violations:
        raise ValidationFailed(violations)
    working.version = constellation.version + 1
    return working, summary


def edit_locality_violations(
    pre: TaskConstellation, post: TaskConstellation
) -> List[Violation]:
    """Diff-based check that no edit touched a non-PENDING task.

    Non-PENDING tasks must keep their fields, status, result and incoming
    edge set bit-identical across the edit. Outgoing edges of terminal tasks
    may be rewired, since only the (PENDING) downstream endpoint's inputs
    change. A task whose record and incoming edge records are the very
    objects of the pre-state is unchanged; only the others are serialized.
    """
    from .serial import edge_to_doc, task_to_doc

    violations: List[Violation] = []
    for task_id, task in sorted(pre.tasks.items()):
        if task.status is TaskStatus.PENDING:
            continue
        if task_id not in post.tasks:
            violations.append(
                Violation("ImmutableTask", f"non-PENDING task {task_id!r} was removed")
            )
            continue
        inputs = zip_longest(pre.incoming(task_id), post.incoming(task_id))
        if post.tasks[task_id] is task and all(a is b for a, b in inputs):
            continue
        if task_to_doc(task, pre) != task_to_doc(post.tasks[task_id], post):
            violations.append(
                Violation("ImmutableTask", f"non-PENDING task {task_id!r} was modified")
            )
            continue
        pre_in = [edge_to_doc(e) for e in pre.incoming(task_id)]
        post_in = [edge_to_doc(e) for e in post.incoming(task_id)]
        if pre_in != post_in:
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
