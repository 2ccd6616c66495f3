"""Batched, atomic constellation edits.

A delta is an ordered list of edit ops applied to a clone of the pre-state.
The clone shares the pre-state's immutable records, and an op replaces the
records it changes, so the pre-state is never touched. Each op kind is one
row of one table: its name in a script, the raw op of ``TaskConstellation``
it runs with its own fields, and its summary key; a build op, which
replaces the graph, is the one kind without a raw op. An op only has its
spec, patch or config judged by the check of the constellation schema, and
mutates, keeping readiness as it goes (see ``model``), so a delta is judged
on its result, once: for edit locality (no non-PENDING task changed), for
any id a build op's config repeats, and for structure in one of two ways:
by the walk of a build op that ends the delta, which judges the graph it
inserts, else from the post-state's change record, by the region
downstream of its edges (a build op records every edge it inserts). Either
the delta passes and commits, with the version risen by exactly one, or
one error propagates: the op's refusal or lookup error, or one
``ValidationFailed`` listing every violation. A commit returns the new
graph and its summary, a plain dict that counts the changes under each of
``SUMMARY_KEYS``, the form a run report stores. A build config becomes a
graph only this way: ``build_constellation`` applies its build op to the
empty graph.

An op and a delta are named tuples, so an op equals any tuple of the same
values, and ``RemoveTask("x") == RemoveDependency("x")``: compare an op only
with ops of its own kind. A delta is true when it holds an op.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import ParseError, ValidationFailed
from .model import TaskConstellation, TaskStatus, Violation, insert_entries


class AddTask(NamedTuple):
    spec: Dict[str, Any]


class RemoveTask(NamedTuple):
    task_id: str


class UpdateTask(NamedTuple):
    task_id: str
    patch: Dict[str, Any]


class AddDependency(NamedTuple):
    spec: Dict[str, Any]


class RemoveDependency(NamedTuple):
    edge_id: str


class UpdateDependency(NamedTuple):
    edge_id: str
    patch: Dict[str, Any]


class BuildConstellation(NamedTuple):
    """Replaces the whole graph; grow one with AddTask/AddDependency ops."""

    config: Dict[str, Any]


EditOp = Any  # one of the named tuples above


class EditDelta(NamedTuple):
    ops: Sequence[EditOp] = ()

    def __bool__(self) -> bool:
        return bool(self.ops)


# One row per op kind: its name in a script, the raw op it runs as
# ``raw(working, *op)`` and the summary key it counts under. A build op has
# neither: ``apply_delta`` replaces the graph with the one it builds.
_ROWS: Dict[type, Tuple[str, Any, Optional[str]]] = {
    AddTask: ("add_task", TaskConstellation._add_task, "added_tasks"),
    RemoveTask: ("remove_task", TaskConstellation._remove_task, "removed_tasks"),
    UpdateTask: ("update_task", TaskConstellation._update_task, "modified_tasks"),
    AddDependency: ("add_dependency", TaskConstellation._add_dependency, "added_dependencies"),
    RemoveDependency: ("remove_dependency", TaskConstellation._remove_dependency, "removed_dependencies"),
    UpdateDependency: ("update_dependency", TaskConstellation._update_dependency, "modified_dependencies"),
    BuildConstellation: ("build_constellation", None, None),
}

# A delta's summary counts its changes, one key per edit category, in this order.
SUMMARY_KEYS = tuple(key for _, _, key in _ROWS.values() if key)
_OPS = {name: op for op, (name, _, _) in _ROWS.items()}


def build_constellation(config: Dict[str, Any]) -> TaskConstellation:
    """A graph from a build config: its build op applied to the empty graph,
    so version 1, or one ``ValidationFailed``."""
    return apply_delta(TaskConstellation(), EditDelta([BuildConstellation(config)]))[0]


def apply_delta(
    constellation: TaskConstellation, delta: EditDelta
) -> Tuple[TaskConstellation, Dict[str, int]]:
    """Apply every op in order on a clone, check the result once, and
    commit with the version bumped once, returning it with its summary.

    ``constellation`` must be valid, as every graph read by
    ``serial.from_document`` or committed here is. The check needs only the
    verdict of a build op that ends the delta, or else the change record:
    ``_changes_valid`` judges the edges added or updated (endpoints,
    condition, no parallel edge, no cycle downstream of their targets), and
    ``validate`` runs only to list the faults it found. The locality check
    reads the tasks touched.

    Any failure aborts the whole delta and propagates; the caller's
    pre-state object is never mutated.
    """
    working = constellation.clone()
    summary = dict.fromkeys(SUMMARY_KEYS, 0)
    violations: List[Violation] = []
    judged = None  # the last op's verdict on its whole graph, if it was a build
    for op in delta.ops:
        try:
            _, raw, key = _ROWS[type(op)]
        except KeyError:
            raise ParseError(f"unknown edit op {op!r}") from None
        judged = None
        if raw is not None:
            raw(working, *op)
            summary[key] += 1
            continue
        built, judged = insert_entries(op.config, created=True)
        violations.extend(violation for violation in judged if violation.kind == "DuplicateId")
        built.request = op.config.get("request", working.request)
        built._touched_tasks = built.tasks.keys() | constellation.tasks.keys()
        built._touched_edges = set(built.edges)
        working = built
        summary["added_tasks"] += len(working.tasks)
        summary["added_dependencies"] += len(working.edges)
    if judged is not None:  # a build ended the delta: its walk judged the graph, after the ids it repeated
        violations.extend(violation for violation in judged if violation.kind != "DuplicateId")
    elif not working._changes_valid():
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

    Non-PENDING tasks must keep their record (fields, status, result) and
    their incoming edge records equal across the edit; the records are
    compared directly, always with records, as a record also equals a plain
    tuple of its values. Outgoing edges of terminal tasks may be rewired,
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
            detail = "non-PENDING task {!r} was removed"
        elif post.tasks[task_id] != task or pre.dependencies_of(task_id) != post.dependencies_of(task_id):
            detail = "non-PENDING task {!r} was modified"
        elif pre.incoming(task_id) != post.incoming(task_id):
            detail = "incoming edges of non-PENDING task {!r} changed"
        else:
            continue
        violations.append(Violation("ImmutableTask", detail.format(task_id)))
    return violations


# -- document form (script files) ---------------------------------------

def op_from_doc(doc: Dict[str, Any]) -> EditOp:
    """The op of an op document that ``schemas/planner_script.schema.json``
    accepts: its ``op`` names the op, and it carries that op's fields."""
    op = _OPS[doc["op"]]
    return op(*(doc[name] for name in op._fields))


def delta_from_doc(docs: List[Dict[str, Any]]) -> EditDelta:
    return EditDelta([op_from_doc(d) for d in docs])
