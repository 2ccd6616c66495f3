"""Bounded explicit-state exploration of the locking protocol.

A small abstract model of the orchestrator — three tasks, three devices, a
two-slot event queue and a single assignment lock — is explored by
breadth-first search over all interleavings. States violating the queue
bound are still counted as generated but never enter the frontier, matching
how an explicit-state checker accounts for constraint-pruned successors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .errors import BoundExceeded, InvariantViolation

TASKS: Tuple[str, ...] = ("t0", "t1", "t2")
DEVICES: Tuple[str, ...] = ("dev0", "dev1", "dev2")
EVENTS: Tuple[str, ...] = ("TASK_COMPLETED", "TASK_FAILED")
NULL = "NULL"
QUEUE_BOUND = 2

# Model state: (statuses, assignments, lock, queue, device set), all tuples.
State = Tuple[Tuple[str, ...], Tuple[str, ...], str, Tuple[str, ...], Tuple[str, ...]]

_DEVICE_SUBSETS: Tuple[Tuple[str, ...], ...] = tuple(
    sorted(
        tuple(d for i, d in enumerate(DEVICES) if mask >> i & 1) for mask in range(2 ** len(DEVICES))
    )
)


def init_state() -> State:
    return (("PENDING",) * len(TASKS), (NULL,) * len(TASKS), "free", (), tuple(DEVICES))


def successors(state: State) -> List[Tuple[str, State]]:
    """All one-step successors in a fixed action order, paired with the name
    of the action that produced them. Queue-bound filtering happens at the
    frontier, not here."""
    statuses, assignments, lock, queue, devices = state
    out: List[Tuple[str, State]] = []
    for event in EVENTS:
        out.append(("Enqueue", (statuses, assignments, lock, queue + (event,), devices)))
    if lock == "free":
        out.append(("Acquire", (statuses, assignments, "held", queue, devices)))
    if lock == "held":
        drained = state if not queue else (statuses, assignments, lock, queue[1:], devices)
        out.append(("DrainOrNoop", drained))
        out.append(("Release", (statuses, assignments, "free", queue, devices)))
    if lock == "free":
        for i in range(len(TASKS)):
            if statuses[i] == "PENDING" and assignments[i] == NULL:
                for device in devices:
                    out.append(
                        (
                            "Dispatch",
                            (
                                statuses[:i] + ("RUNNING",) + statuses[i + 1 :],
                                assignments[:i] + (device,) + assignments[i + 1 :],
                                lock,
                                queue,
                                devices,
                            ),
                        )
                    )
    for subset in _DEVICE_SUBSETS:
        out.append(("UpdateDevices", (statuses, assignments, lock, queue, subset)))
    out.append(("Noop", state))
    return out


def check_invariants(state: State) -> None:
    statuses, assignments, lock, queue, devices = state
    if lock not in ("free", "held"):
        raise InvariantViolation("TypeOK", state)
    if any(s not in ("PENDING", "RUNNING", "COMPLETED", "FAILED") for s in statuses):
        raise InvariantViolation("TypeOK", state)
    if any(a != NULL and a not in DEVICES for a in assignments):
        raise InvariantViolation("TypeOK", state)
    for i in range(len(TASKS)):
        if statuses[i] == "RUNNING" and assignments[i] == NULL:
            raise InvariantViolation("I1", state)
    # I2 holds trivially here: the abstract model carries no edges, so the
    # check reduces to statuses being well-formed, already covered above.


@dataclass
class ExploreStats:
    distinct: int = 0
    generated: int = 0
    depth: int = 0
    by_action: Dict[str, int] = field(default_factory=dict)
    violations: int = 0
    deadlocks: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "distinct": self.distinct,
            "generated": self.generated,
            "depth": self.depth,
            "by_action": dict(sorted(self.by_action.items())),
            "violations": self.violations,
            "deadlocks": self.deadlocks,
        }


GOLDEN_STATS = ExploreStats(
    distinct=7168,
    generated=93633,
    depth=8,
    by_action={
        "Init": 1,
        "Enqueue": 6,
        "Acquire": 448,
        "Dispatch": 441,
        "UpdateDevices": 6272,
    },
)


def analytic_distinct_count() -> int:
    """Closed-form reachable-state count, for cross-checking the search.

    Each task independently is (PENDING, NULL) or (RUNNING, d) for one of the
    three devices; the lock has two values; queues of length at most two over
    two event kinds give 1 + 2 + 4 states; the device set ranges over all
    subsets of three devices.
    """
    per_task = 1 + len(DEVICES)
    queue_states = sum(len(EVENTS) ** n for n in range(QUEUE_BOUND + 1))
    return per_task ** len(TASKS) * 2 * queue_states * 2 ** len(DEVICES)


def explore(
    max_distinct: int = 1_000_000,
    max_depth: int = 64,
    successors_fn: Callable[[State], List[Tuple[str, State]]] = successors,
    invariant_fn: Callable[[State], None] = check_invariants,
    collect_witness: bool = False,
    initial_state: Optional[State] = None,
) -> ExploreStats:
    """Breadth-first search from the initial state.

    The queue (element 3 of every state shape used here) is bounded: states
    exceeding ``QUEUE_BOUND`` count as generated but never enter the
    frontier. Raises :class:`BoundExceeded` if the frontier outgrows
    ``max_distinct`` or ``max_depth``, and :class:`InvariantViolation` (with
    a witness path when requested) if any reached state breaks an invariant.
    """
    start = init_state() if initial_state is None else initial_state
    stats = ExploreStats(distinct=1, generated=1, depth=1, by_action={"Init": 1})
    parents: Dict[State, Optional[Tuple[State, str]]] = {start: None}
    depth_of: Dict[State, int] = {start: 1}
    frontier: deque[State] = deque([start])
    _checked(invariant_fn, start, parents, collect_witness)
    while frontier:
        state = frontier.popleft()
        depth = depth_of[state]
        succs = successors_fn(state)
        if not succs:
            stats.deadlocks += 1
        for action, nxt in succs:
            stats.generated += 1
            if len(nxt[3]) > QUEUE_BOUND:
                continue
            if nxt in depth_of:
                continue
            if depth + 1 > max_depth:
                raise BoundExceeded(f"depth bound {max_depth} exceeded")
            depth_of[nxt] = depth + 1
            parents[nxt] = (state, action)
            stats.distinct += 1
            if stats.distinct > max_distinct:
                raise BoundExceeded(f"state bound {max_distinct} exceeded")
            stats.depth = max(stats.depth, depth + 1)
            stats.by_action[action] = stats.by_action.get(action, 0) + 1
            _checked(invariant_fn, nxt, parents, collect_witness)
            frontier.append(nxt)
    return stats


def _checked(
    invariant_fn: Callable[[State], None],
    state: State,
    parents: Dict[State, Optional[Tuple[State, str]]],
    collect_witness: bool,
) -> None:
    try:
        invariant_fn(state)
    except InvariantViolation as violation:
        if collect_witness and not violation.witness_path:
            violation.witness_path = witness_path(state, parents)
        raise


def witness_path(
    state: State, parents: Dict[State, Optional[Tuple[State, str]]]
) -> List[Tuple[str, State]]:
    """Action-labelled trace from the initial state to ``state``."""
    path: List[Tuple[str, State]] = []
    cursor: Optional[State] = state
    while cursor is not None:
        parent = parents.get(cursor)
        if parent is None:
            path.append(("Init", cursor))
            break
        path.append((parent[1], cursor))
        cursor = parent[0]
    path.reverse()
    return path


# -- extended mode -------------------------------------------------------
#
# Instead of the stubbed per-task status/assignment tuples, extended mode
# drives the real TaskConstellation operations — apply_delta for edits and
# transition for dispatch and status synchronization — over a tiny two-task
# graph. Each operation runs once per generated successor: every state keeps
# the graph that the operation reaching it first produced, and I1/I2 are
# checked on that graph. No golden counts are carried.


def explore_extended(max_distinct: int = 50_000, max_depth: int = 64) -> ExploreStats:
    from .edits import AddTask, EditDelta, apply_delta, build_constellation
    from .model import FailureReason, TaskConstellation, TaskStatus

    base = build_constellation(
        {
            "request": "extended exploration",
            "tasks": [
                {"id": "a", "name": "a", "description": "first", "device": "dev0"},
                {"id": "b", "name": "b", "description": "second", "device": "dev0"},
            ],
            "dependencies": [{"id": "eab", "from_task": "a", "to_task": "b"}],
        }
    )

    spawn_delta = EditDelta(
        [AddTask({"id": "x", "name": "x", "description": "spawned", "device": "dev0"})]
    )

    # State: ((task id, status, assigned device) ..., (edge id, from, to) ...,
    # lock, queue). Assignment is orchestrator-side bookkeeping, so it rides
    # in the frozen tuple rather than on the task. ``built`` maps each state
    # to the first (graph, assignment) pair frozen into it; successors that
    # change the graph work on a copy, so a stored pair is never mutated.
    built: Dict[object, Tuple[TaskConstellation, Dict[str, str]]] = {}

    def freeze(c: TaskConstellation, assigned: Dict[str, str], lock: str, queue):
        tasks = tuple(
            (tid, c.tasks[tid].status.value, assigned.get(tid, NULL)) for tid in sorted(c.tasks)
        )
        edges = tuple((eid, c.edges[eid].from_task, c.edges[eid].to_task) for eid in sorted(c.edges))
        frozen = (tasks, edges, lock, queue)
        built.setdefault(frozen, (c, assigned))
        return frozen

    def extended_successors(frozen) -> List[Tuple[str, object]]:
        out: List[Tuple[str, object]] = []
        c, assigned = built[frozen]
        _, _, lock, queue = frozen
        running = sorted(tid for tid, t in c.tasks.items() if t.status is TaskStatus.RUNNING)
        for tid in running:
            for event in EVENTS:
                out.append(("Enqueue", freeze(c, assigned, lock, queue + (f"{event}:{tid}",))))
        if lock == "free":
            out.append(("Acquire", freeze(c, assigned, "held", queue)))
            for tid in c.ready_tasks():
                if tid not in assigned:
                    dispatched = c.clone()
                    dispatched.transition(tid, TaskStatus.RUNNING)
                    assigned2 = {**assigned, tid: "dev0"}
                    out.append(("Dispatch", freeze(dispatched, assigned2, lock, queue)))
        if lock == "held":
            if queue:
                event, _, tid = queue[0].partition(":")
                synced = c
                if c.tasks[tid].status is TaskStatus.RUNNING:
                    synced = c.clone()
                    if event == "TASK_COMPLETED":
                        synced.transition(tid, TaskStatus.COMPLETED, result="ok")
                    else:
                        synced.transition(
                            tid, TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR
                        )
                out.append(("Synchronize", freeze(synced, assigned, lock, queue[1:])))
            if "x" not in c.tasks:
                edited, _ = apply_delta(c, spawn_delta)
                out.append(("Edit", freeze(edited, assigned, lock, queue)))
            out.append(("Release", freeze(c, assigned, "free", queue)))
        return out

    def extended_invariants(frozen) -> None:
        c, assigned = built[frozen]
        for tid, task in c.tasks.items():
            if task.status is TaskStatus.RUNNING and tid not in assigned:
                raise InvariantViolation("I1", frozen)
        if c.validate():
            raise InvariantViolation("I2", frozen)

    return explore(
        max_distinct=max_distinct,
        max_depth=max_depth,
        successors_fn=extended_successors,
        invariant_fn=extended_invariants,
        initial_state=freeze(base, {}, "free", ()),
    )
