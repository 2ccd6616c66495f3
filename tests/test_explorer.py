"""Bounded explicit-state explorer: goldens, oracles, witness paths."""

from collections import deque

import pytest

from constellation import (
    BoundExceeded,
    GOLDEN_STATS,
    InvariantViolation,
    TaskConstellation,
    analytic_distinct_count,
    edits,
    explore,
    explore_extended,
)
from constellation.explorer import (
    DEVICES,
    EVENTS,
    NULL,
    QUEUE_BOUND,
    TASKS,
    check_invariants,
    init_state,
    successors,
)


def independent_reachable_set():
    """Plain set-based BFS over the same successor relation — no stats
    bookkeeping shared with explore()."""
    start = init_state()
    seen = {start: 1}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for _, nxt in successors(state):
            if len(nxt[3]) > QUEUE_BOUND or nxt in seen:
                continue
            seen[nxt] = seen[state] + 1
            frontier.append(nxt)
    return seen


class TestGoldenStats:
    def test_exploration_matches_goldens_exactly(self):
        stats = explore()
        assert stats.distinct == GOLDEN_STATS.distinct == 7168
        assert stats.generated == GOLDEN_STATS.generated == 93633
        assert stats.depth == GOLDEN_STATS.depth == 8
        assert stats.by_action == GOLDEN_STATS.by_action
        assert stats.violations == 0 and stats.deadlocks == 0

    def test_analytic_count_cross_checks_search(self):
        per_task = 1 + len(DEVICES)
        queue_states = sum(len(EVENTS) ** n for n in range(QUEUE_BOUND + 1))
        closed_form = per_task ** len(TASKS) * 2 * queue_states * 2 ** len(DEVICES)
        assert closed_form == 4**3 * 2 * 7 * 8 == 7168
        assert analytic_distinct_count() == closed_form == GOLDEN_STATS.distinct

    def test_independent_bfs_agrees(self):
        seen = independent_reachable_set()
        assert len(seen) == GOLDEN_STATS.distinct
        assert max(seen.values()) == GOLDEN_STATS.depth

    def test_reachable_set_is_closed_under_bounded_successors(self):
        seen = independent_reachable_set()
        for state in list(seen)[::97]:  # sampled; full closure is criterion-level
            for _, nxt in successors(state):
                if len(nxt[3]) <= QUEUE_BOUND:
                    assert nxt in seen

    def test_repeat_runs_are_identical(self):
        assert explore().as_dict() == explore().as_dict()


class TestInvariantMachinery:
    def test_all_reached_states_satisfy_invariants(self):
        for state in independent_reachable_set():
            check_invariants(state)  # must not raise

    def test_mutated_model_yields_witness_path(self):
        # Bug injection: Dispatch flips a task to RUNNING but forgets to
        # record the assignment, breaking I1 (RUNNING implies assigned).
        def buggy_successors(state):
            out = []
            for action, nxt in successors(state):
                if action == "Dispatch":
                    statuses, assignments, lock, queue, devices = nxt
                    nxt = (statuses, (NULL,) * len(assignments), lock, queue, devices)
                out.append((action, nxt))
            return out

        with pytest.raises(InvariantViolation) as excinfo:
            explore(successors_fn=buggy_successors, collect_witness=True)
        violation = excinfo.value
        assert violation.invariant == "I1"
        path = violation.witness_path
        assert path[0] == ("Init", init_state())
        assert path[-1][0] == "Dispatch"
        assert path[-1][1] == violation.state
        # Every hop in the witness is a genuine one-step successor.
        for (_, prev), (action, nxt) in zip(path, path[1:]):
            assert (action, nxt) in buggy_successors(prev)

    def test_witness_path_not_collected_unless_requested(self):
        def always_fails(state):
            raise InvariantViolation("I1", state)

        with pytest.raises(InvariantViolation) as excinfo:
            explore(invariant_fn=always_fails)
        assert excinfo.value.witness_path == []


class TestBounds:
    def test_state_bound_exceeded(self):
        with pytest.raises(BoundExceeded, match="state bound"):
            explore(max_distinct=100)

    def test_depth_bound_exceeded(self):
        with pytest.raises(BoundExceeded, match="depth bound"):
            explore(max_depth=3)

    def test_golden_depth_is_tight(self):
        # One level less than the golden depth must overflow.
        with pytest.raises(BoundExceeded):
            explore(max_depth=GOLDEN_STATS.depth - 1)
        assert explore(max_depth=GOLDEN_STATS.depth).depth == GOLDEN_STATS.depth


class TestExtendedMode:
    def test_extended_mode_statistics_and_safety(self):
        assert explore_extended().as_dict() == {
            "distinct": 880,
            "generated": 3124,
            "depth": 16,
            "by_action": {
                "Acquire": 174,
                "Dispatch": 86,
                "Edit": 14,
                "Enqueue": 320,
                "Init": 1,
                "Release": 129,
                "Synchronize": 156,
            },
            "violations": 0,
            "deadlocks": 0,
        }

    def test_extended_mode_is_deterministic(self):
        assert explore_extended().as_dict() == explore_extended().as_dict()

    def test_each_model_operation_runs_once_per_successor(self, monkeypatch):
        """No state is rebuilt by replay: apply_delta runs once per Edit
        successor generated (52) and transition only for the Dispatch and
        Synchronize successors that change a status (299)."""
        calls = {"apply_delta": 0, "transition": 0}
        apply_delta, transition = edits.apply_delta, TaskConstellation.transition

        def counted_apply_delta(*args, **kwargs):
            calls["apply_delta"] += 1
            return apply_delta(*args, **kwargs)

        def counted_transition(self, *args, **kwargs):
            calls["transition"] += 1
            return transition(self, *args, **kwargs)

        monkeypatch.setattr(edits, "apply_delta", counted_apply_delta)
        monkeypatch.setattr(TaskConstellation, "transition", counted_transition)
        explore_extended()
        assert calls == {"apply_delta": 52, "transition": 299}
