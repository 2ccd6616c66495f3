"""Bounded explicit-state explorer: goldens, oracles, witness paths."""

import random
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
    explorer,
)
from constellation.explorer import (
    DEVICES,
    EVENTS,
    NULL,
    QUEUE_BOUND,
    TASKS,
    ExploreStats,
    check_invariants,
    init_state,
    successors,
    witness_path,
)


def buggy_successors(state):
    """The witness test's bug injection: Dispatch flips a task to RUNNING but
    forgets to record the assignment, breaking I1 (RUNNING implies assigned)."""
    out = []
    for action, nxt in successors(state):
        if action == "Dispatch":
            statuses, assignments, lock, queue, devices = nxt
            nxt = (statuses, (NULL,) * len(assignments), lock, queue, devices)
        out.append((action, nxt))
    return out


def reference_explore(
    max_distinct=1_000_000,
    max_depth=64,
    successors_fn=successors,
    invariant_fn=check_invariants,
    collect_witness=False,
    initial_state=None,
):
    """Oracle for ``explore``: breadth-first search over a FIFO queue that
    records a depth and a parent for every state and counts on the stats."""
    start = init_state() if initial_state is None else initial_state
    stats = ExploreStats(distinct=1, generated=1, depth=1, by_action={"Init": 1})
    parents = {start: None}
    depth_of = {start: 1}
    frontier = deque([start])

    def checked(state):
        try:
            invariant_fn(state)
        except InvariantViolation as violation:
            if collect_witness and not violation.witness_path:
                violation.witness_path = witness_path(state, parents)
            raise

    checked(start)
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
            checked(nxt)
            frontier.append(nxt)
    return stats


def outcome(search, **kwargs):
    """What a search returns, or the type, message and (for a violation)
    invariant, state and witness path of what it raises."""
    try:
        return search(**kwargs)
    except BoundExceeded as exc:
        return (BoundExceeded, str(exc))
    except InvariantViolation as exc:
        return (InvariantViolation, str(exc), exc.invariant, exc.state, exc.witness_path)


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


def reference_explore_extended(max_distinct=50_000, max_depth=64):
    """Oracle for ``explore_extended``: every successor rebuilds the task and
    edge tuples from its graph, whether or not the step changed the graph."""
    from constellation.edits import AddTask, EditDelta, apply_delta, build_constellation
    from constellation.model import FailureReason, TaskStatus

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
    built = {}

    def freeze(c, assigned, lock, queue):
        tasks = tuple(
            (tid, c.tasks[tid].status.value, assigned.get(tid, NULL)) for tid in sorted(c.tasks)
        )
        edges = tuple((eid, c.edges[eid].from_task, c.edges[eid].to_task) for eid in sorted(c.edges))
        frozen = (tasks, edges, lock, queue)
        built.setdefault(frozen, (c, assigned))
        return frozen

    def extended_successors(frozen):
        out = []
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

    def extended_invariants(frozen):
        c, assigned = built[frozen]
        for tid, task in c.tasks.items():
            if task.status is TaskStatus.RUNNING and tid not in assigned:
                raise InvariantViolation("I1", frozen)
        if c.validate():
            raise InvariantViolation("I2", frozen)

    return explorer.explore(
        max_distinct=max_distinct,
        max_depth=max_depth,
        successors_fn=extended_successors,
        invariant_fn=extended_invariants,
        initial_state=freeze(base, {}, "free", ()),
    )


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

    def test_invariant_outcomes_match_the_scanning_check(self):
        """The set-based TypeOK and I1 checks against plain generator scans,
        on reachable states with one field perturbed at a time."""

        def reference_check_invariants(state):
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

        def verdict(check, state):
            try:
                check(state)
            except InvariantViolation as violation:
                return violation.invariant
            return None

        states = list(independent_reachable_set())[::7]
        perturbed = []
        for statuses, assignments, lock, queue, devices in states:
            for i in range(len(TASKS)):
                for status in ("PENDING", "RUNNING", "COMPLETED", "FAILED", "LOST"):
                    swapped = statuses[:i] + (status,) + statuses[i + 1 :]
                    perturbed.append((swapped, assignments, lock, queue, devices))
                for device in (NULL, "dev9", *DEVICES):
                    swapped = assignments[:i] + (device,) + assignments[i + 1 :]
                    perturbed.append((statuses, swapped, lock, queue, devices))
            perturbed.append((statuses, assignments, "broken", queue, devices))
        verdicts = set()
        for state in states + perturbed:
            want = verdict(reference_check_invariants, state)
            assert verdict(check_invariants, state) == want, state
            verdicts.add(want)
        assert verdicts == {None, "TypeOK", "I1"}

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


def random_relation(seed):
    """A seeded successor relation over a few dozen states: duplicates, self
    loops, dead ends, states past the queue bound and states that break an
    invariant, with random bounds and witness collection."""
    rng = random.Random(seed)
    queues = [("e",) * rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(rng.randint(1, 40))]
    states = [(i, (), (), queue, ()) for i, queue in enumerate(queues)]
    table = {
        state: [(rng.choice("ABC"), rng.choice(states)) for _ in range(rng.choice((0, 1, 2, 3, 5)))]
        for state in states
    }
    bad = {state for state in states if rng.random() < 0.04}

    def invariant_fn(state):
        if state in bad:
            raise InvariantViolation("I1", state)

    return dict(
        successors_fn=lambda state: list(table[state]),
        invariant_fn=invariant_fn,
        initial_state=states[0],
        collect_witness=rng.random() < 0.5,
        max_depth=rng.choice((rng.randint(1, 8), 64)),
        max_distinct=rng.choice((rng.randint(1, len(states) + 1), 1_000_000)),
    )


class TestReferenceOracle:
    """``explore`` against the queue-based oracle: equal stats, or the same
    exception with the same message, state and witness."""

    def test_golden_mode(self):
        assert outcome(explore) == outcome(reference_explore) == GOLDEN_STATS

    @pytest.mark.parametrize("max_depth", range(1, GOLDEN_STATS.depth + 1))
    def test_bounds(self, max_depth):
        for max_distinct in (1, 7, 448, 7167, 7168):
            kwargs = dict(max_depth=max_depth, max_distinct=max_distinct)
            assert outcome(explore, **kwargs) == outcome(reference_explore, **kwargs)

    @pytest.mark.parametrize("collect_witness", [False, True])
    def test_buggy_successors(self, collect_witness):
        kwargs = dict(successors_fn=buggy_successors, collect_witness=collect_witness)
        got = outcome(explore, **kwargs)
        assert got == outcome(reference_explore, **kwargs)
        assert got[0] is InvariantViolation and got[2] == "I1"
        assert bool(got[4]) is collect_witness

    def test_random_successor_relations(self):
        kinds = set()
        for seed in range(300):
            got = outcome(explore, **random_relation(seed))
            assert got == outcome(reference_explore, **random_relation(seed)), seed
            if isinstance(got, ExploreStats):
                kinds.add("stats")
            elif got[0] is BoundExceeded:
                kinds.add(got[1].split()[0] + " bound")
            else:
                kinds.add("witness" if got[4] else "no witness")
        # Every outcome is exercised: completed searches, both bounds, and
        # violations with and without a witness path.
        assert kinds == {"stats", "depth bound", "state bound", "witness", "no witness"}


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

    def test_same_successors_as_the_uncached_freeze(self, monkeypatch):
        """Every expanded state, and the (action, frozen state) pairs it
        generates in order, match the oracle that freezes every successor."""
        real_explore = explorer.explore

        def expansions(run):
            seen = []

            def recording_explore(**kwargs):
                successors_fn = kwargs["successors_fn"]

                def recorded(state):
                    succs = successors_fn(state)
                    seen.append((state, succs))
                    return succs

                return real_explore(**{**kwargs, "successors_fn": recorded})

            monkeypatch.setattr(explorer, "explore", recording_explore)
            stats = run()
            monkeypatch.setattr(explorer, "explore", real_explore)
            return stats, seen

        got_stats, got = expansions(explore_extended)
        want_stats, want = expansions(reference_explore_extended)
        assert got_stats == want_stats
        assert len(got) == got_stats.distinct
        assert got == want

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

    def test_each_graph_is_validated_once(self, monkeypatch):
        """I2 is judged when a graph is first stored, not on every state that
        shares it: once for each of the 257 stored graphs, against 881 calls
        when every state was validated, plus the one check of the base
        graph's build, which is stored too. Stored graphs stay alive, so
        their ids are distinct."""
        graphs = []
        validate = TaskConstellation.validate

        def counted_validate(self):
            graphs.append(id(self))
            return validate(self)

        monkeypatch.setattr(TaskConstellation, "validate", counted_validate)
        assert explore_extended().distinct == 880
        assert (len(graphs), len(set(graphs))) == (258, 257)
        assert graphs[0] == graphs[1]  # the base graph: built, then stored
