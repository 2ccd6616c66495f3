"""Core graph model: edit preconditions, validation, readiness."""

import dataclasses
import random

import pytest

import constellation
from constellation import (
    AddDependency,
    AddTask,
    DuplicateId,
    EditDelta,
    FailureReason,
    IllegalTransition,
    NotFound,
    RemoveDependency,
    RemoveTask,
    TaskConstellation,
    TaskStar,
    TaskStarLine,
    TaskStatus,
    UpdateTask,
    ValidationFailed,
    apply_delta,
    build_constellation,
    serialize,
)
from constellation.errors import IllegalField
from constellation.model import CONDITIONS, DependencyKind
from conftest import random_dag, scanned_incoming


def chain(*ids):
    return build_constellation(
        {
            "request": "chain",
            "tasks": [{"id": tid, "name": tid, "description": tid, "device": "dev"} for tid in ids],
            "dependencies": [
                {"id": f"e{a}{b}", "from_task": a, "to_task": b} for a, b in zip(ids, ids[1:])
            ],
        }
    )


def apply_one(c, op):
    post, _ = apply_delta(c, EditDelta([op]))
    return post


def assert_rejected(c, op, error):
    """The one-op delta raises ``error`` and leaves the pre-state untouched."""
    before = serialize(c)
    with pytest.raises(error):
        apply_delta(c, EditDelta([op]))
    assert serialize(c) == before


def assert_invalid(c, ops, *kinds):
    """The delta raises one ``ValidationFailed`` whose violations are of
    exactly ``kinds``, and leaves the pre-state untouched."""
    before = serialize(c)
    with pytest.raises(ValidationFailed) as err:
        apply_delta(c, EditDelta(ops))
    assert sorted({v.kind for v in err.value.violations}) == sorted(kinds)
    assert serialize(c) == before


class TestTaskOps:
    def test_add_task_assigns_pending_status(self):
        c = apply_one(TaskConstellation(), AddTask({"id": "A", "device": "dev"}))
        assert c.tasks["A"].status is TaskStatus.PENDING
        assert c.version == 1

    def test_duplicate_task_id_rejected(self):
        assert_rejected(chain("A"), AddTask({"id": "A", "device": "dev"}), DuplicateId)

    def test_remove_task_drops_incident_edges(self, fig4):
        # C has eAC incoming plus eCD and eCE outgoing; all three must go.
        post = apply_one(fig4, RemoveTask("C"))
        assert "C" not in post.tasks
        assert set(post.edges) == {"eBD", "eDE"}

    def test_remove_non_pending_task_rejected(self):
        c = chain("A")
        c.transition("A", TaskStatus.RUNNING)
        assert_invalid(c, [RemoveTask("A")], "ImmutableTask")

    def test_update_task_respects_editable_fields(self):
        c = chain("A")
        post = apply_one(c, UpdateTask("A", {"description": "new words", "tips": ["hint"]}))
        assert post.tasks["A"].description == "new words"
        post = apply_one(c, UpdateTask("A", {"tips": ["hint"]}))
        assert (post.tasks["A"].description, post.tasks["A"].tips) == ("A", ("hint",))
        assert_rejected(c, UpdateTask("A", {"status": "COMPLETED"}), IllegalField)

    def test_update_non_pending_task_rejected(self):
        c = chain("A")
        c.transition("A", TaskStatus.RUNNING)
        assert_invalid(c, [UpdateTask("A", {"description": "too late"})], "ImmutableTask")

    def test_missing_task_raises_not_found(self):
        with pytest.raises(NotFound):
            chain("A").task("Z")


class TestEdgeOps:
    def test_cycle_rejected_and_rolled_back(self):
        edge = AddDependency({"id": "eCA", "from_task": "C", "to_task": "A"})
        assert_invalid(chain("A", "B", "C"), [edge], "CycleIntroduced")

    def test_self_loop_rejected(self):
        edge = AddDependency({"id": "eAA", "from_task": "A", "to_task": "A"})
        assert_invalid(chain("A"), [edge], "SelfLoop", "CycleIntroduced")

    def test_parallel_edge_rejected(self):
        edge = AddDependency({"id": "e2", "from_task": "A", "to_task": "B"})
        assert_invalid(chain("A", "B"), [edge], "DuplicateEdge")

    def test_edge_to_non_pending_target_rejected(self):
        c = apply_one(chain("A", "B"), AddTask({"id": "C", "device": "dev"}))
        c.transition("B", TaskStatus.RUNNING)
        edge = AddDependency({"id": "eCB", "from_task": "C", "to_task": "B"})
        assert_invalid(c, [edge], "ImmutableTask")

    def test_remove_edge_requires_pending_target(self):
        c = chain("A", "B")
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        c.transition("B", TaskStatus.RUNNING)
        assert_invalid(c, [RemoveDependency("eAB")], "ImmutableTask")


class TestJudgedOnResult:
    """Ops only parse and mutate; the delta's result is checked once."""

    def test_edge_before_its_endpoint_commits(self):
        c = chain("X")
        ops = [
            AddDependency({"id": "eXY", "from_task": "X", "to_task": "Y"}),
            AddTask({"id": "Y", "device": "dev"}),
        ]
        post, _ = apply_delta(c, EditDelta(ops))
        assert [e.from_task for e in post.incoming("Y")] == ["X"]
        assert post.validate() == [] and post.version == c.version + 1

    def test_transient_cycle_commits_once_broken(self):
        c = chain("A", "B")
        ops = [AddDependency({"id": "eBA", "from_task": "B", "to_task": "A"}), RemoveDependency("eAB")]
        post, _ = apply_delta(c, EditDelta(ops))
        assert set(post.edges) == {"eBA"}

    def test_every_violation_kind_named_in_one_failure(self):
        c = chain("A", "B", "C")
        c.transition("A", TaskStatus.RUNNING)
        ops = [
            UpdateTask("A", {"description": "too late"}),
            AddDependency({"id": "eCB", "from_task": "C", "to_task": "B"}),
            AddDependency({"id": "eCZ", "from_task": "C", "to_task": "Z"}),
        ]
        assert_invalid(c, ops, "ImmutableTask", "CycleIntroduced", "DanglingEdge")


class TestTransitions:
    def test_legal_lifecycle(self):
        c = chain("A")
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="done")
        assert c.tasks["A"].result == "done"

    def test_pending_to_failed_allowed(self):
        c = chain("A")
        c.transition("A", TaskStatus.FAILED, failure_reason=FailureReason.TIMEOUT)
        assert c.tasks["A"].failure_reason is FailureReason.TIMEOUT

    @pytest.mark.parametrize(
        "path",
        [
            (TaskStatus.COMPLETED,),
            (TaskStatus.RUNNING, TaskStatus.COMPLETED, TaskStatus.RUNNING),
            (TaskStatus.RUNNING, TaskStatus.FAILED, TaskStatus.COMPLETED),
        ],
    )
    def test_illegal_transitions_rejected(self, path):
        c = chain("A")
        with pytest.raises(IllegalTransition):
            for status in path:
                c.transition("A", status, result="x")

    def test_illegal_transition_raises_the_exported_error(self):
        c = chain("A")
        with pytest.raises(constellation.IllegalTransition) as err:
            c.transition("A", TaskStatus.COMPLETED, result="x")
        assert str(err.value) == "illegal transition PENDING->COMPLETED on task 'A'"
        assert c.tasks["A"].status is TaskStatus.PENDING and c.tasks["A"].result is None


class TestValidate:
    def test_clean_graph_reports_nothing(self, fig4):
        assert fig4.validate() == []

    def test_dangling_edge_detected(self):
        c = chain("A", "B")
        del c.tasks["B"]
        kinds = {v.kind for v in c.validate()}
        assert "DanglingEdge" in kinds

    def test_cycle_detected_with_node_listing(self):
        c = chain("A", "B")
        c._add_dependency({"id": "eBA", "from_task": "B", "to_task": "A"})
        violations = [v for v in c.validate() if v.kind == "CycleIntroduced"]
        assert len(violations) == 1
        assert "A" in violations[0].detail and "B" in violations[0].detail

    def test_result_on_non_terminal_task_detected(self):
        c = chain("A")
        c.tasks["A"] = dataclasses.replace(c.tasks["A"], result="phantom")
        assert any(v.kind == "StatusResult" for v in c.validate())


class TestReadiness:
    def test_fig4_progression(self, fig4):
        assert fig4.ready_tasks() == ["A", "B"]
        fig4.transition("A", TaskStatus.RUNNING)
        fig4.transition("A", TaskStatus.COMPLETED, result="ok")
        assert fig4.ready_tasks() == ["B", "C"]
        for tid in ("B", "C"):
            fig4.transition(tid, TaskStatus.RUNNING)
            fig4.transition(tid, TaskStatus.COMPLETED, result="ok")
        assert fig4.ready_tasks() == ["D"]

    def test_success_only_blocks_on_failure(self, fig4):
        for tid in ("A", "B"):
            fig4.transition(tid, TaskStatus.RUNNING)
            fig4.transition(tid, TaskStatus.COMPLETED, result="ok")
        fig4.transition("C", TaskStatus.RUNNING)
        fig4.transition("C", TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR)
        # D's UNCONDITIONAL edge from C is satisfied by failure; E's
        # SUCCESS_ONLY edge from C never will be.
        assert fig4.ready_tasks() == ["D"]
        fig4.transition("D", TaskStatus.RUNNING)
        fig4.transition("D", TaskStatus.COMPLETED, result="ok")
        assert fig4.ready_tasks() == []
        assert fig4.is_quiescent()

    def test_unconditional_satisfied_by_either_terminal(self):
        c = chain("A", "B")
        c.transition("A", TaskStatus.FAILED, failure_reason=FailureReason.TIMEOUT)
        assert c.ready_tasks() == ["B"]

    def test_quiescence_false_while_running(self, fig4):
        fig4.transition("A", TaskStatus.RUNNING)
        assert not fig4.is_quiescent()

    def test_quiescence_propagates_through_blocked_chains(self, fig4):
        # C fails -> E blocked via SUCCESS_ONLY even though D could still run.
        for tid in ("A", "B"):
            fig4.transition(tid, TaskStatus.RUNNING)
            fig4.transition(tid, TaskStatus.COMPLETED, result="ok")
        fig4.transition("C", TaskStatus.RUNNING)
        fig4.transition("C", TaskStatus.FAILED, failure_reason=FailureReason.EXECUTION_ERROR)
        assert not fig4.is_quiescent()  # D is still dispatchable
        fig4.transition("D", TaskStatus.RUNNING)
        fig4.transition("D", TaskStatus.COMPLETED, result="ok")
        assert fig4.is_quiescent()


def oracle_ready_tasks(c):
    """The full scan ``ready_tasks`` used to make over every edge."""
    return [
        task_id
        for task_id in sorted(c.tasks)
        if c.tasks[task_id].status is TaskStatus.PENDING
        and all(c.edge_satisfied(e) for e in scanned_incoming(c, task_id))
    ]


def oracle_is_quiescent(c):
    """The fixpoint ``is_quiescent`` used to run: assume every live task may
    complete, then peel off tasks proven blocked until nothing changes."""
    if any(t.status is TaskStatus.RUNNING for t in c.tasks.values()):
        return False

    def blocked(task_id, live):
        for edge in scanned_incoming(c, task_id):
            upstream = c.tasks[edge.from_task]
            kind = edge.dep_type.kind
            if upstream.status.terminal:
                if kind is DependencyKind.SUCCESS_ONLY and upstream.status is TaskStatus.FAILED:
                    return True
                if kind is DependencyKind.CONDITIONAL and not CONDITIONS[
                    edge.dep_type.condition_id
                ](upstream.result):
                    return True
            elif edge.from_task not in live:
                return True
        return False

    live = {t for t, task in c.tasks.items() if not task.status.terminal}
    changed = True
    while changed:
        changed = False
        for task_id in sorted(live):
            if blocked(task_id, live):
                live.discard(task_id)
                changed = True
    return not live


class TestReadinessOracles:
    def test_random_graphs_match_the_fixpoint_and_the_full_scan(self):
        rng = random.Random(6)
        blocked_for_good = 0  # quiescent although some task is still PENDING
        for _ in range(1000):
            c = random_dag(rng, max_nodes=10)
            for task_id in sorted(c.tasks):
                status = rng.choices(
                    [TaskStatus.PENDING, TaskStatus.RUNNING, TaskStatus.COMPLETED, TaskStatus.FAILED],
                    weights=[5, 1, 2, 10],
                )[0]
                if status is TaskStatus.FAILED:
                    c.transition(task_id, status, failure_reason=FailureReason.EXECUTION_ERROR)
                elif status is not TaskStatus.PENDING:
                    c.transition(task_id, TaskStatus.RUNNING)
                    if status is TaskStatus.COMPLETED:
                        c.transition(task_id, status, result="ok")
            assert c.ready_tasks() == oracle_ready_tasks(c)
            assert c.is_quiescent() == oracle_is_quiescent(c)
            blocked_for_good += c.is_quiescent() and TaskStatus.PENDING in {
                t.status for t in c.tasks.values()
            }
        assert blocked_for_good >= 30, blocked_for_good


class TestCopies:
    def test_clone_is_independent(self, fig4):
        twin = fig4.clone()
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.tasks["A"].description = "changed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.edges["eAC"].to_task = "B"
        before = serialize(fig4)
        twin.transition("A", TaskStatus.RUNNING)
        apply_one(twin, UpdateTask("B", {"description": "changed", "tips": ["hint"]}))
        apply_one(twin, AddDependency({"id": "eBE", "from_task": "B", "to_task": "E"}))
        assert serialize(fig4) == before

    def test_clone_constructs_no_record(self, fig4, monkeypatch):
        built = []

        def counted(init):
            def wrapper(self, *args, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            return wrapper

        for record in (TaskStar, TaskStarLine):
            monkeypatch.setattr(record, "__init__", counted(record.__init__))
        twin = fig4.clone()
        assert built == []
        twin.transition("A", TaskStatus.RUNNING)
        assert built == ["TaskStar"]  # the one record the transition replaced
        assert [t for t in fig4.tasks if twin.tasks[t] is not fig4.tasks[t]] == ["A"]

    def test_structural_equality(self, fig4):
        assert fig4.structurally_equal(fig4.clone())
        other = apply_one(fig4, UpdateTask("A", {"description": "different"}))
        other.version = fig4.version
        assert not fig4.structurally_equal(other)
