"""Core graph model: edit preconditions, validation, readiness."""

import copy
import dataclasses
import inspect
import itertools
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
    UpdateDependency,
    UpdateTask,
    ValidationFailed,
    apply_delta,
    build_constellation,
    serialize,
)
from constellation.errors import ConstellationError, IllegalField, ParseError
from constellation.events import EventKind, OrchestratorEvent
from constellation.serial import from_document, to_document
from constellation.model import CONDITIONS, UNCONDITIONAL, DependencyKind, DependencyType
from conftest import random_dag, scanned_incoming
from test_edits import hostile_graph, hostile_op, reshaping_ops


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

    def test_task_needs_a_device(self):
        with pytest.raises(ParseError, match="requires a device"):
            from_document({"tasks": [{"id": "A"}]})
        assert_rejected(chain("A"), AddTask({"id": "B"}), ParseError)

    def test_patch_without_device_keeps_the_device(self):
        post = apply_one(chain("A"), UpdateTask("A", {"name": "renamed"}))
        assert (post.tasks["A"].name, post.tasks["A"].device) == ("renamed", "dev")

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

    def test_locality_message_names_record_or_incoming_edges(self):
        """Rewiring a non-PENDING task's inputs changes its record (the
        dependency ids); retyping one of them changes only its inputs."""
        c = chain("A", "B")
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        c.transition("B", TaskStatus.RUNNING)
        for op, message in (
            (RemoveDependency("eAB"), "non-PENDING task 'B' was modified"),
            (
                UpdateDependency("eAB", {"dep_type": "SUCCESS_ONLY"}),
                "incoming edges of non-PENDING task 'B' changed",
            ),
        ):
            with pytest.raises(ValidationFailed) as err:
                apply_delta(c, EditDelta([op]))
            assert [str(v) for v in err.value.violations] == [f"ImmutableTask: {message}"]


    def test_patch_sets_the_type_or_its_condition(self, monkeypatch):
        """A patch naming dep_type replaces the whole type, condition
        included; one naming condition_id alone changes the condition of a
        CONDITIONAL edge."""
        monkeypatch.setitem(CONDITIONS, "never", lambda _result: False)
        c = chain("A", "B")
        steps = [
            ({"dep_type": "CONDITIONAL", "condition_id": "always"}, DependencyKind.CONDITIONAL, "always"),
            ({"condition_id": "never"}, DependencyKind.CONDITIONAL, "never"),
            ({"description": "why"}, DependencyKind.CONDITIONAL, "never"),
            ({"dep_type": "UNCONDITIONAL"}, DependencyKind.UNCONDITIONAL, None),
        ]
        for patch, kind, condition_id in steps:
            c = apply_one(c, UpdateDependency("eAB", patch))
            assert c.edges["eAB"].dep_type == DependencyType(kind, condition_id), patch
        assert c.edges["eAB"].description == "why"
        assert_rejected(c, UpdateDependency("eAB", {"condition_id": "always"}), ParseError)
        assert_rejected(c, UpdateDependency("eAB", {"dep_type": "CONDITIONAL"}), ParseError)
        unknown = UpdateDependency("eAB", {"dep_type": "CONDITIONAL", "condition_id": "nope"})
        assert_invalid(c, [unknown], "UnknownCondition")

    def test_readiness_follows_a_condition_patch(self, monkeypatch):
        monkeypatch.setitem(CONDITIONS, "never", lambda _result: False)
        c = chain("A", "B")
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        assert c.ready_tasks() == ["B"]
        blocked = apply_one(c, UpdateDependency("eAB", {"dep_type": "CONDITIONAL", "condition_id": "never"}))
        assert blocked.ready_tasks() == [] and blocked.is_quiescent()
        unblocked = apply_one(blocked, UpdateDependency("eAB", {"condition_id": "always"}))
        assert unblocked.ready_tasks() == ["B"] and not unblocked.is_quiescent()
        assert c.ready_tasks() == ["B"] and blocked.ready_tasks() == []


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

    # How to bring task A of a fresh one-task graph to each status.
    PATHS_TO = {
        TaskStatus.PENDING: (),
        TaskStatus.RUNNING: (TaskStatus.RUNNING,),
        TaskStatus.COMPLETED: (TaskStatus.RUNNING, TaskStatus.COMPLETED),
        TaskStatus.FAILED: (TaskStatus.FAILED,),
    }
    LEGAL = {
        (TaskStatus.PENDING, TaskStatus.RUNNING),
        (TaskStatus.PENDING, TaskStatus.FAILED),
        (TaskStatus.RUNNING, TaskStatus.COMPLETED),
        (TaskStatus.RUNNING, TaskStatus.FAILED),
    }

    @pytest.mark.parametrize(
        "old,new", list(itertools.product(TaskStatus, TaskStatus)), ids=lambda s: s.value
    )
    def test_transition_table(self, old, new):
        """Exactly the four legal pairs of statuses succeed; every other
        pair raises with the same message and leaves the record as it was."""
        c = chain("A")
        for status in self.PATHS_TO[old]:
            c.transition("A", status)
        before = c.tasks["A"]
        assert before.status is old
        if (old, new) in self.LEGAL:
            c.transition("A", new)
            assert c.tasks["A"].status is new
            return
        with pytest.raises(IllegalTransition) as err:
            c.transition("A", new, result="x")
        assert str(err.value) == f"illegal transition {old.value}->{new.value} on task 'A'"
        assert c.tasks["A"] is before


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


    def test_kept_counts_match_the_full_scan_along_random_walks(self):
        """Legal transitions mixed with hostile deltas, some of which remove
        a task or an edge and add it back. Some steps go unchecked, so
        several commits and transitions pass between checks. Where checked, the live graph and a fresh clone read as the
        full scan does, and moving a clone's statuses never moves the
        pre-state's ready set."""
        moves = {
            TaskStatus.PENDING: [TaskStatus.RUNNING, TaskStatus.FAILED],
            TaskStatus.RUNNING: [TaskStatus.COMPLETED, TaskStatus.FAILED],
        }
        commits = 0
        for seed in range(1000):
            rng = random.Random(seed)
            c = hostile_graph(rng)
            for _ in range(20):
                if rng.random() < 0.6:
                    ops = []
                    for _ in range(rng.randint(1, 2)):
                        reshape = c.tasks and rng.random() < 0.4
                        ops += reshaping_ops(rng, c) if reshape else [hostile_op(rng, c)]
                    try:
                        c, _ = apply_delta(c, EditDelta(ops))
                        commits += 1
                    except ConstellationError:
                        pass
                for _ in range(rng.randint(0, 2)):
                    live = sorted(t for t, task in c.tasks.items() if task.status in moves)
                    if live:
                        task_id = rng.choice(live)
                        status = rng.choice(moves[c.tasks[task_id].status])
                        result = "ok" if status is TaskStatus.COMPLETED else None
                        c.transition(task_id, status, result=result)
                if rng.random() < 0.3:
                    continue
                twin = c.clone()
                for version in (twin, c) if rng.random() < 0.5 else (c, twin):
                    assert version.ready_tasks() == oracle_ready_tasks(version), seed
                    assert version.is_quiescent() == oracle_is_quiescent(version), seed
                before = c.ready_tasks()
                for task_id in twin.ready_tasks():
                    twin.transition(task_id, TaskStatus.RUNNING)
                assert twin.ready_tasks() == oracle_ready_tasks(twin) == []
                assert c.ready_tasks() == before == oracle_ready_tasks(c), seed
        assert commits >= 800, commits


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

    def test_shared_results_are_never_mutated(self):
        """A JSON object or list result is shared, not copied, by every
        version: a commit, a clone and a document round trip."""
        results = {"A": {"rows": [1, 2], "meta": {"ok": True}}, "B": [1, {"x": [2]}]}
        doc = {
            "tasks": [
                *({"id": t, "device": "dev", "status": "COMPLETED", "result": r} for t, r in results.items()),
                {"id": "C", "device": "dev"},
            ],
            "dependencies": [
                {"id": "eAC", "from_task": "A", "to_task": "C"},
                {"id": "eBC", "from_task": "B", "to_task": "C"},
            ],
        }
        copies = copy.deepcopy(results)
        c = from_document(doc)
        post, _ = apply_delta(
            c,
            EditDelta(
                [
                    AddTask({"id": "D", "device": "dev"}),
                    AddDependency({"id": "eAD", "from_task": "A", "to_task": "D"}),
                    UpdateTask("C", {"description": "reworded"}),
                ]
            ),
        )
        twin = post.clone()
        round_trip = from_document(to_document(twin))
        for version in (c, post, twin, round_trip):
            for task_id, result in results.items():
                assert version.tasks[task_id].result is result
                assert result == copies[task_id]

    def test_structural_equality(self, fig4):
        assert fig4.structurally_equal(fig4.clone())
        other = apply_one(fig4, UpdateTask("A", {"description": "different"}))
        other.version = fig4.version
        assert not fig4.structurally_equal(other)


class TestRecords:
    """The per-task records keep the value semantics of a frozen dataclass
    whatever their ``__init__`` does: the fields, in order, with their
    defaults, then eq, hash, repr and ``dataclasses.replace``."""

    RECORDS = {
        TaskStar: (
            ("A", "dev", "n", "d", ("t",), TaskStatus.COMPLETED, "ok", FailureReason.TIMEOUT),
            "TaskStar(id='A', device='dev', name='n', description='d', tips=('t',), "
            "status=<TaskStatus.COMPLETED: 'COMPLETED'>, result='ok', "
            "failure_reason=<FailureReason.TIMEOUT: 'TIMEOUT'>)",
        ),
        TaskStarLine: (
            ("e", "A", "B", DependencyType(DependencyKind.CONDITIONAL, "always"), "x"),
            "TaskStarLine(id='e', from_task='A', to_task='B', dep_type=DependencyType("
            "kind=<DependencyKind.CONDITIONAL: 'CONDITIONAL'>, condition_id='always'), description='x')",
        ),
        OrchestratorEvent: (
            (EventKind.TASK_FAILED, "A", 1.5, {"failure_reason": "TIMEOUT"}),
            "OrchestratorEvent(kind=<EventKind.TASK_FAILED: 'TASK_FAILED'>, task_id='A', at=1.5, "
            "payload={'failure_reason': 'TIMEOUT'})",
        ),
    }

    @pytest.fixture(params=list(RECORDS), ids=lambda record: record.__name__)
    def record(self, request):
        return request.param

    def test_signature_follows_the_fields(self, record):
        """Field names in order, each with its default; a field with a
        default factory takes ``None`` for a fresh value."""
        parameters = list(inspect.signature(record).parameters.values())
        fields = dataclasses.fields(record)
        assert [p.name for p in parameters] == [f.name for f in fields]
        for parameter, field in zip(parameters, fields):
            assert parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if field.default is not dataclasses.MISSING:
                assert parameter.default == field.default
            elif field.default_factory is not dataclasses.MISSING:
                assert parameter.default is None
            else:
                assert parameter.default is inspect.Parameter.empty

    def test_positional_and_keyword_construction_agree(self, record):
        values, expected_repr = self.RECORDS[record]
        positional = record(*values)
        keyword = record(**{f.name: value for f, value in zip(dataclasses.fields(record), values)})
        assert positional == keyword and positional is not keyword
        assert repr(positional) == repr(keyword) == expected_repr
        # Written in field order, which keeps instance dicts sharing their keys.
        assert list(vars(positional)) == [f.name for f in dataclasses.fields(record)]
        if record is OrchestratorEvent:
            # A dict payload makes an event unhashable, as it always was.
            with pytest.raises(TypeError):
                hash(positional)
        else:
            assert hash(positional) == hash(keyword)

    def test_frozen(self, record):
        instance = record(*self.RECORDS[record][0])
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, field.name, "changed")
        assert instance == record(*self.RECORDS[record][0])

    def test_replace_round_trips(self, record):
        instance = record(*self.RECORDS[record][0])
        assert dataclasses.replace(instance) == instance
        first = dataclasses.fields(record)[0].name
        for field in dataclasses.fields(record)[1:]:
            changed = dataclasses.replace(instance, **{field.name: "changed"})
            assert getattr(changed, field.name) == "changed"
            assert getattr(changed, first) is getattr(instance, first)
            assert changed != instance
            assert dataclasses.replace(changed, **{field.name: getattr(instance, field.name)}) == instance

    def test_defaults_fill_the_record(self):
        assert TaskStar("A", "dev") == TaskStar(
            "A", "dev", "", "", (), TaskStatus.PENDING, None, None
        )
        assert TaskStarLine("e", "A", "B").dep_type is UNCONDITIONAL
        assert OrchestratorEvent(EventKind.TASK_STARTED).as_dict() == {"kind": "TASK_STARTED", "at": 0.0}

    def test_events_without_a_payload_get_their_own_dict(self):
        first, second = OrchestratorEvent(EventKind.TASK_STARTED), OrchestratorEvent(EventKind.TASK_STARTED)
        assert first.payload == second.payload == {}
        assert first.payload is not second.payload
        first.payload["device"] = "dev"
        assert second.payload == {}
