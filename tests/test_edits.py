"""Atomic batched edits: build, apply, rollback, locality, versioning."""

import random

import pytest

from constellation import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    FailureReason,
    RemoveDependency,
    RemoveTask,
    TaskConstellation,
    TaskStatus,
    UpdateDependency,
    UpdateTask,
    ValidationFailed,
    apply_delta,
    build_constellation,
    deserialize,
    from_document,
    serialize,
)
from constellation import serial
from constellation.edits import delta_from_doc, edit_locality_violations, op_from_doc
from constellation.errors import ConstellationError, IllegalField, ParseError
from conftest import layered_config, random_dag, scanned_incoming

FIG4_CONFIG = {
    "request": "fig4",
    "tasks": [
        {"id": tid, "name": tid, "description": tid, "device": "dev"}
        for tid in ("A", "B", "C", "D", "E")
    ],
    "dependencies": [
        {"id": "eAC", "from_task": "A", "to_task": "C"},
        {"id": "eBD", "from_task": "B", "to_task": "D"},
        {"id": "eCD", "from_task": "C", "to_task": "D"},
        {"id": "eCE", "from_task": "C", "to_task": "E", "dep_type": "SUCCESS_ONLY"},
        {"id": "eDE", "from_task": "D", "to_task": "E", "dep_type": "SUCCESS_ONLY"},
    ],
}


class TestBuildConstellation:
    def test_builds_fig4_shape(self):
        c = build_constellation(FIG4_CONFIG)
        assert set(c.tasks) == {"A", "B", "C", "D", "E"}
        assert len(c.edges) == 5
        assert c.version == 1

    def test_two_cycle_collected_as_validation_failure(self):
        config = {
            "tasks": [{"id": "A", "device": "d"}, {"id": "B", "device": "d"}],
            "dependencies": [
                {"id": "e1", "from_task": "A", "to_task": "B"},
                {"id": "e2", "from_task": "B", "to_task": "A"},
            ],
        }
        with pytest.raises(ValidationFailed) as err:
            build_constellation(config)
        assert any("cycle" in str(v).lower() for v in err.value.violations)

    def test_all_violations_collected_not_just_first(self):
        config = {
            "tasks": [{"id": "A", "device": "d"}, {"id": "A", "device": "d"}],
            "dependencies": [{"id": "e1", "from_task": "A", "to_task": "Z"}],
        }
        with pytest.raises(ValidationFailed) as err:
            build_constellation(config)
        assert len(err.value.violations) >= 2

    def test_replacing_non_pending_tasks_refused(self):
        base = build_constellation(FIG4_CONFIG)
        base.transition("A", TaskStatus.RUNNING)
        assert_locality_refused(base, BuildConstellation({"tasks": []}))

    def test_failing_build_op_keeps_the_locality_violations(self):
        base = build_constellation(FIG4_CONFIG)
        base.transition("A", TaskStatus.RUNNING)
        config = {
            "tasks": TWO_TASKS,
            "dependencies": [
                {"id": "e1", "from_task": "A", "to_task": "B"},
                {"id": "e2", "from_task": "B", "to_task": "A"},
            ],
        }
        before = serialize(base)
        with pytest.raises(ValidationFailed) as err:
            apply_delta(base, EditDelta([BuildConstellation(config)]))
        assert sorted({v.kind for v in err.value.violations}) == ["CycleIntroduced", "ImmutableTask"]
        assert serialize(base) == before

    def test_repeated_id_in_build_op_refused_whatever_follows(self):
        config = {"tasks": [{"id": "A", "device": "d"}, {"id": "A", "device": "e"}]}
        ops = [BuildConstellation(config), AddTask({"id": "B", "device": "d"})]
        with pytest.raises(ValidationFailed) as err:
            apply_delta(TaskConstellation(), EditDelta(ops))
        assert [v.kind for v in err.value.violations] == ["DuplicateId"]

    def test_build_op_replaces_the_graph(self):
        base = build_constellation(FIG4_CONFIG)
        post, summary = apply_delta(
            base, EditDelta([BuildConstellation({"tasks": [{"id": "F", "device": "d"}]})])
        )
        assert set(post.tasks) == {"F"} and not post.edges
        assert post.request == "fig4" and post.version == base.version + 1
        assert summary.added_tasks == 1 and summary.added_dependencies == 0

    def test_layered_build_runs_one_cycle_check(self, monkeypatch):
        """A bulk build, a delta holding one build op and a delta of many
        edges all insert everything, then validate once: one Kahn pass,
        not one per edge."""
        config = layered_config(100, width=10, fan_in=2)
        calls = []
        find_cycle = TaskConstellation._find_cycle

        def counted(self):
            calls.append(1)
            return find_cycle(self)

        for prepare, edges in ((by_build, 180), (by_build_op, 180), (by_edge_ops, 20)):
            run = prepare(config)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(TaskConstellation, "_find_cycle", counted)
                built = run()
            assert (len(built.tasks), len(built.edges)) == (100, edges)
            assert len(calls) == 1, prepare.__name__


class TestApplyDelta:
    def test_version_bumps_exactly_once_per_delta(self):
        c = build_constellation(FIG4_CONFIG)
        delta = EditDelta(
            [
                AddTask({"id": "F", "device": "d"}),
                AddDependency({"id": "eEF", "from_task": "E", "to_task": "F"}),
                UpdateTask("A", {"description": "rewritten"}),
            ]
        )
        post, summary = apply_delta(c, delta)
        assert post.version == c.version + 1
        assert summary.as_dict() == {
            "added_tasks": 1,
            "removed_tasks": 0,
            "modified_tasks": 1,
            "added_dependencies": 1,
            "removed_dependencies": 0,
            "modified_dependencies": 0,
        }

    def test_failed_delta_leaves_pre_state_untouched(self):
        c = build_constellation(FIG4_CONFIG)
        snapshot = c.clone()
        delta = EditDelta(
            [
                AddTask({"id": "F", "device": "d"}),
                AddDependency({"id": "eEA", "from_task": "E", "to_task": "A"}),
                AddDependency({"id": "eloop", "from_task": "C", "to_task": "A"}),
            ]
        )
        with pytest.raises(Exception):
            apply_delta(c, delta)
        assert c.structurally_equal(snapshot)

    def test_rewiring_outgoing_edges_of_terminal_task_allowed(self):
        c = build_constellation(FIG4_CONFIG)
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.FAILED)
        delta = EditDelta(
            [
                AddTask({"id": "A2", "device": "dev"}),
                RemoveDependency("eAC"),
                AddDependency({"id": "eA2C", "from_task": "A2", "to_task": "C"}),
            ]
        )
        post, _ = apply_delta(c, delta)
        assert [e.from_task for e in post.incoming("C")] == ["A2"]

    def test_mutating_terminal_task_rejected_by_locality_check(self):
        c = build_constellation(FIG4_CONFIG)
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        assert_locality_refused(c, UpdateTask("A", {"description": "tampered"}))

    def test_removing_terminal_task_rejected(self):
        c = build_constellation(FIG4_CONFIG)
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        assert_locality_refused(c, RemoveTask("A"))

    def test_commit_serializes_only_replaced_records(self, monkeypatch):
        """900 COMPLETED tasks keep their records through a one-task commit,
        so the locality check serializes none of them."""
        c = build_constellation(layered_config(1000, width=10, fan_in=2))
        for task_id in sorted(c.tasks)[:900]:
            c.transition(task_id, TaskStatus.RUNNING)
            c.transition(task_id, TaskStatus.COMPLETED, result="ok")
        calls = []
        task_to_doc = serial.task_to_doc

        def counted(task, constellation):
            calls.append(task.id)
            return task_to_doc(task, constellation)

        monkeypatch.setattr(serial, "task_to_doc", counted)
        post, _ = apply_delta(c, EditDelta([AddTask({"id": "new", "device": "dev0"})]))
        assert len(post.tasks) == 1001
        assert len(calls) <= 2

    def test_update_dependency_kind(self):
        c = build_constellation(FIG4_CONFIG)
        post, summary = apply_delta(
            c, EditDelta([UpdateDependency("eAC", {"dep_type": "SUCCESS_ONLY"})])
        )
        assert post.edges["eAC"].dep_type.kind.value == "SUCCESS_ONLY"
        assert summary.modified_dependencies == 1

    def test_empty_delta_is_falsy(self):
        assert not EditDelta()
        assert EditDelta([AddTask({"id": "A", "device": "d"})])


class TestDocumentForm:
    def test_round_trip_all_ops(self):
        docs = [
            {"op": "add_task", "spec": {"id": "F", "device": "d"}},
            {"op": "remove_task", "task_id": "F"},
            {"op": "update_task", "task_id": "A", "patch": {"name": "a"}},
            {"op": "add_dependency", "spec": {"id": "e", "from_task": "A", "to_task": "B"}},
            {"op": "remove_dependency", "edge_id": "e"},
            {"op": "update_dependency", "edge_id": "e", "patch": {"description": "x"}},
            {"op": "build_constellation", "config": {"tasks": []}},
        ]
        delta = delta_from_doc(docs, provenance="test")
        assert len(delta.ops) == 7
        assert delta.provenance == "test"

    @pytest.mark.parametrize(
        "doc",
        [
            {"op": "no_such_op"},
            {"op": "add_task"},
            {"spec": {}},
            "not a dict",
            {"op": "build_constellation", "config": {"tasks": []}, "clear": False},
        ],
    )
    def test_malformed_op_documents_rejected(self, doc):
        with pytest.raises(ParseError):
            op_from_doc(doc)


def assert_locality_refused(c, op):
    """The one-op delta raises ``ValidationFailed`` with only edit-locality
    violations, and leaves the pre-state untouched."""
    before = serialize(c)
    with pytest.raises(ValidationFailed) as err:
        apply_delta(c, EditDelta([op]))
    assert {v.kind for v in err.value.violations} == {"ImmutableTask"}
    assert serialize(c) == before


def by_build(config):
    return lambda: build_constellation(config)


def by_build_op(config):
    return lambda: apply_delta(TaskConstellation(), EditDelta([BuildConstellation(config)]))[0]


def by_edge_ops(config):
    base = build_constellation({"tasks": config["tasks"]})
    delta = EditDelta([AddDependency(edge) for edge in config["dependencies"][:20]])
    return lambda: apply_delta(base, delta)[0]


TWO_TASKS = [{"id": "A", "device": "d"}, {"id": "B", "device": "d"}]


def with_entry(kind, entry):
    """Tasks A and B plus ``entry``, a task or a dependency entry."""
    return {
        "tasks": TWO_TASKS + ([entry] if kind == "task" else []),
        "dependencies": [entry] if kind == "dependency" else [],
    }


def through_document(kind, entry):
    from_document(with_entry(kind, entry))


def through_build(kind, entry):
    build_constellation(with_entry(kind, entry))


def through_delta(kind, entry):
    op = AddTask(entry) if kind == "task" else AddDependency(entry)
    apply_delta(build_constellation({"tasks": TWO_TASKS}), EditDelta([op]))


class TestEntryParsing:
    """One parser per entry kind: every path that reads an entry raises the
    same error for the same malformed entry."""

    @pytest.mark.parametrize("path", [through_document, through_build, through_delta])
    @pytest.mark.parametrize(
        "kind, entry, error",
        [
            ("task", {"device": "d"}, ParseError),
            ("task", {"id": "", "device": "d"}, ParseError),
            ("task", "not an object", ParseError),
            ("task", {"id": "C", "device": "d", "colour": "red"}, IllegalField),
            ("dependency", {"id": "e", "from_task": "A", "to_task": "B", "dep_type": "BOGUS"}, ParseError),
            ("dependency", {"id": "e", "from_task": "A", "to_task": "B", "dep_type": "CONDITIONAL"}, ParseError),
            ("dependency", {"id": "e", "from_task": "A"}, ParseError),
            ("dependency", {"from_task": "A", "to_task": "B"}, ParseError),
            ("dependency", {"id": "e", "from_task": "A", "to_task": "B", "weight": 2}, IllegalField),
            ("task", {"id": "C", "device": 7}, ParseError),
            ("task", {"id": "C", "device": "d", "name": ["x"]}, ParseError),
            ("task", {"id": "C", "device": "d", "description": 5}, ParseError),
            ("task", {"id": "C", "device": "d", "tips": 5}, ParseError),
            ("task", {"id": "C", "device": "d", "tips": "abc"}, ParseError),
            ("task", {"id": "C", "device": "d", "tips": ["ok", 1]}, ParseError),
            ("task", {"id": "C", "device": "d", 5: "x", "colour": "red"}, IllegalField),
            ("dependency", {"id": "e", "from_task": "A", "to_task": "B", "description": 5}, ParseError),
            (
                "dependency",
                {"id": "e", "from_task": "A", "to_task": "B", "dep_type": "CONDITIONAL",
                 "condition_id": ["always"]},
                ParseError,
            ),
        ],
        ids=[
            "task-missing-id",
            "task-empty-id",
            "task-not-object",
            "task-unknown-field",
            "dep-bad-dep_type",
            "dep-conditional-without-condition",
            "dep-missing-endpoint",
            "dep-missing-id",
            "dep-unknown-field",
            "task-device-not-string",
            "task-name-not-string",
            "task-description-not-string",
            "task-tips-not-list",
            "task-tips-string",
            "task-tips-not-strings",
            "task-unknown-mixed-type-fields",
            "dep-description-not-string",
            "dep-condition_id-not-string",
        ],
    )
    def test_same_malformed_entry_same_error(self, path, kind, entry, error):
        with pytest.raises(error):
            path(kind, entry)

    @pytest.mark.parametrize(
        "op, error",
        [
            (UpdateTask("A", 5), ParseError),
            (UpdateTask("A", ["name"]), ParseError),
            (UpdateTask("A", {"tips": 5}), ParseError),
            (UpdateTask("A", {"tips": ["ok", None]}), ParseError),
            (UpdateTask("A", {"name": ["x"]}), ParseError),
            (UpdateTask("A", {"device": 7}), ParseError),
            (UpdateTask("A", {"status": "COMPLETED"}), IllegalField),
            (UpdateTask("A", {"id": "Z"}), IllegalField),
            (UpdateDependency("eAB", 5), ParseError),
            (UpdateDependency("eAB", {"description": 5}), ParseError),
            (UpdateDependency("eAB", {"dep_type": "BOGUS"}), ParseError),
            (UpdateDependency("eAB", {"dep_type": "CONDITIONAL"}), ParseError),
            (UpdateDependency("eAB", {"to_task": "A"}), IllegalField),
        ],
        ids=lambda value: getattr(value, "__name__", repr(value)),
    )
    def test_malformed_patch_refused(self, op, error):
        """Patched values go through the same entry parsers, so a patch is
        refused with the same error classes as an entry."""
        c = build_constellation(
            {"tasks": TWO_TASKS, "dependencies": [{"id": "eAB", "from_task": "A", "to_task": "B"}]}
        )
        before = serialize(c)
        with pytest.raises(error):
            apply_delta(c, EditDelta([op]))
        assert serialize(c) == before

    @pytest.mark.parametrize(
        "field, value",
        [("status", "PENDING"), ("result", "early"), ("failure_reason", "TIMEOUT")],
    )
    def test_creation_entries_refuse_engine_owned_fields(self, field, value):
        entry = {"id": "C", "device": "d", field: value}
        for path in (through_build, through_delta):
            with pytest.raises(IllegalField):
                path("task", entry)

    def test_documents_carry_engine_owned_fields(self):
        doc = {
            "tasks": [
                {"id": "A", "device": "d", "status": "FAILED", "failure_reason": "TIMEOUT"},
                {"id": "B", "device": "d", "status": "COMPLETED", "result": {"rows": 3}},
            ]
        }
        c = from_document(doc)
        assert c.tasks["A"].status is TaskStatus.FAILED and c.tasks["B"].result == {"rows": 3}

    @pytest.mark.parametrize("path", [through_document, through_build, through_delta])
    def test_unknown_condition_rejected_at_validation(self, path):
        entry = {
            "id": "e",
            "from_task": "A",
            "to_task": "B",
            "dep_type": "CONDITIONAL",
            "condition_id": "never_registered",
        }
        with pytest.raises(ValidationFailed) as err:
            path("dependency", entry)
        assert [v.kind for v in err.value.violations] == ["UnknownCondition"]


GOOD_TASK_PATCHES = [{"description": "reworded"}, {"tips": ["hint"]}, {"device": "dev1"}]
BAD_TASK_PATCHES = [
    {"tips": 5},
    {"tips": "abc"},
    {"name": ["x"]},
    {"status": "COMPLETED"},
    {"id": "t0"},
    5,
    ["name"],
    None,
]
GOOD_EDGE_PATCHES = [{"dep_type": "SUCCESS_ONLY"}, {"description": "why"}]
BAD_EDGE_PATCHES = [
    {"dep_type": "CONDITIONAL"},
    {"dep_type": "BOGUS"},
    {"description": 5},
    {"from_task": "t0"},
    5,
    ["dep_type"],
]


def hostile_graph(rng):
    """A random DAG with some tasks already RUNNING, COMPLETED or FAILED."""
    c = random_dag(rng, max_nodes=6)
    for task_id in sorted(c.tasks):
        roll = rng.random()
        if roll < 0.3:
            c.transition(task_id, TaskStatus.RUNNING)
        if roll < 0.15:
            c.transition(task_id, TaskStatus.COMPLETED, result=f"{task_id} done")
        elif 0.3 <= roll < 0.4:
            c.transition(task_id, TaskStatus.FAILED, failure_reason=FailureReason.TIMEOUT)
    return c


def hostile_op(rng, c):
    """One edit op, wrong about a third of the time: a cycle, a self-loop, a
    parallel edge, a missing endpoint, a repeated id, an edit of a
    non-PENDING task, an illegal field, or a mistyped patch or id."""
    wrong = rng.random() < 0.35
    pick = rng.choice
    pending = [t for t, task in sorted(c.tasks.items()) if task.status is TaskStatus.PENDING]
    if wrong:
        targets = sorted(c.tasks) + ["ghost", 5, ["t0"]]
        new_tasks, new_edges = sorted(c.tasks)[:1] + ["n0"], sorted(c.edges)[:1] + ["eN0"]
        edges = sorted(c.edges) + ["ghost", ["eN0"]]
        task_patches, edge_patches = BAD_TASK_PATCHES, BAD_EDGE_PATCHES
    else:
        targets = pending or ["n0"]
        new_tasks, new_edges = ["n0", "n1"], ["eN0", "eN1"]
        edges = sorted(e.id for e in c.edges.values() if e.to_task in pending) or ["eN0"]
        task_patches, edge_patches = GOOD_TASK_PATCHES, GOOD_EDGE_PATCHES
    kind = rng.randrange(7)
    if kind == 0:
        spec = {"id": pick(new_tasks), "device": "dev0"}
        if wrong:
            spec.update(pick([{"device": 7}, {"tips": 5}, {"status": "COMPLETED"}]))
        return AddTask(spec)
    if kind == 1:
        return RemoveTask(pick(targets))
    if kind == 2:
        return UpdateTask(pick(targets), pick(task_patches))
    if kind == 3:
        from_task, to_task = pick(targets), pick(targets)
        if wrong and c.edges:
            edge = c.edges[pick(sorted(c.edges))]
            from_task, to_task = pick(
                [(edge.to_task, edge.from_task), (edge.from_task, edge.to_task), (to_task, to_task)]
            )
        return AddDependency({"id": pick(new_edges), "from_task": from_task, "to_task": to_task})
    if kind == 4:
        return RemoveDependency(pick(edges))
    if kind == 5:
        return UpdateDependency(pick(edges), pick(edge_patches))
    tasks = [{"id": task_id, "device": "dev0"} for task_id in ("n0", "n1")]
    return BuildConstellation({"tasks": 5 if wrong else tasks})


def assert_index_matches_scan(c):
    endpoints = {*c.tasks, *(t for e in c.edges.values() for t in (e.from_task, e.to_task))}
    for task_id in endpoints:
        assert c.incoming(task_id) == scanned_incoming(c, task_id), task_id


def records(c):
    return [*c.tasks.items(), *c.edges.items()]


class TestHostileDeltas:
    """A planner that keeps sending invalid deltas: each delta either commits
    a valid, locality-clean graph one version up, or raises a
    ``ConstellationError``; the pre-state keeps its very records."""

    def test_each_delta_commits_a_valid_graph_or_raises_a_constellation_error(self):
        outcomes = {"committed": 0, "refused": 0}
        for seed in range(1000):
            rng = random.Random(seed)
            pre = hostile_graph(rng)
            ops = [hostile_op(rng, pre) for _ in range(rng.randint(1, 4))]
            before, before_records = serialize(pre), records(pre)
            if seed % 2:
                assert_index_matches_scan(pre)  # built before the delta's clone shares it
            try:
                post, _ = apply_delta(pre, EditDelta(ops))
            except ConstellationError:
                outcomes["refused"] += 1
            else:
                outcomes["committed"] += 1
                assert post.validate() == [], (seed, ops)
                assert edit_locality_violations(pre, post) == [], (seed, ops)
                assert post.version == pre.version + 1
                assert deserialize(serialize(post)).structurally_equal(post), (seed, ops)
                assert_index_matches_scan(post)
            assert serialize(pre) == before, (seed, ops)
            after_records = records(pre)
            assert len(after_records) == len(before_records), (seed, ops)
            for (key, record), (key_after, record_after) in zip(before_records, after_records):
                assert key == key_after and record is record_after, (seed, ops)
            assert_index_matches_scan(pre)
        assert min(outcomes.values()) >= 150, outcomes
