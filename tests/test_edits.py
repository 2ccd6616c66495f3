"""Atomic batched edits: build, apply, rollback, locality, versioning."""

import random
from typing import List, Set, Tuple

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
    Violation,
    apply_delta,
    build_constellation,
    deserialize,
    from_document,
    serialize,
)
from constellation import edits, serial
from constellation.edits import delta_from_doc, edit_locality_violations, op_from_doc
from constellation.model import CONDITIONS, DependencyKind, from_entries, insert_entries
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
        """A bulk build and a delta holding one build op insert everything,
        then judge the graph once, not once per edge: both with one
        ``validate`` call, a linear pass over the whole graph, neither with
        the heap Kahn of ``topological_order`` nor a search from every edge
        target. A delta of many edges into a valid graph is searched once
        from the edges it added, with no pass over the whole graph."""
        config = layered_config(100, width=10, fan_in=2)
        calls = []

        def counted(name):
            search = getattr(TaskConstellation, name)

            def wrapper(self, *args):
                calls.append(name)
                return search(self, *args)

            return wrapper

        kahn, whole, downstream = "topological_order", "validate", "_cycle_downstream_of"
        for prepare, edges, searches in (
            (by_build, 180, [whole]),
            (by_build_op, 180, [whole]),
            (by_edge_ops, 20, [downstream]),
        ):
            run = prepare(config)
            calls.clear()
            with monkeypatch.context() as patch:
                for name in (kahn, whole, downstream):
                    patch.setattr(TaskConstellation, name, counted(name))
                built = run()
            assert (len(built.tasks), len(built.edges)) == (100, edges)
            assert calls == searches, prepare.__name__


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

    def test_many_edges_are_searched_for_cycles_once(self, monkeypatch):
        """One forward search from all added edges' targets, not one per
        edge, so an edge-only delta costs about what one Kahn pass does."""
        config = layered_config(100, width=10, fan_in=2)
        base = build_constellation({"tasks": config["tasks"]})
        calls = []
        search = TaskConstellation._cycle_downstream_of

        def counted(self, starts):
            calls.append(len(starts))
            return search(self, starts)

        monkeypatch.setattr(TaskConstellation, "_cycle_downstream_of", counted)
        post, _ = apply_delta(base, EditDelta([AddDependency(e) for e in config["dependencies"]]))
        assert len(post.edges) == 180 and calls == [90]

    def test_small_delta_on_a_large_graph_runs_no_whole_graph_check(self, monkeypatch):
        c = build_constellation(layered_config(2000, width=10, fan_in=2))

        def refuse(self):
            raise AssertionError("whole-graph check on a small delta")

        monkeypatch.setattr(TaskConstellation, "validate", refuse)
        monkeypatch.setattr(TaskConstellation, "topological_order", refuse)
        delta = EditDelta(
            [
                AddTask({"id": "new", "device": "dev0"}),
                AddDependency({"id": "t1990>new", "from_task": "t1990", "to_task": "new"}),
                AddDependency({"id": "t005>new", "from_task": "t005", "to_task": "new"}),
            ]
        )
        post, _ = apply_delta(c, delta)
        assert [e.id for e in post.incoming("new")] == ["t005>new", "t1990>new"]
        assert post.version == c.version + 1

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
            ("task", {"id": "C"}, ParseError),
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
            "task-missing-device",
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
    assert set(c._incoming) == {e.to_task for e in c.edges.values()}


def assert_outgoing_matches_scan(c):
    scanned = {}
    for edge_id, edge in c.edges.items():
        scanned.setdefault(edge.from_task, []).append(edge_id)
    assert {task: sorted(ids) for task, ids in c._outgoing.items()} == {
        task: sorted(ids) for task, ids in scanned.items()
    }


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
            assert_index_matches_scan(pre)
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
                assert_outgoing_matches_scan(post)
            assert serialize(pre) == before, (seed, ops)
            after_records = records(pre)
            assert len(after_records) == len(before_records), (seed, ops)
            for (key, record), (key_after, record_after) in zip(before_records, after_records):
                assert key == key_after and record is record_after, (seed, ops)
            assert_index_matches_scan(pre)
            assert_outgoing_matches_scan(pre)
        assert min(outcomes.values()) >= 150, outcomes


def reshaping_ops(rng, c):
    """Ops that reuse ids or endpoints within one delta: a task removed and
    added back, an edge removed and added back (perhaps reversed), or an
    edge added (perhaps a self-loop) and then one of its endpoints removed."""
    tasks = sorted(c.tasks)
    kind = rng.randrange(3)
    if kind == 0:
        task_id = rng.choice(tasks)
        return [RemoveTask(task_id), AddTask({"id": task_id, "device": "dev1"})]
    if kind == 1 and c.edges:
        edge = c.edges[rng.choice(sorted(c.edges))]
        from_task, to_task = rng.choice(
            [(edge.from_task, edge.to_task), (edge.to_task, edge.from_task)]
        )
        spec = {"id": edge.id, "from_task": from_task, "to_task": to_task}
        return [RemoveDependency(edge.id), AddDependency(spec)]
    from_task, to_task = rng.choice(tasks), rng.choice(tasks)
    spec = {"id": "eR", "from_task": from_task, "to_task": to_task}
    return [AddDependency(spec), RemoveTask(rng.choice([from_task, to_task]))]


def whole_graph_locality(pre, post):
    """The full locality walk: every non-PENDING task of ``pre``, whatever
    the delta touched."""
    violations = []
    for task_id, task in sorted(pre.tasks.items()):
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
                Violation("ImmutableTask", f"incoming edges of non-PENDING task {task_id!r} changed")
            )
    return violations


def outcome(pre, ops):
    try:
        post, summary = apply_delta(pre, EditDelta(ops))
    except ConstellationError as exc:
        return type(exc).__name__, str(exc), [str(v) for v in getattr(exc, "violations", ())]
    assert_index_matches_scan(post)
    assert_outgoing_matches_scan(post)
    return "committed", serialize(post), summary.as_dict()


class TestIncrementalCheck:
    """A delta of edit ops is checked only where it replaced records; the
    whole-graph check (``validate`` plus the full locality walk) is the
    oracle it must agree with exactly."""

    def test_same_outcome_as_the_whole_graph_check(self, monkeypatch):
        outcomes = {}
        for seed in range(2000):
            rng = random.Random(seed)
            pre = hostile_graph(rng)
            ops = []
            for _ in range(rng.randint(1, 4)):
                ops += reshaping_ops(rng, pre) if rng.random() < 0.4 else [hostile_op(rng, pre)]
            got = outcome(pre, ops)
            with monkeypatch.context() as patch:
                patch.setattr(TaskConstellation, "_changes_valid", lambda self: False)
                patch.setattr(edits, "edit_locality_violations", whole_graph_locality)
                expected = outcome(pre, ops)
            assert got == expected, (seed, ops)
            assert_index_matches_scan(pre)
            assert_outgoing_matches_scan(pre)
            outcomes[got[0]] = outcomes.get(got[0], 0) + 1
        assert outcomes["committed"] >= 200 and outcomes["ValidationFailed"] >= 400, outcomes


def hostile_config(rng):
    """A build config, valid about half the time and otherwise wrong in one
    or more ways: a cycle, a self-loop, a dangling or parallel edge, an
    unknown condition, or a repeated task or dependency id."""
    ids = [f"t{i}" for i in range(rng.randint(1, 7))]
    tasks = [{"id": tid, "device": "dev0"} for tid in ids]
    if rng.random() < 0.1:
        tasks.append({"id": rng.choice(ids), "device": "dev1"})
    dependencies = []
    for k in range(rng.randint(0, 6)):
        from_task, to_task = sorted(rng.sample(ids, 2)) if len(ids) > 1 else (ids[0], ids[0])
        roll = rng.random()
        if roll < 0.05:
            to_task = from_task
        elif roll < 0.15:
            from_task, to_task = to_task, from_task
        elif roll < 0.2:
            to_task = "ghost"
        spec = {"id": f"e{k}", "from_task": from_task, "to_task": to_task}
        kind = rng.random()
        if kind < 0.2:
            spec["dep_type"] = "SUCCESS_ONLY"
        elif kind < 0.3:
            spec.update(dep_type="CONDITIONAL", condition_id=rng.choice(["always", "always", "never"]))
        if dependencies and rng.random() < 0.05:
            spec["id"] = rng.choice(dependencies)["id"]
        dependencies.append(spec)
    return {"request": "hostile build", "tasks": tasks, "dependencies": dependencies}


def recounted(c):
    """Readiness from scratch: ``edge_satisfied`` on every incoming edge of
    every PENDING task."""
    waiting = {
        task_id: sum(not c.edge_satisfied(edge) for edge in c.incoming(task_id))
        for task_id, task in c.tasks.items()
        if task.status is TaskStatus.PENDING
    }
    ready = {task_id for task_id, count in waiting.items() if not count}
    running = {task_id for task_id, task in c.tasks.items() if task.status is TaskStatus.RUNNING}
    return waiting, ready, running


def reference_validate(self):
    """The structure check written plainly: every edge in sorted id order,
    and the cycle found as the tasks the heap Kahn of ``topological_order``
    leaves out. The oracle the one-pass ``validate`` must agree with, list
    and order alike."""
    violations: List[Violation] = []
    duplicates: List[Violation] = []
    seen_pairs: Set[Tuple[str, str]] = set()
    for edge_id in sorted(self.edges):
        edge = self.edges[edge_id]
        for endpoint in (edge.from_task, edge.to_task):
            if endpoint not in self.tasks:
                violations.append(
                    Violation("DanglingEdge", f"edge {edge.id!r} references missing task {endpoint!r}")
                )
        if edge.from_task == edge.to_task:
            violations.append(Violation("SelfLoop", f"edge {edge.id!r} on {edge.from_task!r}"))
        condition_id = edge.dep_type.condition_id
        if edge.dep_type.kind is DependencyKind.CONDITIONAL and condition_id not in CONDITIONS:
            violations.append(
                Violation("UnknownCondition", f"edge {edge.id!r} names condition {condition_id!r}")
            )
        pair = (edge.from_task, edge.to_task)
        if pair in seen_pairs:
            duplicates.append(Violation("DuplicateEdge", f"multiple edges {pair[0]!r}->{pair[1]!r}"))
        seen_pairs.add(pair)
    violations.extend(duplicates)
    cycle = set(self.tasks).difference(self.topological_order())
    if cycle:
        violations.append(
            Violation("CycleIntroduced", f"cycle through {{{', '.join(sorted(cycle))}}}")
        )
    for task in sorted(self.tasks.values(), key=lambda t: t.id):
        if task.result is not None and not task.status.terminal:
            violations.append(
                Violation("StatusResult", f"task {task.id!r} has a result while {task.status.value}")
            )
    return violations


def faulty_document(rng):
    """A document of up to 8 tasks and 14 dependencies, entered in shuffled
    order under ids whose sorted order is not their numeric one, so the
    dict order of the graph is not its id order. Any mix of faults: a
    repeated id, a dangling edge, a self-loop, an unknown condition,
    parallel edges (often more than two per pair), a cycle, and a result on
    a task that is not terminal. Half of the documents have every edge run
    forward along one order of the tasks, so they hold no cycle."""
    ids = [f"t{n}" for n in rng.sample(range(20), rng.randint(1, 8))]
    tasks = [{"id": task_id, "device": "d", "status": rng.choice(list(TaskStatus)).value} for task_id in ids]
    for entry in tasks:
        if rng.random() < 0.1:
            entry["result"] = "r"
    if rng.random() < 0.1:
        tasks.append(dict(rng.choice(tasks)))
    rng.shuffle(tasks)
    forward = rng.random() < 0.5
    dependencies = []
    for n in rng.sample(range(40), rng.randint(0, 14)):
        from_task, to_task = rng.choice(ids), rng.choice(ids)
        if forward and ids.index(from_task) > ids.index(to_task):
            from_task, to_task = to_task, from_task
        roll = rng.random()
        if roll < 0.05:
            to_task = "ghost"
        elif roll < 0.1:
            from_task = rng.choice(["ghost", "phantom"])
        spec = {"id": f"e{n}", "from_task": from_task, "to_task": to_task}
        if rng.random() < 0.2:
            spec.update(dep_type="CONDITIONAL", condition_id=rng.choice(["always", "never"]))
        dependencies.append(spec)
    if dependencies and rng.random() < 0.1:
        dependencies.append(dict(rng.choice(dependencies)))
    return {"request": "faulty", "tasks": tasks, "dependencies": dependencies}


class TestReferenceValidate:
    """The one-pass ``validate`` and the region check of a delta against
    ``reference_validate``."""

    def test_validate_lists_what_the_reference_lists(self):
        kinds, clean = set(), 0
        for seed in range(2500):
            c, _ = insert_entries(faulty_document(random.Random(seed)), created=False)
            expected = reference_validate(c)
            assert c.validate() == expected, seed
            kinds.update(violation.kind for violation in expected)
            clean += not expected
        assert clean >= 150, clean
        assert kinds == {"CycleIntroduced", "SelfLoop", "DanglingEdge", "DuplicateEdge",
                         "UnknownCondition", "StatusResult"}, kinds

    def test_region_check_of_one_added_edge_agrees(self):
        """An edge added to a valid graph, between any two of its tasks or
        to a missing one, with any condition: the region check passes it
        exactly when the reference finds nothing in the whole graph."""
        outcomes = {True: 0, False: 0}
        for seed in range(2000):
            rng = random.Random(seed)
            post = random_dag(rng, max_nodes=7).clone()
            ids = sorted(post.tasks)
            spec = {"id": "added", "from_task": rng.choice(ids), "to_task": rng.choice(ids + ["ghost"])}
            if rng.random() < 0.2:
                spec.update(dep_type="CONDITIONAL", condition_id=rng.choice(["always", "never"]))
            post._add_dependency(spec)
            valid = post._changes_valid()
            assert valid == (reference_validate(post) == []), (seed, spec)
            outcomes[valid] += 1
        assert min(outcomes.values()) >= 400, outcomes


class TestOnePassCheck:
    """A build, by ``build_constellation`` or by a ``BuildConstellation`` op,
    is judged by one ``validate`` call; ``reference_validate`` is the oracle
    its violations must agree with exactly."""

    def test_build_raises_validates_violations_or_commits_counted(self):
        kinds, committed = set(), 0
        for seed in range(1500):
            rng = random.Random(seed)
            config = hostile_config(rng)
            inserted, repeated = insert_entries(config, created=True)
            expected = [str(v) for v in repeated + reference_validate(inserted)]
            try:
                built = build_constellation(config)
            except ValidationFailed as exc:
                assert [str(v) for v in exc.violations] == expected, seed
                kinds.update(v.kind for v in exc.violations)
                continue
            assert expected == [], seed
            assert (built._waiting, built._ready, built._running) == recounted(built), seed
            committed += 1
        assert committed >= 400, committed
        assert kinds == {"CycleIntroduced", "SelfLoop", "DanglingEdge", "DuplicateEdge",
                         "UnknownCondition", "DuplicateId"}, kinds

    def test_document_raises_validates_violations_or_loads_counted(self):
        """A document's tasks carry statuses and results, so readiness is
        counted over terminal upstreams too, and a result on a task that is
        not terminal is a violation."""
        kinds, loaded = set(), 0
        for seed in range(1500):
            rng = random.Random(seed)
            doc = hostile_config(rng)
            for entry in doc["tasks"]:
                entry["status"] = rng.choice(["PENDING", "RUNNING", "COMPLETED", "FAILED"])
                if rng.random() < (0.5 if entry["status"] == "COMPLETED" else 0.05):
                    entry["result"] = rng.choice(["ok", "done"])
            inserted, repeated = insert_entries(doc, created=False)
            expected = [str(v) for v in repeated + reference_validate(inserted)]
            try:
                c = from_entries(doc, created=False)
            except ValidationFailed as exc:
                assert [str(v) for v in exc.violations] == expected, seed
                kinds.update(v.kind for v in exc.violations)
                continue
            assert expected == [], seed
            assert (c._waiting, c._ready, c._running) == recounted(c), seed
            loaded += 1
        assert loaded >= 300, loaded
        assert "StatusResult" in kinds, kinds

    def test_build_op_has_the_outcome_of_the_whole_graph_check(self, monkeypatch):
        """Into the empty graph or into a graph holding RUNNING and terminal
        tasks, whose edit locality is listed with the structural faults."""
        kinds, committed = set(), 0
        for seed in range(1500):
            rng = random.Random(seed)
            pre = hostile_graph(rng) if rng.random() < 0.5 else TaskConstellation()
            ops = [BuildConstellation(hostile_config(rng))]
            got = outcome(pre, ops)
            with monkeypatch.context() as patch:
                patch.setattr(TaskConstellation, "validate", reference_validate)
                expected = outcome(pre, ops)
            assert got == expected, (seed, ops)
            if got[0] == "committed":
                post, _ = apply_delta(pre, EditDelta(ops))
                assert (post._waiting, post._ready, post._running) == recounted(post), seed
                committed += 1
            else:
                kinds.update(violation.split(":")[0] for violation in got[2])
        assert committed >= 200, committed
        assert "ImmutableTask" in kinds and "CycleIntroduced" in kinds, kinds
