"""Atomic batched edits: build, apply, rollback, locality, versioning."""

import pytest

from constellation import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    RemoveDependency,
    RemoveTask,
    TaskConstellation,
    TaskStatus,
    UpdateDependency,
    UpdateTask,
    ValidationFailed,
    apply_delta,
    build_constellation,
    from_document,
)
from constellation.edits import delta_from_doc, op_from_doc
from constellation.errors import IllegalField, ImmutableTask, ParseError

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
        with pytest.raises(ImmutableTask):
            apply_delta(base, EditDelta([BuildConstellation({"tasks": []})]))

    def test_build_op_replaces_the_graph(self):
        base = build_constellation(FIG4_CONFIG)
        post, summary = apply_delta(
            base, EditDelta([BuildConstellation({"tasks": [{"id": "F", "device": "d"}]})])
        )
        assert set(post.tasks) == {"F"} and not post.edges
        assert post.request == "fig4" and post.version == base.version + 1
        assert summary.added_tasks == 1 and summary.added_dependencies == 0

    def test_layered_build_runs_one_cycle_check(self, monkeypatch):
        """A bulk build inserts every entry, then validates once: one Kahn
        pass, not one per edge."""
        calls = []
        find_cycle = TaskConstellation._find_cycle

        def counted(self):
            calls.append(1)
            return find_cycle(self)

        monkeypatch.setattr(TaskConstellation, "_find_cycle", counted)
        config = layered_config(100, width=10, fan_in=2)
        built = build_constellation(config)
        assert (len(built.tasks), len(built.edges)) == (100, 180)
        assert len(calls) == 1


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
        # Bypass the per-op guards to prove the diff-based check also fires.
        class SmuggledEdit:
            pass

        def smuggle(working):
            working.tasks["A"].description = "tampered"

        delta = EditDelta([UpdateTask("B", {"description": "fine"})])
        post_pre_tamper, _ = apply_delta(c, delta)
        tampered = c.clone()
        smuggle(tampered)
        from constellation.edits import edit_locality_violations

        violations = edit_locality_violations(c, tampered)
        assert [v.kind for v in violations] == ["ImmutableTask"]
        assert post_pre_tamper.tasks["A"].description != "tampered"

    def test_removing_terminal_task_rejected(self):
        c = build_constellation(FIG4_CONFIG)
        c.transition("A", TaskStatus.RUNNING)
        c.transition("A", TaskStatus.COMPLETED, result="ok")
        with pytest.raises(ImmutableTask):
            apply_delta(c, EditDelta([RemoveTask("A")]))

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


def layered_config(size, width, fan_in):
    """Layers of ``width`` tasks; each task outside the first depends on the
    first ``fan_in`` tasks of the layer before it."""
    ids = [f"t{i:03d}" for i in range(size)]
    layers = [ids[i : i + width] for i in range(0, size, width)]
    return {
        "request": f"layered build of {size} tasks",
        "tasks": [{"id": tid, "device": "dev0"} for tid in ids],
        "dependencies": [
            {"id": f"{up}>{tid}", "from_task": up, "to_task": tid}
            for upper, layer in zip(layers, layers[1:])
            for tid in layer
            for up in upper[:fan_in]
        ],
    }


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
        ],
    )
    def test_same_malformed_entry_same_error(self, path, kind, entry, error):
        with pytest.raises(error):
            path(kind, entry)

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
