"""Serialization: canonical document layout, round trips, schema conformance."""

import json
import random

import jsonschema
import pytest

from constellation import (
    EventKind,
    FailureReason,
    Orchestrator,
    OrchestratorEvent,
    ParseError,
    ScriptedDispatcher,
    TaskStar,
    TaskStarLine,
    TaskStatus,
    ValidationFailed,
    VirtualClock,
    deserialize,
    from_document,
    serialize,
    to_document,
)
from constellation.aip.messages import AipMessage
from constellation.schema import read_document
from constellation.simnet.scenarios import run_scenario
from conftest import SCENARIOS_DIR, load_schema, random_dag

CONSTELLATION_SCHEMA = load_schema("constellation.schema.json")


class TestRoundTrip:
    def test_fig4_round_trip_is_identity(self, fig4):
        assert serialize(deserialize(serialize(fig4))) == serialize(fig4)

    def test_random_graphs_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            c = random_dag(rng)
            again = deserialize(serialize(c))
            assert serialize(again) == serialize(c)
            assert again.version == c.version

    def test_terminal_fields_survive(self, fig4):
        fig4.transition("A", TaskStatus.RUNNING)
        fig4.transition("A", TaskStatus.COMPLETED, result={"files": 3})
        doc = to_document(fig4)
        again = from_document(doc)
        assert again.tasks["A"].result == {"files": 3}
        assert again.tasks["A"].status is TaskStatus.COMPLETED


class TestDocumentLayout:
    def test_arrays_sorted_by_id(self, fig4):
        doc = to_document(fig4)
        assert [t["id"] for t in doc["tasks"]] == sorted(t["id"] for t in doc["tasks"])
        assert [e["id"] for e in doc["dependencies"]] == sorted(
            e["id"] for e in doc["dependencies"]
        )

    def test_derived_dependencies_field(self, fig4):
        doc = to_document(fig4)
        by_id = {t["id"]: t for t in doc["tasks"]}
        assert by_id["D"]["dependencies"] == ["eBD", "eCD"]
        assert by_id["A"]["dependencies"] == []

    def test_documents_conform_to_schema(self, fig4):
        jsonschema.validate(to_document(fig4), CONSTELLATION_SCHEMA)
        rng = random.Random(11)
        for _ in range(25):
            jsonschema.validate(to_document(random_dag(rng)), CONSTELLATION_SCHEMA)

    def test_shipped_fixtures_conform_to_schema(self):
        for name in ("fig4.json", "fault_constellation.json"):
            doc = json.loads((SCENARIOS_DIR / name).read_text(encoding="utf-8"))
            jsonschema.validate(doc, CONSTELLATION_SCHEMA)


class TestRejection:
    def test_invalid_json_is_parse_error(self):
        with pytest.raises(ParseError):
            deserialize("{not json")

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
    def test_a_number_json_has_not_is_a_parse_error(self, number, tmp_path):
        """One reader for every document: JSON has no NaN or Infinity, so
        neither ``deserialize`` nor ``read_document`` loads one, even in the
        untyped ``result`` of a COMPLETED task."""
        text = '{"tasks": [{"id": "A", "device": "d", "status": "COMPLETED", "result": %s}]}' % number
        with pytest.raises(ParseError, match="^invalid JSON: "):
            deserialize(text)
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ParseError, match="^cannot load constellation "):
            read_document(path, "constellation")

    def test_a_non_finite_result_is_not_written(self):
        """A result that reached a graph without a document, such as an
        executor's, is not written as the ``Infinity`` that JSON has not."""
        c = from_document({"tasks": [{"id": "A", "device": "d", "status": "COMPLETED", "result": float("inf")}]})
        with pytest.raises(ValueError):
            serialize(c)

    def test_non_object_document_rejected(self):
        with pytest.raises(ParseError):
            from_document(["not", "an", "object"])

    def test_unknown_enum_rejected(self):
        with pytest.raises(ParseError):
            from_document(
                {"tasks": [{"id": "A", "device": "d", "status": "SLEEPING"}]}
            )

    @pytest.mark.parametrize(
        "doc", [{"tasks": 5}, {"dependencies": "ab"}, {"dependencies": {}}, {"request": 5}]
    )
    def test_top_level_fields_must_have_their_types(self, doc):
        with pytest.raises(ParseError):
            from_document(doc)

    @pytest.mark.parametrize("version", ["x", "3", -1, 1.5, True, None])
    def test_version_must_be_a_non_negative_integer(self, version):
        with pytest.raises(ParseError):
            from_document({"version": version, "tasks": [{"id": "A", "device": "d"}]})

    @pytest.mark.parametrize("schema_version", [0, 2, 99, "1", True, None, [1]])
    def test_schema_version_other_than_one_rejected(self, schema_version):
        with pytest.raises(ParseError, match="schema_version"):
            from_document({"schema_version": schema_version, "tasks": [{"id": "A", "device": "d"}]})

    def test_schema_version_one_or_absent_accepted(self):
        for doc in ({"schema_version": 1}, {}):
            assert from_document({**doc, "tasks": [{"id": "A", "device": "d"}]}).tasks["A"]

    def test_cyclic_document_rejected_with_violations(self):
        doc = {
            "tasks": [{"id": "A", "device": "d"}, {"id": "B", "device": "d"}],
            "dependencies": [
                {"id": "e1", "from_task": "A", "to_task": "B"},
                {"id": "e2", "from_task": "B", "to_task": "A"},
            ],
        }
        with pytest.raises(ValidationFailed) as err:
            from_document(doc)
        assert any(v.kind == "CycleIntroduced" for v in err.value.violations)

    def test_duplicate_ids_rejected(self):
        doc = {"tasks": [{"id": "A", "device": "d"}, {"id": "A", "device": "d"}]}
        with pytest.raises(ValidationFailed):
            from_document(doc)

    @pytest.mark.parametrize("status", ["PENDING", "RUNNING", "COMPLETED", None])
    def test_failure_reason_needs_a_failed_task(self, status):
        task = {"id": "B", "device": "d", "failure_reason": "TIMEOUT"}
        if status is not None:
            task["status"] = status
        with pytest.raises(ParseError, match="tasks.0.status"):
            from_document({"tasks": [task]})
        assert not jsonschema.Draft202012Validator(CONSTELLATION_SCHEMA).is_valid({"tasks": [task]})

    def test_failure_reason_on_a_failed_task_accepted(self):
        task = {"id": "B", "device": "d", "status": "FAILED", "failure_reason": "TIMEOUT"}
        assert from_document({"tasks": [task]}).tasks["B"].failure_reason is FailureReason.TIMEOUT

    @pytest.mark.parametrize(
        "listed, mismatched",
        [
            (["eAB"], False),
            (["eAB", "eAB"], False),
            ([], True),
            (["ghost"], True),
            (["eAB", "ghost"], True),
        ],
    )
    def test_dependencies_list_must_name_the_incoming_edges(self, listed, mismatched):
        """A task's derived ``dependencies``, taken as a set, must be its
        incoming edge ids; a task that omits the list is not checked."""
        doc = {
            "tasks": [
                {"id": "A", "device": "d", "dependencies": []},
                {"id": "B", "device": "d", "dependencies": listed},
            ],
            "dependencies": [{"id": "eAB", "from_task": "A", "to_task": "B"}],
        }
        if not mismatched:
            assert from_document(doc).dependencies_of("B") == ["eAB"]
            return
        with pytest.raises(ValidationFailed) as err:
            from_document(doc)
        [violation] = err.value.violations
        assert violation.kind == "DependencyMismatch"
        assert violation.detail == f"task 'B' lists {sorted(set(listed))}, its incoming edges are ['eAB']"


RECORD_TYPES = (TaskStar, TaskStarLine, OrchestratorEvent, AipMessage)


def records_in(value, path="$"):
    """The paths of every record in a JSON-bound value: ``json`` would write
    a record, a named tuple, as a list."""
    if isinstance(value, RECORD_TYPES):
        return [path]
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in records_in(item, f"{path}.{key}")]
    if isinstance(value, (list, tuple)):
        return [p for index, item in enumerate(value) for p in records_in(item, f"{path}[{index}]")]
    return []


class TestNoRecordReachesJson:
    """Records are named tuples, so each must become a JSON object before it
    reaches ``json``: no report, document or session log holds one."""

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_scenario_outputs_hold_no_record(self, scenario):
        result = run_scenario(scenario, 0)
        assert records_in(result.report.as_dict()) == []
        assert records_in(result.session_logs) == []
        assert result.session_logs and all(result.session_logs.values())

    def test_layered_bulk_run_holds_no_record(self):
        from test_fingerprints import _workloads_module

        workloads = _workloads_module()
        layered = workloads.layered_dag(100, random.Random(1))
        clock = VirtualClock()
        dispatcher = ScriptedDispatcher(clock, default_duration=workloads.TASK_SECONDS)
        orchestrator = Orchestrator(clock, workloads.BulkPlanner(layered.config), dispatcher)
        report = orchestrator.run()
        assert len(report.final_document["tasks"]) == 100
        assert records_in(report.as_dict()) == []
        assert records_in(to_document(orchestrator.constellation)) == []

    def test_the_walk_finds_a_record(self):
        event = OrchestratorEvent(EventKind.TASK_STARTED, "A", 0.0, {})
        assert records_in({"events": [{"x": event}], "task": TaskStar("A", "d")}) == [
            "$.events[0].x",
            "$.task",
        ]
