"""Serialization: canonical document layout, round trips, schema conformance."""

import json
import random

import jsonschema
import pytest

from constellation import (
    ParseError,
    TaskStatus,
    ValidationFailed,
    deserialize,
    from_document,
    serialize,
    to_document,
)
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
            assert c.structurally_equal(again)
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
