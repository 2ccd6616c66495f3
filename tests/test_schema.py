"""The schema judge: the compiled runtime schemas accept and refuse exactly
what ``jsonschema`` does, and every loader, constellation documents, build
configs, entries and patches included, is judged by its schema."""

import copy
import functools
import json
import operator
import random
import re
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constellation import AddDependency, AddTask, EditDelta, UpdateTask, apply_delta, build_constellation, from_document
from constellation.agent.executor import ScriptedExecutor
from constellation.agent.reasoner import ScriptedReasoner
from constellation.aip.messages import AipMessage, MessageType, encode
from constellation.errors import ConstellationError, IllegalField, ParseError
from constellation.model import DependencyKind, FailureReason, TaskStar, TaskStarLine, TaskStatus
from constellation.planner import load_script
from constellation.schema import Refusal, check_of, compile_schema, read_document
from constellation.simnet.scenarios import load_scenario
from conftest import MUTANT_VALUES, SCENARIOS_DIR, load_json, load_schema, mutated
from test_aip import valid_messages

# Each runtime schema and the packaged files it judges.
PACKAGED = {
    "scenario": "scenario?.json",
    "planner_script": "*_planner.json",
    "reasoner_script": "*_reasoner.json",
    "executor_table": "*_executor.json",
}


def accepts(doc, kind):
    try:
        read_document(doc, kind)
    except ParseError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(PACKAGED))
def test_compiled_schema_agrees_with_jsonschema(kind):
    """A thousand documents mutated from the packaged files, one or two
    changes each: both judges accept and refuse the same ones."""
    validator = jsonschema.Draft202012Validator(load_schema(f"{kind}.schema.json"))
    originals = [load_json(path) for path in sorted(SCENARIOS_DIR.glob(PACKAGED[kind]))]
    assert originals and all(map(validator.is_valid, originals))
    rng = random.Random(kind)
    verdicts = Counter()
    for _ in range(1000):
        doc = rng.choice(originals)
        for _ in range(rng.randint(1, 2)):
            doc = mutated(doc, rng)
        verdict = validator.is_valid(doc)
        assert accepts(doc, kind) is verdict, doc
        verdicts[verdict] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "maxLength": 1},
        {"type": "object", "propertyNames": {"enum": ["a"]}},
        {"type": "array", "prefixItems": [{"type": "number"}]},
        {"properties": {"a": {"not": {"const": "b"}}}},
        {"items": {"anyOf": []}},
        {"additionalProperties": {"$dynamicRef": "#a"}},
        {"allOf": [{"if": {"minProperties": 1}, "then": {}}]},
        {"if": {"properties": {"a": {"type": "string"}}}, "then": {"required": ["a"]}},
        {"if": {"const": "a"}, "then": {"required": ["b"]}, "else": {}},
    ],
)
def test_compiler_refuses_a_keyword_it_does_not_know(schema):
    with pytest.raises(ValueError, match="unknown schema keyword"):
        compile_schema(schema)


@pytest.mark.parametrize(
    "schema, message",
    [
        ({"properties": {"a": {"const": 1}}}, "const values must be strings"),
        ({"enum": ["a", True]}, "enum values must be strings"),
        ({"$ref": "other.schema.json#/$defs/a"}, "does not point into \\$defs"),
    ],
)
def test_compiler_refuses_what_it_cannot_check(schema, message):
    with pytest.raises(ValueError, match=message):
        compile_schema(schema)


@pytest.mark.parametrize(
    "load, doc, field",
    [
        (load_script, {"strcit": False, "entries": []}, "strcit"),
        (ScriptedReasoner.load, {"entries": [{"when": {"step": 0}, "reslt": "x"}]}, "entries.0.reslt"),
        (ScriptedExecutor.load, {"table": [{"pattern": "*", "duraton": 3}]}, "table.0.duraton"),
    ],
    ids=["planner", "reasoner", "executor"],
)
def test_misspelt_key_is_a_parse_error(load, doc, field):
    with pytest.raises(ParseError, match=rf"document: unknown field\(s\) {re.escape(field)}$"):
        load(doc)


@pytest.mark.parametrize(
    "load, doc, message",
    [
        (ScriptedReasoner.load, {"entries": [{}, {"duration": -1}]}, "entries.1.duration must be >= 0, got -1"),
        (ScriptedExecutor.load, {"table": [{"status": 1.5}]}, "table.0.status must be an integer, got 1.5"),
        (load_script, {}, "entries is required"),
        (load_scenario, {"devices": {}}, "id is required"),
    ],
)
def test_refusal_names_the_json_path(load, doc, message):
    with pytest.raises(ParseError, match=f"document: {re.escape(message)}$"):
        load(doc)


@pytest.mark.parametrize("kind", ["number", "integer"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
def test_a_float_that_is_not_finite_is_not_a_json_number(kind, value):
    said = "an integer" if kind == "integer" else "a number"
    with pytest.raises(Refusal, match=f"^the document must be {said}, got {value!r}$"):
        compile_schema({"type": kind})(value)
    assert compile_schema({"type": [kind, "null"]})(None) is None


def test_an_integral_float_is_an_integer():
    assert ScriptedExecutor.load({"table": [{"status": 1.0}]}).table == [{"status": 1.0}]
    scenario = load_scenario(1)
    scenario["id"] = 1.0
    assert load_scenario(scenario) is scenario


# -- constellation documents, build configs, entries and patches -----------

CONSTELLATION = load_schema("constellation.schema.json")
FIG4 = load_json(SCENARIOS_DIR / "fig4.json")
CONDITIONAL_EDGE = {"id": "eAB", "from_task": "A", "to_task": "B", "dep_type": "CONDITIONAL", "condition_id": "always"}
EDITABLE = ("name", "description", "device", "tips")
CREATED_TASKS = [{key: task[key] for key in ("id", *EDITABLE)} for task in FIG4["tasks"]]
# Each shape of constellation.schema.json, "" for its root (a document), and
# values of it drawn from fig4.json.
SHAPES = {
    "": [FIG4, {**FIG4, "dependencies": FIG4["dependencies"] + [CONDITIONAL_EDGE]}],
    "build_config": [{"request": FIG4["request"], "tasks": CREATED_TASKS, "dependencies": FIG4["dependencies"]}],
    "task": FIG4["tasks"],
    "created_task": CREATED_TASKS,
    "dependency": FIG4["dependencies"] + [CONDITIONAL_EDGE],
    "task_patch": [{key: task[key] for key in EDITABLE} for task in FIG4["tasks"]],
    "dependency_patch": [{"dep_type": "CONDITIONAL", "condition_id": "always", "description": "if A"},
                         {"dep_type": "SUCCESS_ONLY"}],
}
SHAPE_VALUES = (*MUTANT_VALUES, "UNCONDITIONAL", "CONDITIONAL", "always", "COMPLETED", "TIMEOUT")


def shape_validator(shape):
    schema = {"$defs": CONSTELLATION["$defs"], "$ref": f"#/$defs/{shape}"} if shape else CONSTELLATION
    return jsonschema.Draft202012Validator(schema)


def refused_by_check(shape, value):
    try:
        check_of("constellation", shape)(value)
    except Refusal:
        return True
    return False


def refused_by_reader(shape, value):
    """Whether the program's path for a ``shape`` refuses ``value`` as
    malformed: a graph fault or a lookup error is not a refusal."""
    base = build_constellation({"tasks": CREATED_TASKS})
    read = {
        "": lambda: from_document(value),
        "build_config": lambda: build_constellation(value),
        "created_task": lambda: apply_delta(base, EditDelta([AddTask(value)])),
        "dependency": lambda: apply_delta(base, EditDelta([AddDependency(value)])),
        "task_patch": lambda: apply_delta(base, EditDelta([UpdateTask("A", value)])),
    }[shape]
    try:
        read()
    except (ParseError, IllegalField):
        return True
    except ConstellationError:
        pass
    return False


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_constellation_shapes_agree_with_jsonschema(shape):
    """A thousand values mutated from fig4.json, one or two changes each: the
    generated check and ``jsonschema`` accept and refuse the same ones, and so
    does the program's path for the shape, which judges by the check alone."""
    validator = shape_validator(shape)
    assert all(map(validator.is_valid, SHAPES[shape]))
    rng = random.Random(f"constellation:{shape}")
    verdicts = Counter()
    for _ in range(1000):
        value = rng.choice(SHAPES[shape])
        for _ in range(rng.randint(1, 2)):
            value = mutated(value, rng, SHAPE_VALUES)
        verdict = validator.is_valid(value)
        assert refused_by_check(shape, value) is not verdict, value
        # A task is read only within a document, and a patched dependency
        # is judged again as a dependency.
        if shape not in ("task", "dependency_patch"):
            assert refused_by_reader(shape, value) is not verdict, value
        verdicts[verdict] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


def fig4_variants():
    """fig4.json with each of its fields dropped, retyped to every other JSON
    type, or misspelt, one field at a time."""
    places = []

    def walk(node, path):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            places.append(path + (key,))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))

    walk(FIG4, ())
    for path in places:
        *parents, key = path
        for change in ("drop", "misspell", None, True, 2, 1.5, "x", [], {}):
            doc = copy.deepcopy(FIG4)
            parent = functools.reduce(operator.getitem, parents, doc)
            if change == "drop":
                del parent[key]
            elif change == "misspell" and isinstance(key, str):
                parent[key[1:] + key[0] + "x"] = parent.pop(key)
            elif change != "misspell":
                parent[key] = change
            else:
                continue
            yield path, change, doc


def test_every_fig4_field_dropped_retyped_or_misspelt():
    validator, verdicts = shape_validator(""), Counter()
    for path, change, doc in fig4_variants():
        verdict = validator.is_valid(doc)
        assert refused_by_check("", doc) is not verdict, (path, change)
        assert refused_by_reader("", doc) is not verdict, (path, change)
        verdicts[verdict] += 1
    assert verdicts[True] >= 50 and verdicts[False] >= 300, verdicts


@pytest.mark.parametrize(
    "read, value, error",
    [
        (from_document, {"tasks": [{"id": "A", "device": "d"}], "depedencies": []}, ParseError),
        (from_document, {"tasks": [{"id": "A", "device": "d", "dependencies": "not a list"}]}, ParseError),
        (from_document, {"tasks": [{"id": "A", "device": "d", "dependencies": [1, 2]}]}, ParseError),
        (build_constellation, {"schema_version": 42, "tasks": []}, ParseError),
        (build_constellation, {"tasks": [{"id": "A", "device": "d", "status": "PENDING"}]}, IllegalField),
        (from_document, {"dependencies": [{"id": "e", "from_task": "A", "to_task": "B",
                                           "dep_type": "UNCONDITIONAL", "condition_id": "always"}]}, ParseError),
        (from_document, {"dependencies": [{"id": "e", "from_task": "A", "to_task": "B",
                                           "condition_id": "always"}]}, ParseError),
        (from_document, {"version": 1.0}, None),
        (from_document, {"schema_version": 1}, None),
        (from_document, {"tasks": [{"id": "A", "device": "d"}], "dependencies": []}, None),
    ],
    ids=["misspelt-dependencies", "dependencies-not-a-list", "dependencies-not-strings",
         "config-schema_version", "config-status", "condition-on-unconditional", "condition-without-dep_type",
         "integral-float-version", "schema_version-one", "request-and-versions-omitted"],
)
def test_former_disagreements_have_one_verdict(read, value, error):
    """Where the reader and the schema disagreed, both now give one verdict."""
    shape = "" if read is from_document else "build_config"
    assert shape_validator(shape).is_valid(value) is (error is None)
    if error is None:  # an integral float version is read as an integer
        version = read(value).version
        assert version == value.get("version", 0) and type(version) is int
        return
    with pytest.raises(error):
        read(value)


def test_unknown_fields_of_mixed_key_types_are_named():
    check = compile_schema({"type": "object", "additionalProperties": False, "properties": {"id": {}}})
    with pytest.raises(Refusal, match=r"^unknown field\(s\) 5, colour$"):
        check({"id": "C", 5: "x", "colour": "red"})


@pytest.mark.parametrize(
    "value", [{}, {"a": "x"}, {"a": "x", "b": 1}, {"a": "y"}, {"b": 1}, [], "a"],
)
def test_an_if_may_test_that_a_field_is_present(value):
    """Without ``required`` in the ``if``, a missing optional field would pass
    its ``const`` test, and the ``then`` would demand ``b`` of ``{}``."""
    schema = {
        "properties": {"a": {"enum": ["x", "y"]}},
        "if": {"required": ["a"], "properties": {"a": {"const": "x"}}},
        "then": {"required": ["b"]},
    }
    try:
        compile_schema(schema)(value)
    except Refusal:
        accepted = False
    else:
        accepted = True
    assert accepted is jsonschema.Draft202012Validator(schema).is_valid(value)


@pytest.mark.parametrize("value", [{}, {"b": 1}, [], "a"])
def test_an_if_that_tests_nothing_always_holds(value):
    """An ``if`` with no term compiles to ``True``: its ``then`` judges every value."""
    schema = {"if": {}, "then": {"required": ["b"]}}
    try:
        compile_schema(schema)(value)
    except Refusal:
        accepted = False
    else:
        accepted = True
    assert accepted is jsonschema.Draft202012Validator(schema).is_valid(value)


# -- records: what a check returns -----------------------------------------


def reference_task(entry):
    """A task entry's record, built by hand from the judged entry: its name
    defaults to its id, and an absent status to PENDING."""
    task_id, status, reason = entry["id"], entry.get("status"), entry.get("failure_reason")
    return TaskStar(
        task_id, entry["device"], entry.get("name", task_id), entry.get("description", ""),
        tuple(entry.get("tips", ())), TaskStatus.PENDING if status is None else TaskStatus(status),
        entry.get("result"), None if reason is None else FailureReason(reason),
    )


def reference_edge(entry):
    """A dependency entry's record, built by hand: its type defaults to
    UNCONDITIONAL."""
    dep_type = DependencyKind(entry.get("dep_type", "UNCONDITIONAL"))
    return TaskStarLine(entry["id"], entry["from_task"], entry["to_task"], dep_type, entry.get("description", ""),
                        entry.get("condition_id"))


def reference_message(doc):
    return AipMessage(MessageType(doc["msg_type"]), doc["body"], doc.get("session_id"))


ids = st.text(min_size=1, max_size=4)
texts = st.text(max_size=4)


@st.composite
def task_entries(draw, created):
    entry = {"id": draw(ids), "device": draw(texts)}
    optional = {"name": texts, "description": texts, "tips": st.lists(texts, max_size=3)}
    if not created:
        optional.update(status=st.sampled_from([s.value for s in TaskStatus]), dependencies=st.lists(ids, max_size=3),
                        result=st.one_of(st.none(), st.integers(), texts, st.lists(st.integers(), max_size=2)))
    for name, values in optional.items():
        if draw(st.booleans()):
            entry[name] = draw(values)
    if entry.get("status") == "FAILED" and draw(st.booleans()):
        entry["failure_reason"] = draw(st.sampled_from([r.value for r in FailureReason]))
    return entry


@st.composite
def dependency_entries(draw):
    entry = {"id": draw(ids), "from_task": draw(ids), "to_task": draw(ids)}
    kind = draw(st.sampled_from([None, "UNCONDITIONAL", "SUCCESS_ONLY", "CONDITIONAL"]))
    if kind is not None:
        entry["dep_type"] = kind
    if kind == "CONDITIONAL":
        entry["condition_id"] = draw(ids)
    if draw(st.booleans()):
        entry["description"] = draw(texts)
    return entry


@settings(max_examples=200, deadline=None)
@given(created=st.lists(task_entries(True), max_size=4), tasks=st.lists(task_entries(False), max_size=4),
       edges=st.lists(dependency_entries(), max_size=4))
def test_checks_return_the_records_a_reference_builds(created, tasks, edges):
    """Over random valid entries, and documents and build configs of them:
    the generated check of each returns the records built by hand from the
    entry, defaults filled, and a copy of a document whose entries are
    records, leaving the document unchanged."""
    for shape, entries, reference in (("created_task", created, reference_task), ("task", tasks, reference_task),
                                      ("dependency", edges, reference_edge)):
        for entry in entries:
            record = check_of("constellation", shape)(entry)
            assert type(record) is type(reference(entry)) and record == reference(entry)
    for shape, doc in (("build_config", {"tasks": created, "dependencies": edges}),
                       ("", {"request": "r", "tasks": tasks, "dependencies": edges})):
        before = copy.deepcopy(doc)
        parsed = check_of("constellation", shape)(doc)
        assert doc == before and parsed is not doc
        assert parsed == {**doc, "tasks": [reference_task(entry) for entry in doc["tasks"]],
                          "dependencies": [reference_edge(entry) for entry in edges]}


@settings(max_examples=200, deadline=None)
@given(msg=valid_messages())
def test_the_frame_check_returns_the_message_a_reference_builds(msg):
    doc = json.loads(encode(msg)[4:].decode("utf-8"))
    parsed = check_of("aip_message")(doc)
    assert type(parsed) is AipMessage and parsed == reference_message(doc) and parsed.body is doc["body"]


def test_a_record_field_the_entry_omits_takes_its_schema_default():
    schema = {"$defs": {"edge": {
        "record": "TaskStarLine", "type": "object", "required": ["id"],
        "properties": {"id": {"type": "string"}, "from_task": {"default": "A"}, "to_task": {"default": "B"},
                       "dep_type": {"default": "SUCCESS_ONLY"}, "description": {}, "condition_id": {}},
    }}}
    edge = compile_schema(schema, "edge")({"id": "e", "description": "d"})
    assert edge == TaskStarLine("e", "A", "B", DependencyKind.SUCCESS_ONLY, "d")
    assert compile_schema(schema, "edge")({"id": "e"}).description is None


@pytest.mark.parametrize(
    "schema, message",
    [
        ({"record": "NoSuchRecord", "type": "object"}, "no record NoSuchRecord is known"),
        ({"record": "TaskStar", "type": ["object", "null"]}, "record TaskStar must be of type object"),
        ({"record": "TaskStar", "properties": {"id": {}}}, "record TaskStar must be of type object"),
        ({"properties": {"a": {"type": "string", "default": ""}}}, "unknown schema keyword\\(s\\) default"),
        ({"allOf": [{"$ref": "#/$defs/edge"}], "$defs": {"edge": {"record": "TaskStarLine", "type": "object"}}},
         "not allOf"),
        ({"items": {"$ref": "#/$defs/edge"}, "$defs": {"edge": {"record": "TaskStarLine", "type": "object"}}},
         "an array of records must be of type array"),
        ({"properties": {"e": {"$ref": "#/$defs/edge"}}, "$defs": {"edge": {"record": "TaskStarLine", "type": "object"}}},
         "an object holding records must be of type object"),
        ({"record": "TaskStar", "type": "object", "$ref": "#/$defs/edge",
          "$defs": {"edge": {"record": "TaskStarLine", "type": "object"}}}, "parsed to one record only"),
    ],
)
def test_compiler_refuses_a_record_it_cannot_build(schema, message):
    with pytest.raises(ValueError, match=message):
        compile_schema(schema)
