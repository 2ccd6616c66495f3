"""The schema judge: the compiled runtime schemas accept and refuse exactly
what ``jsonschema`` does, and every loader is judged by its schema."""

import random
import re
from collections import Counter

import jsonschema
import pytest

from constellation.agent.executor import ScriptedExecutor
from constellation.agent.reasoner import ScriptedReasoner
from constellation.errors import ParseError
from constellation.planner import load_script
from constellation.schema import compile_schema, read_document
from constellation.simnet.scenarios import load_scenario
from conftest import SCENARIOS_DIR, load_json, load_schema, mutated

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
        {"allOf": [{"if": {"required": ["a"]}, "then": {}}]},
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


def test_an_integral_float_is_an_integer():
    assert ScriptedExecutor.load({"table": [{"status": 1.0}]}).table == [{"status": 1.0}]
    scenario = load_scenario(1)
    scenario["id"] = 1.0
    assert load_scenario(scenario) is scenario
