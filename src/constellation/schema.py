"""The one judge of each kind of document the program reads: the scenario and
script files, every constellation document, build config, entry and patch,
and every AIP frame.

Each JSON Schema packaged under ``constellation/schemas/`` is compiled on
first use, as fastjsonschema does, into the straight-line Python source of one
check, ``exec``-ed once: no call per value visited. A check may judge the
whole document or one of its ``$defs``. Only the keywords those schemas use
compile, so no schema says more than is checked: ``type`` (a name or a list),
``enum`` and ``const`` (of strings), ``minLength``, ``pattern``, ``minimum``,
``maximum``, ``exclusiveMinimum``, ``properties``, ``required``,
``additionalProperties``, ``items``, ``minItems``, ``maxItems``, ``allOf``,
``if``/``then`` (an ``if`` may only test ``required`` and properties against a
``const``) and ``$ref`` into ``$defs``. As in JSON Schema 2020-12, a keyword
applies only to values of its own kind, booleans are not numbers and an
integral float such as ``1.0`` is an integer; as in JSON, a number is
finite. A check refuses at the first fault: of an object, its fields in the
schema's order, then unknown fields, then what ``$ref``, ``allOf`` and
``if``/``then`` add.

A check also parses what it accepts (parse, don't validate) and returns it.
An object schema naming a ``record`` (``TaskStar``, ``TaskStarLine`` or
``AipMessage``) returns that record, built by the function ``RECORDS`` holds
under its name from the object's fields, passed by name, a field it omits
as its property's ``default``, or None where that states none; ``default``
may appear only there. An array of records is returned as a list of them,
and an object holding records as a copy with those fields replaced; any
other value is returned as it is. A record may be reached through
``properties``, ``items`` and ``$ref`` only. ``jsonschema`` ignores both
keywords, so they change no verdict. What JSON Schema cannot state stays in
the builder: a task's name defaulting to its id, enum strings becoming
members, ``tips`` becoming a tuple.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

from .errors import ParseError

SCHEMAS_DIR = Path(__file__).resolve().parent / "schemas"

# The builder of each record a schema may name (``record``), by name: it takes
# an object's fields as keywords and makes the conversions JSON Schema cannot
# state. The modules that own the records fill it as they are imported.
RECORDS: Dict[str, Callable[..., Any]] = {}

_KEYWORDS = {"$schema", "$id", "$defs", "$ref", "title", "type", "enum", "const", "minLength", "pattern",
             "minimum", "maximum", "exclusiveMinimum", "properties", "required", "additionalProperties", "items",
             "minItems", "maxItems", "allOf", "if", "then", "record"}
# Each JSON type's test of a value ``{v}``: a number or integer is never a
# ``bool``, an integer that is a float is integral, and a number is finite,
# as JSON has no NaN or Infinity (``{v} - {v}`` is NaN for just those).
_TESTS = {
    "object": "isinstance({v}, dict)", "array": "isinstance({v}, list)", "string": "isinstance({v}, str)",
    "boolean": "isinstance({v}, bool)", "null": "{v} is None",
    "number": "isinstance({v}, (int, float)) and {v}.__class__ is not bool and {v} - {v} == 0",
    "integer": "(isinstance({v}, int) and {v}.__class__ is not bool or isinstance({v}, float) and {v}.is_integer())",
}


def _where(path: Tuple[Union[str, int], ...]) -> str:
    return ".".join(map(str, path)) or "the document"


class Refusal(ValueError):
    """What a check raises: the JSON ``path`` of the value its schema refuses,
    and the ``reason``. Its text names the path."""

    def __init__(self, path: Tuple[Union[str, int], ...], reason: str, *got: Any, text: str = ""):
        reason += "".join(f", got {value!r}" for value in got)
        super().__init__(text or f"{_where(path)} {reason}")
        self.path, self.reason = path, reason


class UnknownFields(Refusal):
    """The refusal of an object's fields that its schema does not name."""


def _unknown(path: Tuple[Union[str, int], ...], value: Dict[Any, Any], known: frozenset) -> Refusal:
    # A dict built in Python may have keys of mixed types, which do not sort.
    names = sorted(map(str, value.keys() - known))
    fields = f"unknown field(s) {', '.join(_where(path + (name,)) for name in names)}"
    return UnknownFields(path, fields, text=fields)


def _checked(keys: Any, known: Any, where: str = "") -> None:
    if keys - known:
        raise ValueError(f"unknown schema keyword(s) {', '.join(sorted(keys - known))}{where}")


def _strings(values: List[Any], keyword: str) -> List[str]:
    if all(isinstance(value, str) for value in values):
        return values
    raise ValueError(f"{keyword} values must be strings")  # ``==`` would match true to 1


class _Source:
    """The statements of one schema's check, and the values they name. A
    check of an object reads each of its fields into a variable; a field that
    is required and checked is ``bound``, name to variable and JSON types, for
    the keywords that judge the object again (``$ref``, ``allOf``, ``if``)."""

    def __init__(self, root: Dict[str, Any]):
        self.root, self.names = root, {"Refusal": Refusal, "_unknown": _unknown}

    def name(self, prefix: str, value: Any = None) -> str:  # of ``value``, or of a variable
        name = f"{prefix}{len(self.names)}"
        self.names[name] = value
        return name

    def block(self, schema: Dict[str, Any], v: str, path: Tuple[str, ...], known=(), bound=None) -> Tuple[List[str], str]:
        """What raises ``Refusal`` if ``schema`` refuses the value ``v``,
        known to be of the JSON types ``known``, at ``path`` (source terms),
        and the variable that then holds the value parsed, or ``""`` where
        that is ``v`` itself."""
        _checked(schema.keys(), _KEYWORDS)
        kinds = schema.get("type", known)
        kinds, bound, lines = [kinds] if isinstance(kinds, str) else list(kinds), dict(bound or {}), []
        record, parsed = schema.get("record"), ""

        def fail(reason: str, got: str = "", at: Tuple[str, ...] = path) -> str:
            return f"    raise Refusal(({''.join(term + ', ' for term in at)}), {reason!r}{', ' + got if got else ''})"

        def of_kind(kind: str, body: List[str]) -> List[str]:
            """``body``, run for a value of the JSON type ``kind`` only."""
            if not body or kinds and set(kinds) <= {kind, "integer" if kind == "number" else kind}:
                return body
            return [f"if {_TESTS[kind].format(v=v)}:", *("    " + line for line in body)]

        def only(judged: Tuple[List[str], str], where: str) -> List[str]:
            if judged[1]:
                raise ValueError(f"a record may only be named through properties, items and $ref, not {where}")
            return judged[0]

        if record is not None and kinds != ["object"]:
            raise ValueError(f"record {record} must be of type object")
        if "type" in schema:
            said = " or ".join(f"{'an' if kind in ('object', 'array', 'integer') else 'a'} {kind}" for kind in kinds)
            lines += [f"if not ({' or '.join(_TESTS[kind].format(v=v) for kind in kinds)}):", fail(f"must be {said}", v)]
        for keyword, options in (("const", [schema.get("const")]), ("enum", schema.get("enum"))):
            if keyword in schema:
                said = ", ".join(_strings(options, keyword))
                said = f"one of {said}" if keyword == "enum" else said
                allowed = self.name("options", frozenset(options))
                lines += [f"if not (isinstance({v}, str) and {v} in {allowed}):", fail(f"must be {said}", v)]
        text = []
        if "minLength" in schema:
            text += [f"if len({v}) < {schema['minLength']}:", fail(f"must have at least {schema['minLength']} character(s)", v)]
        if "pattern" in schema:
            regex = self.name("pattern", re.compile(schema["pattern"]))
            text += [f"if {regex}.search({v}) is None:", fail(f"must match {schema['pattern']!r}", v)]
        lines += of_kind("string", text)
        numeric = []
        for keyword, op, said in (("minimum", "<", ">="), ("maximum", ">", "<="), ("exclusiveMinimum", "<=", ">")):
            if keyword in schema:
                numeric += [f"if {v} {op} {schema[keyword]!r}:", fail(f"must be {said} {schema[keyword]}", v)]
        lines += of_kind("number", numeric)

        # A record's fields, by name, each the variable of its parsed value;
        # an object without a record copies itself where a field parses.
        fields, properties, required = [], schema.get("properties", {}), schema.get("required", ())
        values: Dict[str, str] = {}
        for name in [*properties, *(name for name in required if name not in properties)]:
            sub, at = properties.get(name, {}), path + (repr(name),)
            if record is not None:
                default = self.name("default", sub.get("default"))  # None where the schema states none
                sub = {key: value for key, value in sub.items() if key != "default"}
            if name in bound:
                fields += only(self.block(sub, bound[name][0], at, bound[name][1]), "a field judged again")
                values[name] = bound[name][0]
                continue
            item = self.name("v")
            check, value = self.block(sub, item, at)
            if check or record is not None:
                fields += [f"if {name!r} in {v}:", f"    {item} = {v}[{name!r}]", *("    " + line for line in check)]
                if value and record is None:
                    parsed = parsed or self.name("r")
                    fields.append(f"    {parsed}[{name!r}] = {value}")
                values[name] = value or item
            if name in required:
                fields += ["else:" if check or record is not None else f"if {name!r} not in {v}:", fail("is required", at=at)]
                if check and kinds == ["object"]:
                    bound[name] = (item, sub.get("type", ()))
            elif record is not None:
                fields += ["else:", f"    {values[name]} = {default}"]
        if parsed:
            if kinds != ["object"]:
                raise ValueError("an object holding records must be of type object")
            fields.insert(0, f"{parsed} = dict({v})")
        additional = schema.get("additionalProperties", True)
        names = self.name("names", frozenset(properties))
        if additional is False:
            fields += [f"if not {names}.issuperset({v}):", f"    raise _unknown(({''.join(t + ', ' for t in path)}), {v}, {names})"]
        elif additional is not True:
            key, item = self.name("k"), self.name("v")
            check = only(self.block(additional, item, path + (key,)), "additionalProperties")
            fields += [f"for {key}, {item} in {v}.items():", f"    if {key} not in {names}:", *("        " + line for line in check)]
        lines += of_kind("object", fields)

        items = []
        if schema.keys() & {"minItems", "maxItems"}:
            fewest, most = schema.get("minItems", 0), schema.get("maxItems")
            span, too_many = (f"at least {fewest}", "") if most is None else (f"{fewest} to {most}", f" or len({v}) > {most}")
            items += [f"if len({v}) < {fewest}{too_many}:", fail(f"must have {span} items", f"len({v})")]
        if "items" in schema:
            index, item = self.name("i"), self.name("v")
            check, value = self.block(schema["items"], item, path + (index,))
            if value:
                if kinds != ["array"]:
                    raise ValueError("an array of records must be of type array")
                parsed = self.name("r")
                items += [f"{parsed} = []", f"for {index}, {item} in enumerate({v}):",
                          *("    " + line for line in check), f"    {parsed}.append({value})"]
            else:
                items += [f"for {index}, {item} in enumerate({v}):", *("    " + line for line in check)] if check else []
        lines += of_kind("array", items)

        # What follows judges the same value again, of the types now known.
        if "$ref" in schema:
            if not schema["$ref"].startswith("#/$defs/"):
                raise ValueError(f"$ref {schema['$ref']} does not point into $defs")
            check, value = self.block(self.root["$defs"][schema["$ref"][len("#/$defs/"):]], v, path, kinds, bound)
            if value and (parsed or record is not None):
                raise ValueError("a value may be parsed to one record only")
            lines, parsed = lines + check, value or parsed
        for sub in schema.get("allOf", ()):
            lines += only(self.block(sub, v, path, kinds, bound), "allOf")
        if "if" in schema:
            test, then = self.test(schema["if"], v, kinds, bound), only(self.block(schema.get("then", {}), v, path, kinds, bound), "then")
            lines += [f"if {test}:", *("    " + line for line in then)] if then else []
        if record is not None:
            if record not in RECORDS:
                raise ValueError(f"no record {record} is known")
            build, parsed = self.name("record", RECORDS[record]), self.name("r")
            lines.append(f"{parsed} = {build}({', '.join(f'{name}={value}' for name, value in values.items())})")
        return lines, parsed

    def test(self, schema: Dict[str, Any], v: str, kinds: List[str], bound: Dict[str, Any]) -> str:
        """An expression, true where the ``if`` schema ``schema`` accepts the
        value ``v``: an ``if`` may only test that properties are present
        (``required``) and properties against a ``const``."""
        _checked(schema.keys(), {"properties", "required"}, " in an if")
        required, properties = schema.get("required", ()), schema.get("properties", {})
        terms = [f"{name!r} in {v}" for name in required if name not in bound and name not in properties]
        for name, sub in properties.items():
            _checked(sub.keys(), {"const"}, " in an if")
            const = _strings([sub["const"]], "const")[0]
            absent = "" if name in required else f", {const!r}"  # an optional field's test is true where it is absent
            value = bound[name][0] if name in bound else f"{v}.get({name!r}{absent})"
            terms.append(f"{value} == {const!r}")
        if not terms:
            return "True"
        # true, as every keyword of an ``if`` is, where ``v`` is not an object
        return " and ".join(terms) if kinds == ["object"] else f"(not isinstance({v}, dict) or {' and '.join(terms)})"


def compile_schema(schema: Dict[str, Any], definition: str = "") -> Callable[[Any], Any]:
    """One check that refuses what ``schema``, or its ``$defs`` entry
    ``definition``, refuses, raising ``Refusal``, and returns the value it
    accepts, parsed. Raises ``ValueError`` for a keyword this module does not
    know, or a record that ``RECORDS`` does not hold."""
    source = _Source(schema)
    body, parsed = source.block(schema["$defs"][definition] if definition else schema, "v", ())
    exec("\n".join(["def check(v):", *("    " + line for line in body), f"    return {parsed or 'v'}"]), source.names)
    return source.names["check"]


@lru_cache(maxsize=None)
def check_of(kind: str, definition: str = "") -> Callable[[Any], Any]:
    """The check of ``schemas/<kind>.schema.json``, or of its ``$defs`` entry
    ``definition``, compiled at first use."""
    return compile_schema(json.loads((SCHEMAS_DIR / f"{kind}.schema.json").read_text(encoding="utf-8")), definition)


def _finite(text: str) -> float:
    number = float(text)
    if number - number != 0:  # NaN for just NaN and the infinities (1e999), which JSON has not
        raise ValueError(f"{text} is not a JSON number")
    return number


_JSON = json.JSONDecoder(parse_constant=_finite, parse_float=_finite)  # of documents, deserialize and AIP frames


def _read_object(source: Union[str, Path, Dict[str, Any]], what: str) -> Dict[str, Any]:
    """The JSON object in the file at path ``source``, or ``source`` itself,
    not yet judged; a ``ParseError`` for an unreadable file, invalid JSON
    (what ``_JSON`` refuses) or a document that is not an object."""
    if isinstance(source, (str, Path)):
        try:
            doc = _JSON.decode(Path(source).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot load {what} {source}: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ParseError(f"cannot load {what} {source}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_document(source: Union[str, Path, Dict[str, Any]], kind: str) -> Dict[str, Any]:
    """The object ``_read_object`` reads, judged by
    ``schemas/<kind>.schema.json``: a refusal is a ``ParseError`` too."""
    what = kind.replace("_", " ")
    doc = _read_object(source, what)
    try:
        check_of(kind)(doc)
    except Refusal as exc:
        raise ParseError(f"bad {what} {'document' if doc is source else source}: {exc}") from exc
    return doc
