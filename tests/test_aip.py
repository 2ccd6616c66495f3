"""Protocol layer: message vocabulary, the device pool, liveness, backoff."""

import copy
import json
import math
import struct
from collections import Counter

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constellation import VirtualClock
from constellation.aip.endpoints import (
    ConstellationEndpoint,
    DeviceClientEndpoint,
    DeviceServerEndpoint,
)
from constellation.aip.messages import (
    AipMessage,
    MessageType,
    decode,
    encode,
)
from constellation.aip.liveness import HEARTBEAT_INTERVAL, MISSED_K, RECONNECT_BASE, reconnect_delay
from constellation.agent.executor import ScriptedExecutor
from constellation.agent.reasoner import ScriptedReasoner
from constellation.agent.server import AgentServer
from constellation.clock import TimerLane
from constellation.errors import SchemaViolation
from constellation.model import FailureReason, TaskStar, TaskStatus
from constellation.schema import check_of
from constellation.simnet.network import LinkSpec, SimNetwork
from conftest import MUTANT_VALUES, load_schema, mutated

import random

MESSAGE_SCHEMA = load_schema("aip_message.schema.json")

VALID_BODIES = {
    MessageType.REGISTER: {"client_id": "linux1", "metadata": {}},
    MessageType.TASK: {"task": {"id": "A"}, "request": "run it"},
    MessageType.COMMAND: {"actions": [], "response_id": "c1"},
    MessageType.COMMAND_RESULTS: {"action_results": [], "prev_response_id": "c1"},
    MessageType.TASK_END: {"status": "COMPLETED", "result": "ok"},
    MessageType.HEARTBEAT: {"timestamp": 12.5},
    MessageType.ERROR: {"error": "boom", "context": {}},
}
# The types whose frames belong to a session: each carries a session id.
SESSION_TYPES = {MessageType.TASK, MessageType.COMMAND, MessageType.COMMAND_RESULTS, MessageType.TASK_END}


class TestMessages:
    @pytest.mark.parametrize("msg_type", list(MessageType))
    def test_round_trip_every_type(self, msg_type):
        msg = AipMessage(msg_type, VALID_BODIES[msg_type], session_id="s1")
        assert decode(encode(msg)) == msg

    @pytest.mark.parametrize("msg_type", list(MessageType))
    def test_wire_payload_conforms_to_schema(self, msg_type):
        msg = AipMessage(msg_type, VALID_BODIES[msg_type], session_id="s1")
        payload = json.loads(encode(msg)[4:].decode("utf-8"))
        jsonschema.validate(payload, MESSAGE_SCHEMA)

    def test_the_frame_check_is_bound_at_the_first_frame(self):
        """After a frame, ``decode`` calls the compiled check itself, with no
        lookup in ``check_of``'s cache."""
        from constellation.aip import messages

        decode(encode(AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0})))
        assert messages._judge is check_of("aip_message")

    def test_length_prefix_is_big_endian_frame_length(self):
        frame = encode(AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0}))
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4

    @pytest.mark.parametrize(
        "msg_type,body",
        [
            (MessageType.REGISTER, {"metadata": {}}),
            (MessageType.TASK_END, {"status": "COMPLETED"}),  # missing result
            (MessageType.TASK_END, {"status": "FAILED"}),  # missing error
            (MessageType.TASK_END, {"status": "MAYBE", "result": "x"}),
            (MessageType.TASK_END, {"status": "FAILED", "error": "x", "failure_reason": "BOGUS"}),
            (MessageType.HEARTBEAT, {"timestamp": "yesterday"}),
            (MessageType.COMMAND, {"actions": []}),
        ],
    )
    def test_schema_violations_rejected(self, msg_type, body):
        with pytest.raises(SchemaViolation):
            decode(encode(AipMessage(msg_type, body)))

    @pytest.mark.parametrize("reason", ["BOGUS", None, ["TIMEOUT"]])
    def test_schema_refuses_an_unknown_failure_reason(self, reason):
        payload = {
            "msg_type": "TASK_END",
            "session_id": "s1",
            "body": {"status": "FAILED", "error": "x", "failure_reason": reason},
        }
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, MESSAGE_SCHEMA)

    @pytest.mark.parametrize("number", [b"NaN", b"Infinity", b"-Infinity", b"1e999"])
    def test_a_number_that_is_not_finite_is_refused_by_name(self, number):
        """JSON has no NaN or Infinity, so a timestamp that ``json`` parses
        to one is refused where it is parsed, naming the number, as in a
        document."""
        payload = b'{"msg_type":"HEARTBEAT","body":{"timestamp":%s}}' % number
        with pytest.raises(SchemaViolation) as refusal:
            decode(payload_frame(payload))
        assert (refusal.value.field, refusal.value.reason) == (
            "frame", f"invalid JSON payload: {number.decode()} is not a JSON number")

    @pytest.mark.parametrize("number", [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"-1e999"])
    @pytest.mark.parametrize("template", [
        b'{"msg_type":"TASK_END","session_id":"s1","body":{"status":"COMPLETED","result":%s}}',
        b'{"msg_type":"ERROR","body":{"error":"x","context":{"load":[1.5,%s]}}}',
    ], ids=["result", "context"])
    def test_a_number_that_is_not_finite_is_refused_in_an_untyped_field(self, template, number):
        """No schema type guards a TASK_END's ``result`` or an ERROR's
        ``context``, so the parse alone keeps NaN and the infinities out."""
        with pytest.raises(SchemaViolation) as refusal:
            decode(payload_frame(template % number))
        assert (refusal.value.field, refusal.value.reason) == (
            "frame", f"invalid JSON payload: {number.decode()} is not a JSON number")

    def test_truncated_frame_rejected(self):
        frame = encode(AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0}))
        with pytest.raises(SchemaViolation):
            decode(frame[:-3])

    @settings(max_examples=200, deadline=None)
    @given(
        timestamp=st.floats(allow_nan=False, allow_infinity=False),
        session=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    )
    def test_heartbeat_round_trip_fuzzed(self, timestamp, session):
        msg = AipMessage(MessageType.HEARTBEAT, {"timestamp": timestamp}, session_id=session)
        assert decode(encode(msg)) == msg


# -- reference codec: the earlier json.dumps / Enum-call implementation ----

_REFERENCE_SCHEMAS = {
    MessageType.REGISTER: {"client_id": str, "metadata": dict},
    MessageType.TASK: {"task": dict, "request": str},
    MessageType.COMMAND: {"actions": list, "response_id": str},
    MessageType.COMMAND_RESULTS: {"action_results": list, "prev_response_id": str},
    MessageType.TASK_END: {"status": str},
    MessageType.HEARTBEAT: {"timestamp": (int, float)},
    MessageType.ERROR: {"error": str, "context": dict},
}

_REFERENCE_LAYER_FIELDS = (
    ("os", str),
    ("os_version", str),
    ("capabilities", list),
    ("performance", dict),
    ("paths", dict),
    ("network", dict),
)


def reference_validate(msg):
    schema = _REFERENCE_SCHEMAS.get(msg.msg_type)
    if schema is None:
        raise SchemaViolation("msg_type", f"unknown message type {msg.msg_type!r}")
    if msg.session_id == "":
        raise SchemaViolation("session_id", "must be non-empty")
    for name, expected in schema.items():
        if name not in msg.body:
            raise SchemaViolation(name, f"required by {msg.msg_type.value}")
        if not isinstance(msg.body[name], expected) or isinstance(msg.body[name], bool):
            raise SchemaViolation(
                name, f"expected {expected}, got {type(msg.body[name]).__name__}"
            )
        if expected is str and not msg.body[name]:
            raise SchemaViolation(name, "must be non-empty")
        if expected == (int, float) and not math.isfinite(msg.body[name]):
            raise SchemaViolation(name, "must be finite, as JSON has no NaN or Infinity")
    if msg.msg_type is MessageType.TASK_END:
        statuses = ("COMPLETED", "FAILED")
        if msg.body["status"] not in statuses:
            raise SchemaViolation("status", f"must be one of {statuses}")
        if msg.body["status"] == "COMPLETED" and "result" not in msg.body:
            raise SchemaViolation("result", "required for COMPLETED TASK_END")
        if msg.body["status"] == "FAILED" and "error" not in msg.body:
            raise SchemaViolation("error", "required for FAILED TASK_END")
        if "failure_reason" in msg.body:
            try:
                FailureReason(msg.body["failure_reason"])
            except ValueError:
                reasons = tuple(reason.value for reason in FailureReason)
                raise SchemaViolation("failure_reason", f"must be one of {reasons}") from None
    if msg.msg_type is MessageType.REGISTER and not msg.body["client_id"].strip():
        raise SchemaViolation("client_id", "must be non-empty")
    if msg.msg_type is MessageType.REGISTER:
        for layer in ("service_manifest", "client_telemetry"):
            data = msg.body["metadata"].get(layer)
            if data is not None and not isinstance(data, dict):
                raise SchemaViolation(f"metadata.{layer}", f"expected an object, got {type(data).__name__}")
            for name, expected in _REFERENCE_LAYER_FIELDS:
                if data and name in data and not isinstance(data[name], expected):
                    raise SchemaViolation(
                        f"metadata.{layer}.{name}",
                        f"expected {expected.__name__}, got {type(data[name]).__name__}",
                    )
    # After the body: the schema's ``then`` judges a type's body before its session id.
    if msg.session_id is None and msg.msg_type in SESSION_TYPES:
        raise SchemaViolation("session_id", f"required by {msg.msg_type.value}")


def reference_encode(msg):
    reference_validate(msg)
    doc = {"msg_type": msg.msg_type.value, "body": msg.body}
    if msg.session_id is not None:
        doc["session_id"] = msg.session_id
    payload = json.dumps(doc, ensure_ascii=False, sort_keys=True).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def reference_finite(text):
    """A JSON number token as ``json`` reads it, refusing NaN and the
    infinities, which JSON has not."""
    number = float(text)
    if math.isnan(number) or math.isinf(number):
        raise ValueError(f"{text} is not a JSON number")
    return number


def reference_decode(frame):
    if len(frame) < 4:
        raise SchemaViolation("frame", "shorter than the length prefix")
    (length,) = struct.unpack(">I", frame[:4])
    payload = frame[4:]
    if len(payload) != length:
        raise SchemaViolation("frame", f"length prefix {length} != payload {len(payload)}")
    try:
        doc = json.loads(payload.decode("utf-8"), parse_constant=reference_finite, parse_float=reference_finite)
    except ValueError as exc:
        raise SchemaViolation("frame", f"invalid JSON payload: {exc}") from exc
    except RecursionError:
        raise SchemaViolation("frame", "invalid JSON payload: nested too deep") from None
    if not isinstance(doc, dict):
        raise SchemaViolation("frame", "payload must be a JSON object")
    try:
        msg_type = MessageType(doc["msg_type"])
    except (KeyError, ValueError) as exc:
        raise SchemaViolation("msg_type", f"unknown or missing: {exc}") from exc
    body = doc.get("body")
    if not isinstance(body, dict):
        raise SchemaViolation("body", "must be a JSON object")
    if "session_id" in doc and not isinstance(doc["session_id"], str):
        raise SchemaViolation("session_id", f"must be a string, got {doc['session_id']!r}")
    unknown = set(doc) - {"msg_type", "body", "session_id"}
    if unknown:
        raise SchemaViolation("frame", f"unknown field(s) {sorted(unknown)}")
    msg = AipMessage(msg_type=msg_type, body=body, session_id=doc.get("session_id"))
    reference_validate(msg)
    return msg


def outcome(codec, arg):
    """What a codec call gives: its value, or the field it refuses."""
    try:
        return ("ok", codec(arg))
    except SchemaViolation as exc:
        return ("refused", exc.field)


def raw_frame(doc):
    payload = json.dumps(doc).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**64), 2**64),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=10,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=3)
FIELD_VALUES = {
    str: st.text(min_size=1, max_size=8).filter(str.strip),
    dict: json_objects,
    list: st.lists(json_values, max_size=3),
    (int, float): st.one_of(
        st.integers(-(2**64), 2**64), st.floats(allow_nan=False, allow_infinity=False)
    ),
}


@st.composite
def valid_messages(draw):
    msg_type = draw(st.sampled_from(list(MessageType)))
    body = draw(json_objects)  # extra fields ride along untouched
    for name, expected in _REFERENCE_SCHEMAS[msg_type].items():
        body[name] = draw(FIELD_VALUES[expected])
    if msg_type is MessageType.TASK_END:
        body["status"] = draw(st.sampled_from(["COMPLETED", "FAILED"]))
        body["result" if body["status"] == "COMPLETED" else "error"] = draw(json_values)
        if draw(st.booleans()):
            body["failure_reason"] = draw(st.sampled_from([r.value for r in FailureReason]))
    session_ids = st.text(min_size=1, max_size=8)
    session_id = draw(session_ids if msg_type in SESSION_TYPES else st.one_of(st.none(), session_ids))
    return AipMessage(msg_type, body, session_id=session_id)


# REGISTER metadata whose service manifest or client telemetry is not an
# object, or holds a field group of the wrong JSON type.
ILL_TYPED_LAYERS = {
    "string manifest": {"service_manifest": "hosts"},
    "list telemetry": {"client_telemetry": [{"os": "Linux"}]},
    "int capabilities": {"client_telemetry": {"capabilities": 5}},
    "list paths": {"service_manifest": {"paths": ["ab"]}},
    "null os": {"service_manifest": {"os": None}},
    "boolean os_version": {"client_telemetry": {"os_version": True}},
    "string performance": {"service_manifest": {"performance": "fast"}},
    "list network": {"client_telemetry": {"os": "Linux", "network": []}},
}
MALFORMED_DOCS = {
    "unknown type": {"msg_type": "NOPE", "body": {}},
    "type by name case": {"msg_type": "heartbeat", "body": {"timestamp": 1.0}},
    "missing type": {"body": {"timestamp": 1.0}},
    "int type": {"msg_type": 5, "body": {}},
    "null type": {"msg_type": None, "body": {}},
    "true type": {"msg_type": True, "body": {}},
    "list type": {"msg_type": ["HEARTBEAT"], "body": {}},
    "object type": {"msg_type": {"HEARTBEAT": 1}, "body": {}},
    "list body": {"msg_type": "HEARTBEAT", "body": [1.0]},
    "missing body": {"msg_type": "HEARTBEAT"},
    "missing field": {"msg_type": "COMMAND", "body": {"actions": []}},
    "wrong field type": {"msg_type": "HEARTBEAT", "body": {"timestamp": "now"}},
    "blank client": {"msg_type": "REGISTER", "body": {"client_id": " ", "metadata": {}}},
    "bad status": {"msg_type": "TASK_END", "body": {"status": "MAYBE"}},
    "bad failure reason": {
        "msg_type": "TASK_END",
        "body": {"status": "FAILED", "error": "x", "failure_reason": "BOGUS"},
    },
    "null failure reason": {
        "msg_type": "TASK_END",
        "body": {"status": "COMPLETED", "result": "x", "failure_reason": None},
    },
    "list session": {"msg_type": "HEARTBEAT", "session_id": [1], "body": {"timestamp": 1.0}},
    "object session": {"msg_type": "TASK", "session_id": {"a": 1}, "body": {}},
    "int session": {"msg_type": "HEARTBEAT", "session_id": 7, "body": {"timestamp": 1.0}},
    "null session": {"msg_type": "HEARTBEAT", "session_id": None, "body": {"timestamp": 1.0}},
    "true timestamp": {"msg_type": "HEARTBEAT", "body": {"timestamp": True}},
    "false timestamp": {"msg_type": "HEARTBEAT", "body": {"timestamp": False}},
    "extra frame field": {"msg_type": "HEARTBEAT", "body": {"timestamp": 1.0}, "extra": 1},
    "task without a session": {"msg_type": "TASK", "body": {"task": {}, "request": "r"}},
    "empty session": {"msg_type": "HEARTBEAT", "session_id": "", "body": {"timestamp": 1.0}},
    "misspelt session": {"msg_type": "TASK_END", "sesion_id": "s1", "body": {"status": "FAILED", "error": "x"}},
    **{
        f"ill-typed layer {name}": {"msg_type": "REGISTER", "body": {"client_id": "g", "metadata": metadata}}
        for name, metadata in ILL_TYPED_LAYERS.items()
    },
}


# Text that JSON escapes, or that ``ensure_ascii=False`` writes as it is.
ESCAPED_TEXTS = {
    "quote": 'say "hi"',
    "backslash": "C:\\tmp\\x",
    "control character": "a\x01b\n\t",
    "non-ascii": "d\u00e9j\u00e0 \u2603 \U0001f600",
    "line separator": "a\u2028b\u2029c",
}


class TestCodecOracle:
    """``encode``/``decode`` agree byte for byte, and refusal for refusal,
    with the reference codec above."""

    @settings(max_examples=200, deadline=None)
    @given(msg=valid_messages())
    def test_valid_messages_match_the_reference(self, msg):
        frame = encode(msg)
        assert frame == reference_encode(msg)
        assert decode(frame) == msg == reference_decode(frame)

    @settings(max_examples=50, deadline=None)
    @given(msg=valid_messages())
    def test_encoder_without_the_c_accelerator_matches_the_reference(self, msg):
        from constellation.aip import messages

        c_encode, messages._C_ENCODE = messages._C_ENCODE, None
        try:
            assert encode(msg) == reference_encode(msg)
        finally:
            messages._C_ENCODE = c_encode

    @pytest.mark.parametrize("c_encoder", [True, False], ids=["c encoder", "fallback encoder"])
    @pytest.mark.parametrize("text", list(ESCAPED_TEXTS.values()), ids=list(ESCAPED_TEXTS))
    def test_text_that_needs_escaping_matches_the_reference(self, monkeypatch, c_encoder, text):
        """``encode`` writes the envelope and its session id itself; escaped
        there as by the encoder, in a session id, a body key and a body value."""
        from constellation.aip import messages

        if not c_encoder:
            monkeypatch.setattr(messages, "_C_ENCODE", None)
        for msg_type, body in ((MessageType.TASK_END, {"status": "FAILED", "error": text, text: [text]}),
                               (MessageType.HEARTBEAT, {"timestamp": 1.0, "agent_id": text})):
            msg = AipMessage(msg_type, body, session_id=text)
            frame = encode(msg)
            assert frame == reference_encode(msg)
            assert decode(frame) == msg

    @pytest.mark.parametrize("doc", list(MALFORMED_DOCS.values()), ids=list(MALFORMED_DOCS))
    def test_malformed_frames_refused_like_the_reference(self, doc):
        frame = raw_frame(doc)
        refusal = outcome(reference_decode, frame)
        assert refusal[0] == "refused"
        assert outcome(decode, frame) == refusal

    @pytest.mark.parametrize(
        "frame",
        [
            b"",
            b"\x00\x00",
            b"\x00\x00\x00\x09{}",
            b"\x00\x00\x00\x02\xff\xfe",
            raw_frame([1, 2]),
            raw_frame("HEARTBEAT"),
            b"\x00\x00\x00\x03{x}",
            b"\x00\x00\x00\x05\xef\xbb\xbf{}",
            b"\x00\x00\x00\x05\xef\xbb\xbf{\xff",
        ],
    )
    def test_broken_frames_refused_like_the_reference(self, frame):
        refusal = outcome(reference_decode, frame)
        assert refusal[0] == "refused"
        assert outcome(decode, frame) == refusal

    @settings(max_examples=200, deadline=None)
    @given(
        msg_type=st.one_of(st.sampled_from([m.value for m in MessageType]), json_values),
        body=st.one_of(json_objects, json_values),
        session_id=st.one_of(st.none(), json_values),
    )
    def test_fuzzed_frames_decode_like_the_reference(self, msg_type, body, session_id):
        doc = {"msg_type": msg_type, "body": body, "session_id": session_id}
        frame = raw_frame(doc)
        assert outcome(decode, frame) == outcome(reference_decode, frame)


def payload_frame(payload):
    return struct.pack(">I", len(payload)) + payload


_BEAT = b'{"msg_type":"HEARTBEAT","body":{"timestamp":%s}}'
_NESTED = b"[" * 40 + b"1" + b"]" * 40
_VALID_PAYLOADS = {
    t.value.lower(): json.dumps({"msg_type": t.value, "body": body}, separators=(",", ":")).encode()
    for t, body in VALID_BODIES.items()
}
_VALID_PAYLOADS["session"] = b'{"session_id":"s1","body":{"status":"FAILED","error":"x"},"msg_type":"TASK_END"}'
_VALID_PAYLOADS["spaced"] = b'{ "msg_type" : "HEARTBEAT" , "body" : { "timestamp" : 1 } }'
# Payloads whose parse, or refusal, the one-scan decode must match.
DECODE_CORPUS = {
    **{f"bare {name}": payload for name, payload in _VALID_PAYLOADS.items()},
    **{f"leading space {name}": b" \n\t" + payload for name, payload in _VALID_PAYLOADS.items()},
    **{f"trailing space {name}": payload + b"\r\n " for name, payload in _VALID_PAYLOADS.items()},
    "padded both sides": b"  " + _VALID_PAYLOADS["heartbeat"] + b"  ",
    "trailing data": _VALID_PAYLOADS["heartbeat"] + b"x",
    "trailing object": _VALID_PAYLOADS["heartbeat"] + b"{}",
    "trailing value after space": _VALID_PAYLOADS["heartbeat"] + b" 1",
    "trailing comma": _VALID_PAYLOADS["heartbeat"] + b",",
    "two objects": b"{}{}",
    "utf-8 bom": b"\xef\xbb\xbf" + _VALID_PAYLOADS["heartbeat"],
    "utf-8 bom alone": b"\xef\xbb\xbf",
    "invalid utf-8 in a string": b'{"msg_type":"HEARTBEAT","body":{"timestamp":1,"x":"\xff"}}',
    "truncated utf-8": _VALID_PAYLOADS["heartbeat"][:-2] + b"\xe2\x82",
    "non-ascii text": '{"msg_type":"ERROR","body":{"error":"d\u00e9j\u00e0 \u2603","context":{}}}'.encode(),
    "escaped lone surrogate": b'{"msg_type":"ERROR","body":{"error":"\\ud800","context":{}}}',
    "nan timestamp": _BEAT % b"NaN",
    "infinite timestamp": _BEAT % b"Infinity",
    "negative infinite timestamp": _BEAT % b"-Infinity",
    "overflowing timestamp": _BEAT % b"1e400",
    "nan top level": b"NaN",
    "duplicate msg_type": b'{"msg_type":"NOPE","msg_type":"HEARTBEAT","body":{"timestamp":1}}',
    "duplicate body field": b'{"msg_type":"HEARTBEAT","body":{"timestamp":"now","timestamp":2}}',
    "duplicate session": b'{"msg_type":"TASK","session_id":"a","session_id":7,"body":{"task":{},"request":"r"}}',
    "array top level": b"[]",
    "string top level": b'"HEARTBEAT"',
    "number top level": b"12",
    "null top level": b"null",
    "true top level": b"true",
    "nested body": _BEAT % (b"1," + b'"deep":' + _NESTED),
    "nested top level": _NESTED,
    "too deep to parse": b"[" * 100_000 + b"]" * 100_000,
    "too deep, unclosed": _BEAT % (b"1," + b'"deep":' + b"[" * 100_000),
    "empty payload": b"",
    "whitespace only": b" \n ",
    "truncated object": b'{"msg_type":',
    "unterminated string": b'{"msg_type":"HEART',
    "single quotes": b"{'msg_type':'HEARTBEAT'}",
    "missing comma": b'{"msg_type":"HEARTBEAT" "body":{}}',
}


def settled(codec, frame):
    """A codec call's message (as its repr, so NaN compares), or the field it
    refuses, with json's words for a payload that does not parse; any other
    exception fails the test."""
    try:
        return ("ok", repr(codec(frame)))
    except SchemaViolation as exc:
        return ("refused", exc.field, exc.reason if exc.reason.startswith("invalid JSON") else None)


class TestOneScanDecode:
    """``decode`` scans a payload once and falls back to
    ``JSONDecoder.decode`` for what that scan does not read whole; it gives
    what ``reference_decode``, built on ``json.loads``, gives, with the C
    scanner and with json's pure-Python one."""

    @pytest.mark.parametrize("scanner", ["default", "python"])
    @pytest.mark.parametrize("payload", list(DECODE_CORPUS.values()), ids=list(DECODE_CORPUS))
    def test_decode_matches_json_loads(self, monkeypatch, scanner, payload):
        from json.scanner import py_make_scanner

        from constellation.aip import messages

        if scanner == "python":
            monkeypatch.setattr(messages, "_SCAN", py_make_scanner(messages._DECODER))
        frame = payload_frame(payload)
        assert settled(decode, frame) == settled(reference_decode, frame)

    def test_corpus_holds_accepted_and_refused_payloads(self):
        kinds = Counter(settled(reference_decode, payload_frame(p))[0] for p in DECODE_CORPUS.values())
        assert kinds.keys() == {"ok", "refused"}, kinds

    @pytest.mark.parametrize(
        "payload, fallbacks",
        [
            (_VALID_PAYLOADS["heartbeat"], 0),
            (_VALID_PAYLOADS["spaced"], 0),
            (b" " + _VALID_PAYLOADS["heartbeat"], 1),
            (_VALID_PAYLOADS["heartbeat"] + b" ", 1),
            (_VALID_PAYLOADS["heartbeat"] + b"x", 1),
            (b"", 1),
        ],
        ids=["bare", "spaced inside", "leading space", "trailing space", "trailing data", "empty"],
    )
    def test_only_a_payload_the_scan_does_not_read_whole_is_decoded_again(self, monkeypatch, payload, fallbacks):
        from constellation.aip import messages

        calls = []
        fallback = messages._DECODER.decode
        monkeypatch.setattr(messages._DECODER, "decode", lambda text: calls.append(text) or fallback(text))
        try:
            decode(payload_frame(payload))
        except SchemaViolation:
            pass
        assert len(calls) == fallbacks


# Valid frame documents to mutate.
VALID_FRAME_DOCS = [
    *({"msg_type": t.value, "body": body} for t, body in VALID_BODIES.items()),
    *({"msg_type": t.value, "body": body, "session_id": "s1"} for t, body in VALID_BODIES.items()),
    {"msg_type": "TASK_END", "body": {"status": "FAILED", "error": "x", "failure_reason": "TIMEOUT"}},
    {
        "msg_type": "REGISTER",
        "body": {
            "client_id": "linux1",
            "metadata": {
                "service_manifest": {
                    "os": "Ubuntu",
                    "os_version": "22.04",
                    "capabilities": ["cli"],
                    "performance": {"cpu_cores": 8},
                    "paths": {"home": "~"},
                    "network": {"host": "linux1"},
                },
                "client_telemetry": {"performance": {"memory_gb": 16.0}},
            },
        },
    },
]
FRAME_VALUES = (*MUTANT_VALUES, "COMPLETED", "FAILED", "TIMEOUT", "TASK", "HEARTBEAT")


class TestCodecAgainstTheSchema:
    def test_decode_refuses_every_frame_the_schema_refuses(self):
        """Over thousands of mutated frames, ``decode`` and ``jsonschema``
        with the packaged schema accept and refuse the same ones: no rule of
        ``decode`` goes unstated in the schema."""
        validator = jsonschema.Draft202012Validator(MESSAGE_SCHEMA)
        rng = random.Random("aip")
        seen, layers = Counter(), Counter()
        for _ in range(3000):
            doc = rng.choice(VALID_FRAME_DOCS)
            for _ in range(rng.randint(1, 2)):
                doc = mutated(doc, rng, FRAME_VALUES)
            try:
                decode(raw_frame(doc))
            except SchemaViolation as exc:
                assert not validator.is_valid(doc), (doc, exc)
                seen["refused by both"] += 1
                layers[exc.field.startswith("metadata.")] += 1
            else:
                assert validator.is_valid(doc), doc
                seen["accepted by both"] += 1
        assert set(seen) == {"refused by both", "accepted by both"}, seen
        assert layers[True] > 0, "no ill-typed profile layer was refused"

    @pytest.mark.parametrize("metadata", list(ILL_TYPED_LAYERS.values()), ids=list(ILL_TYPED_LAYERS))
    def test_an_ill_typed_profile_layer_is_refused_by_both(self, metadata):
        (layer,) = metadata
        doc = {"msg_type": "REGISTER", "body": {"client_id": "g", "metadata": metadata}}
        refusal = outcome(decode, raw_frame(doc))
        assert refusal[0] == "refused" and refusal[1].startswith(f"metadata.{layer}")
        assert not jsonschema.Draft202012Validator(MESSAGE_SCHEMA).is_valid(doc)


class TestBackoff:
    def test_nominal_schedule(self):
        assert [reconnect_delay(n) for n in range(5)] == [1, 2, 4, 8, 16]
        # Cumulative wait from disconnect detection to the final attempt.
        assert sum(reconnect_delay(n) for n in range(5)) == RECONNECT_BASE * (2**5 - 1)

    def test_cap_applies(self):
        assert reconnect_delay(7) == 30.0


def linked(server):
    """Whether a device server is connected: its silence lane holds the
    orchestrator's address."""
    return server.orchestrator_address in server._silence.live


def build_pair(outages, exec_duration=1.0):
    """One orchestrator endpoint plus one device server/client pair."""
    clock = VirtualClock()
    network = SimNetwork(clock)
    orchestrator = ConstellationEndpoint(clock, network, "request")
    executor = ScriptedExecutor.load(
        {"table": [{"pattern": "*", "stdout": "ok", "duration": exec_duration}]}
    )
    reasoner = ScriptedReasoner.load(
        {
            "entries": [
                {
                    "when": {"step": 0},
                    "commands": [{"function": "EXEC_CLI", "args": {"command_line": "job"}}],
                    "next_state": "CONTINUE",
                },
                {"when": {"step": 1}, "next_state": "FINISH", "result": "$last_stdout"},
            ]
        }
    )
    DeviceClientEndpoint(clock, network, "dev-client", executor)
    server = DeviceServerEndpoint(
        clock,
        network,
        "dev",
        agent_id="dev",
        agent_server=AgentServer(clock, reasoner),
        orchestrator_address="orchestrator",
        client_address="dev-client",
    )
    network.add_link("orchestrator", "dev", LinkSpec(latency=0.001, outages=outages))
    network.add_link("dev", "dev-client", LinkSpec(latency=0.001))
    server.start()
    return clock, network, orchestrator, server


def advance(clock, until):
    clock.run(until=lambda: False, deadline=until)


class TestLiveness:
    def test_heartbeats_keep_agent_idle(self):
        clock, _, orchestrator, server = build_pair(outages=[])
        advance(clock, 60.0)
        assert orchestrator.available_devices() == {"dev"}
        assert linked(server)

    def test_deadline_timers_are_re_armed_on_expiry_not_per_beat(self, monkeypatch):
        """Over 60 s of beats every 5 s, each side's silence lane arms a
        clock timer at most once per 15 s (its first arm included), where one
        per beat would be 13: a beat only replaces its peer's entry, and the
        armed one, gone stale, arms the next when it expires."""
        clock, _, orchestrator, server = build_pair(outages=[])
        armed = Counter()
        arm = TimerLane._arm

        def counting_arm(lane, entry):
            armed["device" if lane is server._silence else "orchestrator" if lane is orchestrator._silence else "other"] += 1
            arm(lane, entry)

        monkeypatch.setattr(TimerLane, "_arm", counting_arm)
        advance(clock, 60.0)
        assert orchestrator.available_devices() == {"dev"} and linked(server)
        bound = 1 + 60.0 / (HEARTBEAT_INTERVAL * MISSED_K)
        assert set(armed) == {"orchestrator", "device"}
        assert all(count <= bound for count in armed.values()), armed

    def test_both_sides_detect_after_three_missed_beats(self):
        clock, _, orchestrator, server = build_pair(outages=[(5.0, 100000.0)])
        advance(clock, 14.9)
        assert orchestrator.available_devices() == {"dev"}
        assert linked(server)
        advance(clock, 15.1)
        assert orchestrator.available_devices() == set()
        assert not linked(server)

    def test_reconnect_schedule_is_cumulative_and_exhausts(self):
        clock, network, _, server = build_pair(outages=[(5.0, 100000.0)])
        advance(clock, 100.0)
        register_times = [
            round(f["at"], 3)
            for f in network.wire_log
            if f["src"] == "dev" and f["summary"] == "REGISTER"
        ]
        # Initial registration, then detection (~15) + 1, 3, 7, 15, 31.
        assert register_times[0] == 0.0
        deltas = [round(t - 15.001, 1) for t in register_times[1:]]
        assert deltas == [1.0, 3.0, 7.0, 15.0, 31.0]
        assert server.permanently_failed

    def test_the_pool_is_the_registered_agents_whose_deadline_is_live(self):
        """At every step across a silence and a fresh REGISTER, the pool is
        the registered agents whose deadline is live: the agent stays
        registered, and leaves the pool at its deadline and rejoins it when
        its REGISTER is accepted."""
        clock, _, orchestrator, _ = build_pair(outages=[(5.0, 40.0)])
        changes = []
        while clock.now < 60.0 and clock.step():
            pool = orchestrator.available_devices()
            assert pool == orchestrator._device_address.keys() & orchestrator._silence.live.keys()
            if not changes or changes[-1][1] != pool:
                changes.append((round(clock.now, 3), pool))
        assert changes == [(0.001, {"dev"}), (15.001, set()), (46.003, {"dev"})]
        assert set(orchestrator._device_address) == {"dev"}

    def test_a_beat_arriving_at_the_silence_deadline_is_too_late(self):
        """The beats sent near 10 and 15 are lost, so the next one arrives at
        the very instant the orchestrator's deadline, 15 s after the beat it
        received at 5.003, falls due. The deadline acts first: the beat is
        refused, the device's own deadline expires and it registers again
        1 s later."""
        clock, network, _, _ = build_pair(outages=[(10.0, 16.0)])
        advance(clock, 22.0)
        link = [f for f in network.wire_log if "dev-client" not in (f["src"], f["dst"])]
        received = [f["deliver_at"] for f in link if f["src"] == "dev" and not f["dropped"]]
        assert received[2] == received[1] + HEARTBEAT_INTERVAL * MISSED_K
        tail = [(round(f["at"], 3), f["src"], f["summary"], f["dropped"]) for f in link if f["at"] >= 10.0]
        assert tail == [
            (10.002, "dev", "HEARTBEAT", True),
            (15.002, "dev", "HEARTBEAT", True),
            (20.002, "dev", "HEARTBEAT", False),
            (20.003, "orchestrator", "ERROR", False),
            (21.004, "dev", "REGISTER", False),
            (21.005, "orchestrator", "HEARTBEAT", False),
        ]

    def test_beat_after_the_orchestrator_gave_up_is_refused_so_the_device_registers(self):
        """An outage ending just as the orchestrator's deadline expires lets
        the device's next beat through before its own deadline does: the
        beat is refused, not acked, so the device times out and registers
        again, and the agent rejoins the pool."""
        clock, network, orchestrator, server = build_pair(outages=[(5.0, 15.0)])
        advance(clock, 200.0)
        registers = [f for f in network.wire_log if f["summary"] == "REGISTER"]
        assert orchestrator.available_devices() == {"dev"} and linked(server)
        assert len(registers) == 2

    def test_outage_recovery_rejoins_pool_via_reregister(self):
        clock, _, orchestrator, server = build_pair(outages=[(5.0, 40.0)])
        advance(clock, 45.0)
        # 15 detection + 31 cumulative backoff lands the winning attempt ~46.
        assert orchestrator.available_devices() == set()
        advance(clock, 50.0)
        assert orchestrator.available_devices() == {"dev"}
        assert linked(server)
        assert not server.permanently_failed

    def test_a_lost_first_register_is_sent_again_on_the_backoff_schedule(self):
        """The link is down when the device starts, so its first REGISTER is
        lost. It registers again 1 s later, is accepted and joins the pool,
        and the accepting ack cancels the attempt due 2 s after that."""
        clock, network, orchestrator, server = build_pair(outages=[(0.0, 1.0)])
        advance(clock, 300.0)
        registers = [round(f["at"], 3) for f in network.wire_log if f["summary"] == "REGISTER"]
        assert registers == [0.0, 1.0]
        assert orchestrator.available_devices() == {"dev"} and linked(server)
        assert not server.permanently_failed

    def test_a_device_never_heard_from_registers_on_the_backoff_schedule_and_gives_up(self):
        clock, network, orchestrator, server = build_pair(outages=[(0.0, 100000.0)])
        advance(clock, 300.0)
        registers = [round(f["at"], 3) for f in network.wire_log if f["summary"] == "REGISTER"]
        assert registers == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0]
        assert orchestrator.available_devices() == set() and not linked(server)
        assert server.permanently_failed

    def test_a_device_still_registering_has_not_given_up(self):
        clock, _, _, server = build_pair(outages=[(0.0, 100000.0)])
        advance(clock, 10.0)
        assert not linked(server) and not server.permanently_failed

    def test_after_a_re_register_the_device_beats_once_per_interval_and_registers_no_more(self):
        """An outage from 5 to 25 s makes the device register again, and its
        attempt at 30 s is accepted. From that ack on it sends one HEARTBEAT
        per HEARTBEAT_INTERVAL and no REGISTER: the ack cancelled the attempt
        due 16 s later, and the beats of its first connection were cancelled
        when it timed out."""
        clock, network, orchestrator, server = build_pair(outages=[(5.0, 25.0)])
        advance(clock, 120.0)
        ack = next(f["at"] for f in network.wire_log if f["src"] == "orchestrator" and f["at"] > 25.0)
        assert ack == pytest.approx(30.003)
        sent = [(f["at"], f["summary"]) for f in network.wire_log if f["src"] == "dev" and f["at"] > ack]
        beats = [(pytest.approx(ack + 0.001 + HEARTBEAT_INTERVAL * k), "HEARTBEAT") for k in range(1, 18)]
        assert sent == beats
        assert orchestrator.available_devices() == {"dev"} and linked(server)

    def test_running_task_synthesizes_failed_task_end_on_both_sides(self):
        clock, _, orchestrator, server = build_pair(
            outages=[(5.0, 100000.0)], exec_duration=30.0
        )
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="long job"), lambda *args: outcomes.append(args)
        )
        advance(clock, 30.0)
        assert outcomes == [
            ("T", TaskStatus.FAILED, "agent dev disconnected", FailureReason.AGENT_DISCONNECTED)
        ]
        assert server.active_runs == {}
        # Each side logged a synthetic TASK_END for the orphaned session.
        for endpoint in (orchestrator, server):
            synthetic = [
                entry
                for log in endpoint.sessions.values()
                for entry in log
                if entry.get("synthetic") and entry["msg_type"] == "TASK_END"
            ]
            assert len(synthetic) == 1

    def test_duplicate_task_delivery_not_re_executed(self):
        clock, network, orchestrator, server = build_pair(outages=[])
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *a: None)
        advance(clock, 1.1)
        assert len(server.active_runs) == 1
        msg = AipMessage(
            MessageType.TASK,
            {"task": {"id": "T", "description": "job"}, "request": "request"},
            session_id=next(iter(server.active_runs)),
        )
        commands_before = sum(
            1 for f in network.wire_log if f["summary"] == "COMMAND"
        )
        server.handle("orchestrator", msg)  # duplicate delivery
        advance(clock, 1.2)
        commands_after = sum(1 for f in network.wire_log if f["summary"] == "COMMAND")
        assert commands_after == commands_before
        assert len(server.active_runs) == 1

    def test_run_ended_inside_serve_task_is_not_kept_active(self):
        """An empty description fails the task before serve_task returns: its
        TASK_END is sent and no ended run is left in active_runs. The TASK
        that ``handle`` takes opens the session, as one off the wire does."""
        clock, _, _, server = build_pair(outages=[])
        advance(clock, 1.0)
        task = {"task": {"id": "T", "description": ""}, "request": "request"}
        server.handle("orchestrator", AipMessage(MessageType.TASK, task, session_id="s1"))
        assert server.active_runs == {}
        assert [e["msg_type"] for e in server.sessions["s1"]] == ["TASK", "TASK_END"]

    def test_duplicate_task_end_fires_the_callback_once(self):
        clock, network, orchestrator, _ = build_pair(outages=[])
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="job"),
            lambda task_id, status, text, reason: outcomes.append((task_id, status)),
        )
        advance(clock, 10.0)
        (session_id,) = orchestrator.sessions
        (body,) = [
            entry["body"]
            for entry in orchestrator.sessions[session_id]
            if entry["msg_type"] == "TASK_END"
        ]
        duplicate = AipMessage(MessageType.TASK_END, body, session_id=session_id)
        network.send("dev", "orchestrator", encode(duplicate))  # delivered a second time
        advance(clock, 11.0)
        received = [e for e in orchestrator.sessions[session_id] if e["msg_type"] == "TASK_END"]
        assert len(received) == 2
        assert outcomes == [("T", TaskStatus.COMPLETED)]

    def test_task_completes_end_to_end(self):
        clock, _, orchestrator, _ = build_pair(outages=[])
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args))
        advance(clock, 10.0)
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]


class TestExecutorClient:
    def test_an_executor_that_raises_is_answered_with_a_failed_result_at_once(self):
        """The raised error becomes the action's result, with status 1, and
        takes no time: the reply leaves as the COMMAND arrives."""

        class Raising:
            def execute(self, action):
                raise RuntimeError("no shell")

        clock = VirtualClock()
        network = SimNetwork(clock)
        DeviceClientEndpoint(clock, network, "client", Raising())
        received = []
        network.attach("server", lambda src, frame: received.append((clock.now, decode(frame))))
        network.add_link("server", "client", LinkSpec(latency=0.5))
        command = AipMessage(MessageType.COMMAND, {"actions": [{"cmd": "ls"}], "response_id": "c1"}, session_id="s1")
        network.send("server", "client", encode(command))
        advance(clock, 5.0)
        ((at, reply),) = received
        assert at == 1.0  # the two link latencies
        assert reply.body == {"action_results": [{"status": 1, "stdout": "", "stderr": "no shell"}],
                              "prev_response_id": "c1"}


class TestDispatchOutsideThePool:
    """A task dispatched to a device outside the pool, one that never
    registered or one its watchdog disconnected, fails at once: one
    AGENT_DISCONNECTED completion, no TASK frame and no outstanding session."""

    def refused(self, clock, network, orchestrator, device):
        outcomes = []
        frames = len(network.wire_log)
        orchestrator.dispatch(
            TaskStar("T", device, description="job"), lambda *args: outcomes.append(args)
        )
        advance(clock, clock.now + 30.0)
        error = f"device {device!r} is not in the scheduling pool"
        assert outcomes == [("T", TaskStatus.FAILED, error, FailureReason.AGENT_DISCONNECTED)]
        assert "TASK" not in [f["summary"] for f in network.wire_log[frames:]]
        assert orchestrator._outstanding == {}

    def test_a_device_that_never_registered(self):
        clock, network, orchestrator, _ = build_pair(outages=[])
        advance(clock, 1.0)
        self.refused(clock, network, orchestrator, "ghost")

    def test_a_device_after_its_watchdog_fired(self):
        clock, network, orchestrator, _ = build_pair(outages=[(5.0, 100000.0)])
        advance(clock, 20.0)
        assert orchestrator.available_devices() == set()
        self.refused(clock, network, orchestrator, "dev")


class TestFramesFromOutside:
    """A frame the orchestrator endpoint cannot act on is answered with an
    ERROR frame; no deadline is added or replaced, and the pool is left as
    it was."""

    def send_from_rogue(self, msg):
        clock, network, orchestrator, _ = build_pair(outages=[])
        advance(clock, 1.0)
        received = []
        network.attach("rogue", lambda src, frame: received.append(decode(frame)))
        network.add_link("rogue", "orchestrator", LinkSpec(latency=0.001))
        pool = (dict(orchestrator._device_address), dict(orchestrator._silence.live))
        network.send("rogue", "orchestrator", encode(msg))
        advance(clock, 2.0)
        assert [m.msg_type for m in received] == [MessageType.ERROR]
        assert (orchestrator._device_address, orchestrator._silence.live) == pool
        return received[0].body["error"]

    @pytest.mark.parametrize("agent_id", ["ghost", ["ghost"]])
    def test_heartbeat_of_unregistered_agent(self, agent_id):
        error = self.send_from_rogue(
            AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0, "agent_id": agent_id})
        )
        assert error.startswith("NotFound") and "ghost" in error

    @pytest.mark.parametrize(
        "metadata",
        [
            {"service_manifest": "hosts"},
            {"client_telemetry": {"capabilities": 5}},
            {"service_manifest": {"paths": ["ab"]}},
        ],
    )
    def test_register_with_malformed_profile_layer(self, metadata):
        error = self.send_from_rogue(
            AipMessage(MessageType.REGISTER, {"client_id": "ghost", "metadata": metadata})
        )
        assert error.startswith("SchemaViolation")

    @pytest.mark.parametrize("client_id", ["", " ", 5])
    def test_register_without_a_client_id(self, client_id):
        """The codec refuses a REGISTER whose client_id is not a non-blank
        string, before the orchestrator's handler sees it."""
        error = self.send_from_rogue(
            AipMessage(MessageType.REGISTER, {"client_id": client_id, "metadata": {}})
        )
        assert error.startswith("SchemaViolation") and "client_id" in error

    def test_refused_frames_leave_no_session_behind(self):
        """Only a frame sent, or a received frame that starts a session at its
        role (TASK at a device server, COMMAND at an executor client), opens
        one: rogue frames naming unknown sessions leave none behind."""
        clock, network, orchestrator, server = build_pair(outages=[])
        advance(clock, 1.0)
        network.attach("rogue", lambda src, frame: None)
        for target in ("orchestrator", "dev"):
            network.add_link("rogue", target, LinkSpec(latency=0.001))
        before = (copy.deepcopy(orchestrator.sessions), copy.deepcopy(server.sessions))
        for i in range(1000):
            for target, msg in [
                ("orchestrator", AipMessage(MessageType.HEARTBEAT, {"timestamp": 1.0})),
                ("orchestrator", AipMessage(MessageType.TASK_END, {"status": "FAILED", "error": "x"})),
                ("dev", AipMessage(MessageType.COMMAND_RESULTS, {"action_results": [], "prev_response_id": "c"})),
            ]:
                rogue = AipMessage(msg.msg_type, msg.body, session_id=f"rogue-{i}-{msg.msg_type.value}")
                network.send("rogue", target, encode(rogue))
        advance(clock, 2.0)
        assert (orchestrator.sessions, server.sessions) == before


TASK_DOC = {"id": "T", "name": "T", "description": "job", "device": "dev", "tips": []}


class TestFramesFromAnotherPeer:
    """An endpoint acts on a frame only when it comes from the peer that the
    frame belongs to: the device server takes HEARTBEAT and TASK only from
    the orchestrator and COMMAND_RESULTS only from its executor client, and
    the orchestrator takes a HEARTBEAT only from the address its agent
    registered and a TASK_END only from the address its session's TASK went
    to. Any other such frame is answered with an ERROR frame, and makes no
    session entry and calls nothing."""

    @staticmethod
    def refusals(network, since):
        return [(f["src"], f["dst"]) for f in network.wire_log[since:] if f["summary"] == "ERROR"]

    def test_device_takes_heartbeat_and_task_only_from_the_orchestrator(self):
        clock, network, _, server = build_pair(outages=[(5.0, 100.0)])
        advance(clock, 30.0)
        assert not linked(server)
        since = len(network.wire_log)
        beat = AipMessage(MessageType.HEARTBEAT, {"timestamp": 30.0, "status": "OK"})
        task = AipMessage(MessageType.TASK, {"task": TASK_DOC, "request": "r"}, session_id="forged")
        for msg in (beat, task):
            network.send("dev-client", "dev", encode(msg))
        advance(clock, 40.0)
        assert not linked(server)
        assert "forged" not in server.sessions and server.active_runs == {}
        assert self.refusals(network, since) == [("dev", "dev-client")] * 2
        # The backoff goes on, and no beat goes out into the outage.
        sent = [f["summary"] for f in network.wire_log[since:] if f["src"] == "dev"]
        assert sent == ["ERROR", "ERROR", "REGISTER"]

    def test_device_takes_command_results_only_from_its_client(self):
        clock, network, _, server = build_pair(outages=[], exec_duration=5.0)
        advance(clock, 1.0)
        server.handle("orchestrator", AipMessage(MessageType.TASK, {"task": TASK_DOC, "request": "r"}, session_id="s"))
        advance(clock, 1.5)
        (command_id,) = server._pending_results
        since = len(network.wire_log)
        forged = AipMessage(
            MessageType.COMMAND_RESULTS,
            {"action_results": [{"status": 0, "stdout": "forged"}], "prev_response_id": command_id},
            session_id="s",
        )
        log = list(server.sessions["s"])
        network.send("orchestrator", "dev", encode(forged))
        advance(clock, 2.0)
        assert self.refusals(network, since) == [("dev", "orchestrator")]
        assert server.sessions["s"] == log and command_id in server._pending_results
        advance(clock, 10.0)
        assert server.active_runs == {} and server._pending_results == {}
        results = [e["body"] for e in server.sessions["s"] if e["msg_type"] == "COMMAND_RESULTS"]
        assert [r["action_results"][0]["stdout"] for r in results] == ["ok"]

    def test_orchestrator_takes_task_end_only_from_where_its_task_went(self):
        clock, network, orchestrator, _ = build_pair(outages=[], exec_duration=5.0)
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args))
        (session_id,) = orchestrator.sessions
        network.attach("other", lambda src, frame: None)
        network.add_link("other", "orchestrator", LinkSpec(latency=0.001))
        since = len(network.wire_log)
        log = list(orchestrator.sessions[session_id])
        body = {"status": "COMPLETED", "result": "forged"}
        forged = AipMessage(MessageType.TASK_END, body, session_id=session_id)
        network.send("other", "orchestrator", encode(forged))
        advance(clock, 2.0)
        assert outcomes == [] and session_id in orchestrator._outstanding
        assert orchestrator.sessions[session_id] == log
        assert self.refusals(network, since) == [("orchestrator", "other")]
        advance(clock, 10.0)
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]

    def test_orchestrator_takes_a_heartbeat_only_from_where_its_agent_registered(self):
        clock, network, orchestrator, _ = build_pair(outages=[(5.0, 100.0)])
        network.attach("other", lambda src, frame: None)
        network.add_link("other", "orchestrator", LinkSpec(latency=0.001))
        advance(clock, 14.0)
        since = len(network.wire_log)
        beat = AipMessage(MessageType.HEARTBEAT, {"timestamp": 14.0, "agent_id": "dev"})
        network.send("other", "orchestrator", encode(beat))
        advance(clock, 14.5)
        assert self.refusals(network, since) == [("orchestrator", "other")]
        advance(clock, 15.1)
        assert orchestrator.available_devices() == set()


class TestSessionLogs:
    def test_a_session_log_holds_only_the_frames_its_role_takes(self):
        """The orchestrator takes no TASK and no ERROR: from its own device and
        naming an open session, each is neither logged nor acted on nor
        answered, so the session shows one TASK and one TASK_END."""
        clock, network, orchestrator, _ = build_pair(outages=[])
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args))
        (session_id,) = orchestrator.sessions
        advance(clock, 1.01)
        since = len(network.wire_log)
        task = AipMessage(MessageType.TASK, {"task": TASK_DOC, "request": "r"}, session_id=session_id)
        error = AipMessage(MessageType.ERROR, {"error": "stray", "context": {}}, session_id=session_id)
        for msg in (task, error):
            network.send("dev", "orchestrator", encode(msg))
        advance(clock, 1.05)
        assert [e["msg_type"] for e in orchestrator.sessions[session_id]] == ["TASK"]
        assert [f for f in network.wire_log[since:] if f["src"] == "orchestrator"] == []
        advance(clock, 10.0)
        assert [e["msg_type"] for e in orchestrator.sessions[session_id]] == ["TASK", "TASK_END"]
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]

    def test_only_a_task_opens_a_session(self):
        """The executor client, which never sees a TASK, logs none of the
        COMMAND and COMMAND_RESULTS frames of a task it ran; a frame naming a
        session that no TASK opened is acted on and logged nowhere."""
        clock, network, orchestrator, server = build_pair(outages=[])
        advance(clock, 1.0)
        orchestrator.dispatch(TaskStar("T", "dev", description="job"), lambda *args: None)
        advance(clock, 10.0)
        client = network._handlers["dev-client"].__self__
        assert client.sessions == {} and len(orchestrator.sessions) == len(server.sessions) == 1
        results = {"action_results": [], "prev_response_id": "c0-dev"}
        server.handle("dev-client", AipMessage(MessageType.COMMAND_RESULTS, results, session_id="unopened"))
        end = {"status": "COMPLETED", "result": "ok"}
        orchestrator.handle("dev", AipMessage(MessageType.TASK_END, end, session_id="unopened"))
        assert "unopened" not in orchestrator.sessions and "unopened" not in server.sessions

    def test_a_task_without_a_session_id_is_refused(self, monkeypatch):
        """No TASK_END could ever match a TASK that has no session id: the
        device answers it with an ERROR naming ``session_id`` and runs nothing."""
        from constellation.aip import endpoints

        clock, network, _, server = build_pair(outages=[])
        sent = []
        monkeypatch.setattr(endpoints, "encode", lambda msg: sent.append(msg) or encode(msg))
        advance(clock, 1.0)
        network.send("orchestrator", "dev", encode(AipMessage(MessageType.TASK, {"task": TASK_DOC, "request": "r"})))
        advance(clock, 4.0)
        (error,) = [msg for msg in sent if msg.msg_type is not MessageType.HEARTBEAT]
        assert error.msg_type is MessageType.ERROR and "session_id" in error.body["error"]
        assert server.active_runs == {} and server.sessions == {}
        assert not any(f["summary"] in ("COMMAND", "TASK_END") for f in network.wire_log)


class TestFramesTheCodecRefuses:
    """A frame that fails to decode is answered with an ERROR frame, at
    every role, and the run goes on."""

    def refused_by(self, target, frame):
        """The ERROR bodies ``target`` answers ``frame`` with; the device
        stays registered and connected."""
        clock, network, orchestrator, server = build_pair(outages=[])
        advance(clock, 1.0)
        received = []
        network.attach("rogue", lambda src, reply: received.append(decode(reply)))
        network.add_link("rogue", target, LinkSpec(latency=0.001))
        network.send("rogue", target, frame)
        advance(clock, 60.0)
        assert orchestrator.available_devices() == {"dev"} and linked(server)
        assert {m.msg_type for m in received} == {MessageType.ERROR}
        return [m.body["error"] for m in received]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_undecodable_frame_is_answered_with_an_error(self, target):
        error = "SchemaViolation: msg_type: is required"
        assert self.refused_by(target, b"\x00\x00\x00\x02{}") == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_device_info_request_is_not_a_message_type(self, target):
        body = {"target_id": "dev", "request_id": "r1"}
        frame = raw_frame({"msg_type": "DEVICE_INFO_REQUEST", "session_id": "s1", "body": body})
        error = (
            "SchemaViolation: msg_type: must be one of REGISTER, TASK, COMMAND, "
            "COMMAND_RESULTS, TASK_END, HEARTBEAT, ERROR, got 'DEVICE_INFO_REQUEST'"
        )
        assert self.refused_by(target, frame) == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    @pytest.mark.parametrize("session_id", [[1], {"a": 1}, 7], ids=["list", "object", "int"])
    def test_session_id_that_is_not_a_string_is_answered_with_an_error(self, target, session_id):
        frame = raw_frame(
            {"msg_type": "HEARTBEAT", "session_id": session_id, "body": {"timestamp": 1.0}}
        )
        error = f"SchemaViolation: session_id: must be a string, got {session_id!r}"
        assert self.refused_by(target, frame) == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_a_non_finite_number_in_an_untyped_field_is_answered_with_an_error(self, target):
        body = {"status": "COMPLETED", "result": float("nan")}
        frame = raw_frame({"msg_type": "TASK_END", "session_id": "s1", "body": body})
        error = "SchemaViolation: frame: invalid JSON payload: NaN is not a JSON number"
        assert self.refused_by(target, frame) == [error]

    @pytest.mark.parametrize("target", ["orchestrator", "dev", "dev-client"])
    def test_frame_nested_past_the_recursion_limit_is_answered_with_an_error(self, target):
        error = "SchemaViolation: frame: invalid JSON payload: nested too deep"
        assert self.refused_by(target, payload_frame(b"[" * 100_000)) == [error]

    def test_frame_nested_past_the_recursion_limit_leaves_the_clock_running(self):
        """The refusal is the only effect: the run reaches its deadline,
        and the orchestrator opens no session."""
        clock, network, orchestrator, _ = build_pair(outages=[])
        advance(clock, 1.0)
        received = []
        network.attach("rogue", lambda src, reply: received.append(decode(reply)))
        network.add_link("rogue", "orchestrator", LinkSpec(latency=0.001))
        network.send("rogue", "orchestrator", payload_frame(b"[" * 100_000))
        clock.run(deadline=30.0)
        assert clock.now == 30.0
        assert [m.msg_type for m in received] == [MessageType.ERROR]
        assert orchestrator.sessions == {}

    def test_task_end_with_unknown_failure_reason_leaves_the_session_outstanding(self):
        clock, network, orchestrator, _ = build_pair(outages=[], exec_duration=5.0)
        outcomes = []
        advance(clock, 1.0)
        orchestrator.dispatch(
            TaskStar("T", "dev", description="job"), lambda *args: outcomes.append(args)
        )
        (session_id,) = orchestrator.sessions
        body = {"status": "FAILED", "error": "boom", "failure_reason": "BOGUS"}
        frame = raw_frame({"msg_type": "TASK_END", "session_id": session_id, "body": body})
        network.send("dev", "orchestrator", frame)
        advance(clock, 2.0)
        assert outcomes == [] and session_id in orchestrator._outstanding
        refusals = [(f["src"], f["dst"]) for f in network.wire_log if f["summary"] == "ERROR"]
        assert refusals == [("orchestrator", "dev")]
        advance(clock, 10.0)
        assert outcomes == [("T", TaskStatus.COMPLETED, "ok", None)]


class TestFramesTheEndpointsSend:
    """``encode`` checks nothing, as ``decode`` is the one check of a frame.
    The sender-side check it made moves here: every frame the endpoints send
    in scenarios 1-3 and in the fingerprint's outage sweep decodes to the
    message sent, and ``jsonschema`` accepts it under the packaged schema."""

    def frames_sent(self, monkeypatch, runs):
        from constellation.aip import endpoints

        sent = []

        def recording_encode(msg):
            frame = encode(msg)
            sent.append((msg, frame))
            return frame

        monkeypatch.setattr(endpoints, "encode", recording_encode)
        for _ in runs():
            pass
        return sent

    def check(self, sent):
        """Decodes every frame and puts each distinct frame through
        ``jsonschema`` once; counts the frames by type."""
        for msg, frame in sent:
            assert decode(frame) == msg
        schema = jsonschema.Draft202012Validator(MESSAGE_SCHEMA)
        for frame in {frame for _, frame in sent}:
            schema.validate(json.loads(frame[4:].decode("utf-8")))
        return Counter(msg.msg_type for msg, _ in sent)

    def test_the_schema_judges_once_per_delivered_frame_at_decode(self, monkeypatch):
        from constellation.aip import endpoints, messages
        from constellation.simnet.scenarios import run_scenario

        calls = Counter()

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(messages, "_judge", counting("judge", check_of("aip_message")))
        monkeypatch.setattr(endpoints, "decode", counting("decode", decode))
        monkeypatch.setattr(endpoints, "encode", counting("encode", encode))
        run_scenario(1, 0)
        assert calls["judge"] == calls["decode"] > 0 and calls["encode"] > calls["decode"]

    def test_scenario_frames(self, monkeypatch):
        from constellation.simnet.scenarios import run_scenario

        sent = self.frames_sent(monkeypatch, lambda: [run_scenario(s, 0) for s in (1, 2, 3)])
        kinds = self.check(sent)
        assert len(sent) == 323 and kinds[MessageType.HEARTBEAT] == 243
        assert kinds[MessageType.REGISTER] == 37

    def test_outage_sweep_frames(self, monkeypatch):
        from test_fingerprints import outage_sweep

        sent = self.frames_sent(monkeypatch, outage_sweep)
        kinds = self.check(sent)
        assert set(kinds) == set(MessageType)
