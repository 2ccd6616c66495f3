"""Typed message vocabulary of the agent-interaction protocol.

Seven message types with per-type schema validation and a length-prefixed
UTF-8 JSON wire encoding. ``decode(encode(m)) == m`` for every valid
message. A frame is checked once, at ``decode``, where it enters an
endpoint: anything failing its schema is refused there, before processing.
``encode`` checks nothing, as it only writes frames the endpoints build.
Every frame goes through one encoder and one decoder built at import and
one length ``Struct``, and message types are looked up by their string
value, so the codec makes no ``Enum`` call. ``decode`` parses a payload with
one call of the decoder's scanner; only a payload that scan does not read
whole (leading or trailing whitespace, trailing data, no value at all) goes
through ``JSONDecoder.decode``, which accepts or refuses it in its own words.
A payload nested past the recursion limit is refused too, so ``decode``
raises nothing but ``SchemaViolation``.
"""

from __future__ import annotations

import codecs
import json
import struct
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Dict, NamedTuple, Optional

from ..errors import SchemaViolation
from ..model import FailureReason


class MessageType(Enum):
    REGISTER = "REGISTER"
    TASK = "TASK"
    COMMAND = "COMMAND"
    COMMAND_RESULTS = "COMMAND_RESULTS"
    TASK_END = "TASK_END"
    HEARTBEAT = "HEARTBEAT"
    ERROR = "ERROR"


# Required body fields (name -> expected python type) per message type value.
_BODY_SCHEMAS: Dict[str, Dict[str, type]] = {
    "REGISTER": {"client_id": str, "metadata": dict},
    "TASK": {"task": dict, "request": str},
    "COMMAND": {"actions": list, "response_id": str},
    "COMMAND_RESULTS": {"action_results": list, "prev_response_id": str},
    "TASK_END": {"status": str},
    "HEARTBEAT": {"timestamp": (int, float)},  # type: ignore[dict-item]
    "ERROR": {"error": str, "context": dict},
}

_MESSAGE_TYPES: Dict[str, MessageType] = {m._value_: m for m in MessageType}
_FRAME_FIELDS = frozenset(("msg_type", "body", "session_id"))
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False)
# ``JSONEncoder.encode`` builds a new C encoder on every call; this one is
# built once, with the arguments ``_ENCODER`` would build it with. Where the
# C accelerator is missing, ``_ENCODER.encode`` serves. No cycle check: a
# frame's body holds none, and a cyclic one still fails, as RecursionError.
_C_ENCODE = c_make_encoder and c_make_encoder(
    None, _ENCODER.default, encode_basestring, _ENCODER.indent, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)
_DECODER = json.JSONDecoder()
_SCAN = _DECODER.scan_once
_LENGTH = struct.Struct(">I")

_TASK_END_STATUSES = ("COMPLETED", "FAILED")
_FAILURE_REASONS = tuple(reason._value_ for reason in FailureReason)
# The layers a REGISTER's metadata may carry, each an object or null, and the
# JSON type of each field group a layer may hold.
_PROFILE_LAYERS = ("service_manifest", "client_telemetry")
_LAYER_FIELDS = {
    "os": str,
    "os_version": str,
    "capabilities": list,
    "performance": dict,
    "paths": dict,
    "network": dict,
}


class _MessageFields(NamedTuple):
    msg_type: MessageType
    body: Optional[Dict[str, Any]] = None
    session_id: Optional[str] = None


class AipMessage(_MessageFields):
    """A message: a named tuple whose missing ``body`` is a fresh dict per
    message, not one default shared by every message."""

    __slots__ = ()

    def __new__(
        cls,
        msg_type: MessageType,
        body: Optional[Dict[str, Any]] = None,
        session_id: Optional[str] = None,
    ) -> "AipMessage":
        return tuple.__new__(cls, (msg_type, {} if body is None else body, session_id))


def validate(msg: AipMessage) -> None:
    msg_type = msg.msg_type
    if type(msg_type) is not MessageType:
        raise SchemaViolation("msg_type", f"unknown message type {msg_type!r}")
    schema = _BODY_SCHEMAS[msg_type._value_]
    for name, expected in schema.items():
        if name not in msg.body:
            raise SchemaViolation(name, f"required by {msg_type._value_}")
        value = msg.body[name]
        # No body field is a boolean, though ``True`` is an int to isinstance.
        if not isinstance(value, expected) or value.__class__ is bool:
            raise SchemaViolation(name, f"expected {expected}, got {type(value).__name__}")
        if expected is str and not value:
            raise SchemaViolation(name, "must be non-empty")
    if msg_type is MessageType.TASK_END:
        if msg.body["status"] not in _TASK_END_STATUSES:
            raise SchemaViolation("status", f"must be one of {_TASK_END_STATUSES}")
        if msg.body["status"] == "COMPLETED" and "result" not in msg.body:
            raise SchemaViolation("result", "required for COMPLETED TASK_END")
        if msg.body["status"] == "FAILED" and "error" not in msg.body:
            raise SchemaViolation("error", "required for FAILED TASK_END")
        if msg.body.get("failure_reason", "EXECUTION_ERROR") not in _FAILURE_REASONS:
            raise SchemaViolation("failure_reason", f"must be one of {_FAILURE_REASONS}")
    if msg_type is MessageType.REGISTER:
        if not msg.body["client_id"].strip():
            raise SchemaViolation("client_id", "must be non-empty")
        for layer in _PROFILE_LAYERS:
            data = msg.body["metadata"].get(layer)
            if data is not None and not isinstance(data, dict):
                raise SchemaViolation(f"metadata.{layer}", f"expected an object, got {type(data).__name__}")
            for name, expected in _LAYER_FIELDS.items():
                if data and name in data and not isinstance(data[name], expected):
                    raise SchemaViolation(
                        f"metadata.{layer}.{name}",
                        f"expected {expected.__name__}, got {type(data[name]).__name__}",
                    )


def encode(msg: AipMessage) -> bytes:
    doc: Dict[str, Any] = {"msg_type": msg.msg_type._value_, "body": msg.body}
    if msg.session_id is not None:
        doc["session_id"] = msg.session_id
    text = _ENCODER.encode(doc) if _C_ENCODE is None else "".join(_C_ENCODE(doc, 0))
    payload = text.encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


def decode(frame: bytes) -> AipMessage:
    if len(frame) < 4:
        raise SchemaViolation("frame", "shorter than the length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    payload = frame[4:]
    if len(payload) != length:
        raise SchemaViolation("frame", f"length prefix {length} != payload {len(payload)}")
    try:
        text = payload.decode("utf-8")
        try:
            doc, end = _SCAN(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            doc = _DECODER.decode(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        if type(exc) is json.JSONDecodeError and payload.startswith(codecs.BOM_UTF8):
            # refused in the words of ``json.loads``
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
        raise SchemaViolation("frame", f"invalid JSON payload: {exc}") from exc
    except RecursionError:  # its text depends on where the limit is met
        raise SchemaViolation("frame", "invalid JSON payload: nested too deep") from None
    if not isinstance(doc, dict):
        raise SchemaViolation("frame", "payload must be a JSON object")
    if "msg_type" not in doc:
        raise SchemaViolation("msg_type", "unknown or missing: 'msg_type'")
    value = doc["msg_type"]
    msg_type = _MESSAGE_TYPES.get(value) if type(value) is str else None
    if msg_type is None:
        raise SchemaViolation(
            "msg_type", f"unknown or missing: {value!r} is not a valid MessageType"
        )
    body = doc.get("body")
    if not isinstance(body, dict):
        raise SchemaViolation("body", "must be a JSON object")
    session_id = doc.get("session_id")
    if type(session_id) is not str and "session_id" in doc:
        raise SchemaViolation("session_id", f"must be a string, got {session_id!r}")
    if len(doc) > (2 if session_id is None else 3):  # a field beside msg_type, body and session_id
        raise SchemaViolation("frame", f"unknown field(s) {sorted(doc.keys() - _FRAME_FIELDS)}")
    msg = AipMessage(msg_type, body, session_id)
    validate(msg)
    return msg
