"""Typed message vocabulary of the agent-interaction protocol.

Seven message types with per-type schema validation and a length-prefixed
UTF-8 JSON wire encoding. ``decode(encode(m)) == m`` for every valid
message. A frame is checked once, at ``decode``, where it enters an
endpoint: anything failing its schema is refused there, before processing.
``encode`` checks nothing, as it only writes frames the endpoints build.
Every frame goes through one encoder and one decoder built at import and
one length ``Struct``, and message types are looked up by their string
value, so the codec makes no ``Enum`` call.
"""

from __future__ import annotations

import codecs
import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Dict, Optional

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
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, check_circular=False)
# ``JSONEncoder.encode`` builds a new C encoder on every call; this one is
# built once, with the arguments ``_ENCODER`` would build it with. Where the
# C accelerator is missing, ``_ENCODER.encode`` serves. No cycle check: a
# frame's body holds none, and a cyclic one still fails, as RecursionError.
_C_ENCODE = c_make_encoder and c_make_encoder(
    None, _ENCODER.default, encode_basestring, _ENCODER.indent, _ENCODER.key_separator,
    _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)
_DECODE = json.JSONDecoder().decode
_LENGTH = struct.Struct(">I")

_TASK_END_STATUSES = ("COMPLETED", "FAILED")
_FAILURE_REASONS = tuple(reason._value_ for reason in FailureReason)


@dataclass(frozen=True, init=False)
class AipMessage:
    """A message. Frozen, with a hand-written ``__init__`` that writes each
    field once into the instance dict, as ``model.TaskStar`` does; a
    missing ``body`` is a fresh dict per message."""

    msg_type: MessageType
    body: Dict[str, Any] = field(default_factory=dict)
    session_id: Optional[str] = None

    def __init__(
        self,
        msg_type: MessageType,
        body: Optional[Dict[str, Any]] = None,
        session_id: Optional[str] = None,
    ) -> None:
        values = self.__dict__
        values["msg_type"] = msg_type
        values["body"] = {} if body is None else body
        values["session_id"] = session_id


def validate(msg: AipMessage) -> None:
    msg_type = msg.msg_type
    if type(msg_type) is not MessageType:
        raise SchemaViolation("msg_type", f"unknown message type {msg_type!r}")
    schema = _BODY_SCHEMAS[msg_type._value_]
    for name, expected in schema.items():
        if name not in msg.body:
            raise SchemaViolation(name, f"required by {msg_type._value_}")
        if not isinstance(msg.body[name], expected):
            raise SchemaViolation(
                name, f"expected {expected}, got {type(msg.body[name]).__name__}"
            )
        if expected is str and not msg.body[name]:
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
    if msg_type is MessageType.REGISTER and not msg.body["client_id"].strip():
        raise SchemaViolation("client_id", "must be non-empty")


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
        doc = _DECODE(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        if type(exc) is json.JSONDecodeError and payload.startswith(codecs.BOM_UTF8):
            # refused in the words of ``json.loads``
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
        raise SchemaViolation("frame", f"invalid JSON payload: {exc}") from exc
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
    msg = AipMessage(msg_type, body, session_id)
    validate(msg)
    return msg
