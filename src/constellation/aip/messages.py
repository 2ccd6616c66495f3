"""Typed message vocabulary of the agent-interaction protocol.

Seven message types with per-type schema validation and a length-prefixed
UTF-8 JSON wire encoding. ``decode(encode(m)) == m`` for every valid
message; anything failing its schema is rejected before processing.
Every frame goes through one reused ``JSONEncoder`` and one length
``Struct``, and message types are looked up by their string value, so the
codec makes no ``Enum`` call.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum
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
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
_LENGTH = struct.Struct(">I")

_TASK_END_STATUSES = ("COMPLETED", "FAILED")
_FAILURE_REASONS = tuple(reason._value_ for reason in FailureReason)


@dataclass(frozen=True)
class AipMessage:
    msg_type: MessageType
    body: Dict[str, Any] = field(default_factory=dict)
    session_id: Optional[str] = None


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
    validate(msg)
    doc: Dict[str, Any] = {"msg_type": msg.msg_type._value_, "body": msg.body}
    if msg.session_id is not None:
        doc["session_id"] = msg.session_id
    payload = _ENCODER.encode(doc).encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


def decode(frame: bytes) -> AipMessage:
    if len(frame) < 4:
        raise SchemaViolation("frame", "shorter than the length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    payload = frame[4:]
    if len(payload) != length:
        raise SchemaViolation("frame", f"length prefix {length} != payload {len(payload)}")
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    msg = AipMessage(msg_type=msg_type, body=body, session_id=doc.get("session_id"))
    validate(msg)
    return msg
