"""Typed message vocabulary of the agent-interaction protocol.

Seven message types and a length-prefixed UTF-8 JSON wire encoding;
``decode(encode(m)) == m`` for every valid message. A frame is judged once,
where it enters an endpoint, at ``decode``, by the check generated from
``schemas/aip_message.schema.json`` and compiled at the first frame, which
also returns its ``AipMessage``: a ``SchemaViolation`` names the field it
refuses, a body field without its ``body.`` prefix. ``encode`` checks
nothing, as it only writes frames the endpoints build. It writes the
envelope by hand, as the encoder would (keys
sorted, the session id escaped by the encoder's own string function), and
only the body goes through the one encoder built at import. Every frame goes
through one decoder and one length ``Struct``, and message types are looked
up by their string value, so the codec makes no ``Enum`` call. ``decode``
parses a payload with one call of the scanner of the one reader of JSON
text, which refuses NaN and infinity; only a payload that scan does not read
whole goes through its ``decode``, which accepts or refuses it in its own
words. A payload nested too deep is refused too, so ``decode`` raises
nothing but ``SchemaViolation``.
"""

from __future__ import annotations

import codecs
import json
import struct
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring
from typing import Any, Dict, NamedTuple, Optional

from ..errors import SchemaViolation
from ..schema import _JSON, RECORDS, Refusal, check_of


class MessageType(Enum):
    REGISTER = "REGISTER"
    TASK = "TASK"
    COMMAND = "COMMAND"
    COMMAND_RESULTS = "COMMAND_RESULTS"
    TASK_END = "TASK_END"
    HEARTBEAT = "HEARTBEAT"
    ERROR = "ERROR"


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
_DECODER = _JSON  # the one reader of JSON text: no NaN or Infinity, as in documents
_SCAN = _DECODER.scan_once
_LENGTH = struct.Struct(">I")


class AipMessage(NamedTuple):
    msg_type: MessageType
    body: Dict[str, Any]
    session_id: Optional[str] = None


def _message(msg_type: str, body: Dict[str, Any], session_id: Optional[str]) -> AipMessage:
    """The record the check of a frame returns: its type looked up by value."""
    return tuple.__new__(AipMessage, (_MESSAGE_TYPES[msg_type], body, session_id))


RECORDS["AipMessage"] = _message


def _judge(doc: Any) -> AipMessage:
    """The check of a frame's document: compiled at the first frame, which
    binds it in this function's place, so a later frame calls it directly."""
    global _judge
    _judge = check_of("aip_message")
    return _judge(doc)


def encode(msg: AipMessage) -> bytes:
    msg_type, body, session_id = msg
    text = _ENCODER.encode(body) if _C_ENCODE is None else "".join(_C_ENCODE(body, 0))
    # The envelope as ``_ENCODER`` writes it: keys sorted, the same separators.
    if session_id is None:
        text = f'{{"body": {text}, "msg_type": "{msg_type._value_}"}}'
    else:
        text = f'{{"body": {text}, "msg_type": "{msg_type._value_}", "session_id": {encode_basestring(session_id)}}}'
    payload = text.encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


def decode(frame: bytes) -> AipMessage:
    if len(frame) < 4:
        raise SchemaViolation("frame", "shorter than the length prefix")
    (length,) = _LENGTH.unpack_from(frame)
    if length != len(frame) - 4:
        raise SchemaViolation("frame", f"length prefix {length} != payload {len(frame) - 4}")
    payload = frame[4:]
    try:
        text = payload.decode("utf-8")
        try:
            doc, end = _SCAN(text, 0)
        except StopIteration:
            end = -1
        if end != len(text):
            doc = _DECODER.decode(text)
    except ValueError as exc:  # bad UTF-8, bad JSON or a number JSON has not
        if type(exc) is json.JSONDecodeError and payload.startswith(codecs.BOM_UTF8):
            # refused in the words of ``json.loads``
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0)
        raise SchemaViolation("frame", f"invalid JSON payload: {exc}") from exc
    except RecursionError:  # its text depends on where the limit is met
        raise SchemaViolation("frame", "invalid JSON payload: nested too deep") from None
    try:
        return _judge(doc)
    except Refusal as exc:
        raise SchemaViolation(".".join(map(str, exc.path[1:] or exc.path)) or "frame", exc.reason) from exc
