"""Canonical JSON document format for constellations.

The layout is fixed (top-level keys, arrays sorted by id, UPPER_SNAKE_CASE
enums) so serialized documents are stable and diff-friendly; the matching
JSON Schema ships under ``schemas/constellation.schema.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from .errors import ParseError
from .model import TaskConstellation, TaskStar, TaskStarLine, from_entries

SCHEMA_VERSION = 1


def read_object(source: Union[str, Path, Dict[str, Any]], what: str) -> Dict[str, Any]:
    """The JSON object ``source`` names: the document in the file at a path,
    or ``source`` itself. Raises ``ParseError`` for an unreadable file,
    invalid JSON, or a document that is not an object."""
    if isinstance(source, (str, Path)):
        try:
            doc = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot load {what} {source}: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ParseError(f"cannot load {what} {source}: expected a JSON object, got {type(doc).__name__}")
    return doc


def check_duration(duration: Any) -> None:
    """Raise ``ValueError`` unless a script's ``duration`` is a number >= 0."""
    if isinstance(duration, bool) or not isinstance(duration, (int, float)) or not duration >= 0:
        raise ValueError(f"duration must be a number >= 0, got {duration!r}")


def task_to_doc(task: TaskStar, constellation: TaskConstellation) -> Dict[str, Any]:
    # Enum values are read through ``_value_``, a plain attribute; the
    # ``value`` property costs a descriptor call per field.
    doc: Dict[str, Any] = {
        "id": task.id,
        "name": task.name,
        "description": task.description,
        "device": task.device,
        "tips": list(task.tips),
        "status": task.status._value_,
        "dependencies": constellation.dependencies_of(task.id),
    }
    if task.result is not None:
        doc["result"] = task.result
    if task.failure_reason is not None:
        doc["failure_reason"] = task.failure_reason._value_
    return doc


def edge_to_doc(edge: TaskStarLine) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "id": edge.id,
        "from_task": edge.from_task,
        "to_task": edge.to_task,
        "dep_type": edge.dep_type.kind._value_,
        "description": edge.description,
    }
    if edge.dep_type.condition_id is not None:
        doc["condition_id"] = edge.dep_type.condition_id
    return doc


def to_document(constellation: TaskConstellation) -> Dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "request": constellation.request,
        "version": constellation.version,
        "tasks": [
            task_to_doc(constellation.tasks[tid], constellation)
            for tid in sorted(constellation.tasks)
        ],
        "dependencies": [edge_to_doc(constellation.edges[eid]) for eid in sorted(constellation.edges)],
    }


def serialize(constellation: TaskConstellation) -> str:
    return json.dumps(to_document(constellation), indent=2, ensure_ascii=False) + "\n"


def from_document(doc: Dict[str, Any]) -> TaskConstellation:
    if isinstance(doc, dict) and "schema_version" in doc:
        schema_version = doc["schema_version"]
        if isinstance(schema_version, bool) or schema_version != SCHEMA_VERSION:
            raise ParseError(f"schema_version must be {SCHEMA_VERSION}, not {schema_version!r}")
    constellation = from_entries(doc, created=False)
    version = doc.get("version", 0)
    if isinstance(version, bool) or not isinstance(version, int) or version < 0:
        raise ParseError(f"version must be an integer >= 0, not {version!r}")
    constellation.version = version
    return constellation


def deserialize(text: str) -> TaskConstellation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_document(doc)
