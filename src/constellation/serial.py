"""Canonical JSON document format for constellations.

The layout is fixed (top-level keys, arrays sorted by id, UPPER_SNAKE_CASE
enums) so serialized documents are stable and diff-friendly; the matching
JSON Schema ships under ``schemas/constellation.schema.json``.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .errors import ParseError
from .model import TaskConstellation, TaskStar, TaskStarLine, from_entries

SCHEMA_VERSION = 1


def task_to_doc(task: TaskStar, constellation: TaskConstellation) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "id": task.id,
        "name": task.name,
        "description": task.description,
        "device": task.device,
        "tips": list(task.tips),
        "status": task.status.value,
        "dependencies": constellation.dependencies_of(task.id),
    }
    if task.result is not None:
        doc["result"] = task.result
    if task.failure_reason is not None:
        doc["failure_reason"] = task.failure_reason.value
    return doc


def edge_to_doc(edge: TaskStarLine) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "id": edge.id,
        "from_task": edge.from_task,
        "to_task": edge.to_task,
        "dep_type": edge.dep_type.kind.value,
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
