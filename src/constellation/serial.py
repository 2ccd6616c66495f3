"""Canonical JSON document format for constellations.

The layout is fixed (top-level keys, arrays sorted by id, UPPER_SNAKE_CASE
enums) so serialized documents are stable and diff-friendly. The JSON
Schema ``constellation/schemas/constellation.schema.json`` is the one judge
of a document's shape: ``from_document`` hands it to ``insert_entries``,
whose check refuses what the schema refuses, a misspelt key or an unknown
``schema_version`` included. The walk that inserts the graph's edges judges
the graph too, and settles its readiness once it is valid.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .errors import ParseError, ValidationFailed
from .model import TaskConstellation, TaskStar, TaskStarLine, insert_entries
from .schema import _JSON

SCHEMA_VERSION = 1


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
        "dep_type": edge.dep_type._value_,
        "description": edge.description,
    }
    if edge.condition_id is not None:
        doc["condition_id"] = edge.condition_id
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
    """The document as JSON text, or a ``ValueError`` for NaN or Infinity."""
    return json.dumps(to_document(constellation), indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def from_document(doc: Dict[str, Any]) -> TaskConstellation:
    """The graph of a document. A malformed document raises at once; else
    its repeated ids, mismatched ``dependencies`` lists and structural
    faults are raised together as one ``ValidationFailed``."""
    constellation, violations = insert_entries(doc, created=False)
    if violations:
        raise ValidationFailed(violations)
    constellation.version = int(doc.get("version", 0))  # an integral float is an integer
    return constellation


def deserialize(text: str) -> TaskConstellation:
    try:
        doc = _JSON.decode(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_document(doc)
