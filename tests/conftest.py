"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path
from typing import List, Tuple

import pytest

from constellation import TaskConstellation, TaskStarLine, build_constellation, deserialize

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS_DIR = ROOT / "src" / "constellation" / "scenarios"
SCHEMAS_DIR = ROOT / "src" / "constellation" / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_schema(name: str) -> dict:
    return load_json(SCHEMAS_DIR / name)


# Replacement values for ``mutated``: each JSON type, booleans, integral and
# negative numbers, empty and enum-like strings, and arrays of one to three items.
MUTANT_VALUES = (
    None, True, False, 0, -1, 1.0, 2.5, -0.5, "", " ", "x", "CONTINUE", "SUCCESS",
    [], [5.0], [1.0, 2.0], [1, 2, 3], ["a"], {}, {"a": 1},
)


def _replacement(value, rng: random.Random, values):
    """One of ``values``, or half the time a near miss of ``value``: a number
    negated, zeroed, made a float or off by a half; a string changed."""
    if rng.random() < 0.5:
        return rng.choice(values)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return rng.choice((0, -value, float(value), value + 0.5))
    if isinstance(value, str):
        return rng.choice((value.lower(), value + "x", ""))
    return rng.choice(values)


def mutated(doc, rng: random.Random, values=MUTANT_VALUES):
    """A copy of ``doc`` with one change at a place picked at random among
    all its values: the value dropped or replaced, its key misspelt, or a
    sibling added (under a key found elsewhere in the document, or unknown)."""
    doc = copy.deepcopy(doc)
    places, keys = [], {"extra"}

    def walk(node):
        for key, child in list(node.items() if isinstance(node, dict) else enumerate(node)):
            places.append((node, key))
            if isinstance(child, (dict, list)):
                walk(child)
        if isinstance(node, dict):
            keys.update(node)

    walk(doc)
    if not places:  # an empty document can only grow
        doc[rng.choice(sorted(keys))] = rng.choice(values)
        return doc
    parent, key = rng.choice(places)
    op = rng.choice(("drop", "rename", "add", "replace", "replace"))
    if op == "drop":
        del parent[key]
    elif op == "add" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]) if rng.random() < 0.5 else rng.choice(values))
    elif op == "add":
        parent[rng.choice(sorted(keys))] = rng.choice(values)
    elif op == "rename" and isinstance(parent, dict):
        i = rng.randrange(len(key) or 1)
        swapped = key[:i] + key[i + 1 : i + 2] + key[i : i + 1] + key[i + 2 :]
        parent[swapped if swapped != key else key + "x"] = parent.pop(key)
    else:
        parent[key] = _replacement(parent[key], rng, values)
    return doc


@pytest.fixture
def fig4() -> TaskConstellation:
    return deserialize((SCENARIOS_DIR / "fig4.json").read_text(encoding="utf-8"))


def random_dag(
    rng: random.Random,
    max_nodes: int = 8,
    min_nodes: int = 1,
    edge_probability: float = 0.4,
    devices: Tuple[str, ...] = ("dev0", "dev1", "dev2"),
    kinds: Tuple[str, ...] = ("UNCONDITIONAL", "SUCCESS_ONLY", "CONDITIONAL"),
) -> TaskConstellation:
    """Random DAG over a random topological order, so acyclicity holds by
    construction. CONDITIONAL edges use the built-in "always" predicate."""
    n = rng.randint(min_nodes, max_nodes)
    order = [f"t{i}" for i in range(n)]
    tasks = [
        {
            "id": tid,
            "name": tid,
            "description": f"work item {tid}",
            "device": rng.choice(devices),
        }
        for tid in order
    ]
    dependencies = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                kind = rng.choice(kinds)
                spec = {
                    "id": f"e{len(dependencies)}",
                    "from_task": order[i],
                    "to_task": order[j],
                    "dep_type": kind,
                }
                if kind == "CONDITIONAL":
                    spec["condition_id"] = "always"
                dependencies.append(spec)
    return build_constellation(
        {"request": "random dag", "tasks": tasks, "dependencies": dependencies}
    )


def layered_config(size: int, width: int, fan_in: int) -> dict:
    """Layers of ``width`` tasks; each task outside the first depends on the
    first ``fan_in`` tasks of the layer before it."""
    ids = [f"t{i:03d}" for i in range(size)]
    layers = [ids[i : i + width] for i in range(0, size, width)]
    return {
        "request": f"layered build of {size} tasks",
        "tasks": [{"id": tid, "device": "dev0"} for tid in ids],
        "dependencies": [
            {"id": f"{up}>{tid}", "from_task": up, "to_task": tid}
            for upper, layer in zip(layers, layers[1:])
            for tid in layer
            for up in upper[:fan_in]
        ],
    }


def scanned_incoming(c: TaskConstellation, task_id: str) -> List[TaskStarLine]:
    """Oracle for ``incoming``: a full scan of the edges, id-sorted."""
    return [e for _, e in sorted(c.edges.items()) if e.to_task == task_id]


def topo_order(c: TaskConstellation) -> List[str]:
    remaining = dict.fromkeys(sorted(c.tasks))
    order: List[str] = []
    while remaining:
        for tid in list(remaining):
            if all(e.from_task not in remaining for e in c.incoming(tid)):
                order.append(tid)
                del remaining[tid]
                break
        else:
            raise AssertionError("cyclic test graph")
    return order
