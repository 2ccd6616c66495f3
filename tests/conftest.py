"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

from constellation import TaskConstellation, TaskStarLine, build_constellation, deserialize

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS_DIR = ROOT / "scenarios"
SCHEMAS_DIR = ROOT / "schemas"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def load_schema(name: str) -> dict:
    return load_json(SCHEMAS_DIR / name)


@pytest.fixture
def fig4() -> TaskConstellation:
    return deserialize((SCENARIOS_DIR / "fig4.json").read_text(encoding="utf-8"))


def random_dag(
    rng: random.Random,
    max_nodes: int = 8,
    edge_probability: float = 0.4,
    devices: Tuple[str, ...] = ("dev0", "dev1", "dev2"),
    kinds: Tuple[str, ...] = ("UNCONDITIONAL", "SUCCESS_ONLY", "CONDITIONAL"),
) -> TaskConstellation:
    """Random DAG over a random topological order, so acyclicity holds by
    construction. CONDITIONAL edges use the built-in "always" predicate."""
    n = rng.randint(1, max_nodes)
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
