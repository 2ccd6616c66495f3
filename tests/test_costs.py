"""Call counts as evidence of cost, pinned in ``tests/golden/costs.json``.

The program is deterministic, and so is the number of calls it makes, on any
host and at any speed. For each fixed input this test counts, with cProfile,
the calls made to the program's own named functions (those defined in
``src/constellation``) by one call of an entry point:

- ``build_constellation`` of the config of ``layered_dag(n,
  random.Random(1))`` from ``benchmarks/workloads.py``
- ``from_document`` of that graph's ``to_document``

for n = 100, 1 000 and 3 000 tasks, and

- ``apply_delta`` of a one-edge ``AddDependency`` delta into the 1 000-task
  graph, near its roots (from the first layer to the second) and near its
  leaves (from the last layer but one to the last)

Calls into builtins and the standard library, and comprehensions, are left
out: their counts differ between the Python versions the program supports
(3.12 inlines comprehensions). The file pins each total, the counts of the
whole-graph steps of a build (``insert_entries``, ``validate``, ``_peel``)
and the count of every function a delta calls, and the totals of builds
must grow near-linearly in the graph's size.

A change that means to move a count regenerates the file and names in
CHANGES.md each count that moved, and why:

    PYTHONPATH=src python tests/test_costs.py
"""

from __future__ import annotations

import cProfile
import itertools
import json
import math
import pstats
import random
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

import pytest

import constellation
from constellation import AddDependency, EditDelta, apply_delta, build_constellation, from_document, to_document
from test_fingerprints import _workloads_module

TESTS_DIR = Path(__file__).resolve().parent
COSTS = TESTS_DIR / "golden" / "costs.json"
PACKAGE_DIR = str(Path(constellation.__file__).resolve().parent)

SIZES = (100, 1000, 3000)
PINNED = ("insert_entries", "validate", "_peel")
DELTA_SIZE = 1000
MAX_GROWTH = 1.1


def counts(run: Callable[[], Any], pinned: Optional[Iterable[str]] = PINNED) -> Dict[str, int]:
    """The calls ``run()`` makes to the program's own named functions:
    their total, and the count of each function ``pinned`` names, or of
    every function called where it is None."""
    profile = cProfile.Profile()
    profile.runcall(run)
    calls = dict.fromkeys(pinned or (), 0)
    total = 0
    for (filename, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if not name.startswith("<") and str(Path(filename).resolve()).startswith(PACKAGE_DIR):
            total += ncalls
            if pinned is None or name in calls:
                calls[name] = calls.get(name, 0) + ncalls
    return {"total": total, **calls}


def one_edge(config: Dict[str, Any], near_roots: bool) -> AddDependency:
    """An edge, not yet in ``config``, from the first layer to the second,
    or from the last layer but one to the last: the lowest pair of ids."""
    width = _workloads_module().LAYER_WIDTH
    ids = [task["id"] for task in config["tasks"]]
    upper, lower = (ids[:width], ids[width:2 * width]) if near_roots else (ids[-2 * width:-width], ids[-width:])
    present = {(edge["from_task"], edge["to_task"]) for edge in config["dependencies"]}
    from_task, to_task = min(pair for pair in itertools.product(upper, lower) if pair not in present)
    return AddDependency({"id": "added", "from_task": from_task, "to_task": to_task})


def compute() -> Dict[str, Dict[str, Dict[str, int]]]:
    layered_dag = _workloads_module().layered_dag
    configs = {size: layered_dag(size, random.Random(1)).config for size in SIZES}
    documents = {size: to_document(build_constellation(config)) for size, config in configs.items()}
    graph = build_constellation(configs[DELTA_SIZE])
    deltas = {f"{DELTA_SIZE} near the {end}": EditDelta([one_edge(configs[DELTA_SIZE], end == "roots")])
              for end in ("roots", "leaves")}
    # Warm up first: a schema's check is compiled at its first use in a process.
    from_document(documents[SIZES[0]])
    for delta in deltas.values():
        apply_delta(graph, delta)
    return {
        "build_constellation": {str(size): counts(lambda: build_constellation(configs[size])) for size in SIZES},
        "from_document": {str(size): counts(lambda: from_document(documents[size])) for size in SIZES},
        "apply_delta": {name: counts(lambda: apply_delta(graph, delta), None) for name, delta in deltas.items()},
    }


def growth_exponent(totals: Dict[str, Dict[str, int]]) -> float:
    """The least-squares slope of log(total) over log(size)."""
    points = [(math.log(int(size)), math.log(counted["total"])) for size, counted in totals.items()]
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / sum((x - mean_x) ** 2 for x, _ in points)


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("entry", ["build_constellation", "from_document", "apply_delta"])
def test_call_counts_match_the_committed_file(computed, entry):
    expected = json.loads(COSTS.read_text(encoding="utf-8"))[entry]
    assert computed[entry] == expected


@pytest.mark.parametrize("entry", ["build_constellation", "from_document"])
def test_calls_grow_near_linearly(computed, entry):
    assert growth_exponent(computed[entry]) <= MAX_GROWTH


if __name__ == "__main__":
    COSTS.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {COSTS}")
