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
  leaves (from the last layer but one to the last); of the ten ``AddTask``
  ops that replan-stream's first round puts into the empty graph; and of a
  build of the 100-task config followed by one such edge near its roots
- ``Trigger.matches`` of 2 000 patterns against 2 000 events, the path a
  batch of more than one event takes
- ``run_scenario`` of each of scenarios 1-3, once its files are loaded
- the heartbeats of one idle device: ``build_pair`` of ``test_aip`` run
  to 500 s with no task, which sends 200 frames, none with a session id
- ``explore`` and ``explore_extended``, the golden and the extended
  explorations

Calls into builtins and the standard library, and comprehensions, are left
out: their counts differ between the Python versions the program supports
(3.12 inlines comprehensions). The file pins each total, the counts of the
whole-graph steps of a build (``insert_entries``, ``validate``, ``_peel``)
and the count of every function a delta, a trigger, a scenario run, an
exploration or the heartbeats call, and the totals of builds must grow
near-linearly in the graph's size.

It also pins what importing the program builds: in a fresh interpreter,
after ``import constellation, constellation.simnet.scenarios`` (the import
a scenario run makes), the number of the program's classes that
``dataclasses`` built, each of which generates and compiles code at import,
and whether the Markdown log module was imported, which only a reader of a
run log needs.

A change that means to move a count regenerates the file and names in
CHANGES.md each count that moved, and why:

    PYTHONPATH=src python tests/test_costs.py
"""

from __future__ import annotations

import cProfile
import itertools
import json
import math
import os
import pstats
import random
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional

import pytest

import constellation
from constellation import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    TaskConstellation,
    EventKind,
    OrchestratorEvent,
    apply_delta,
    build_constellation,
    from_document,
    to_document,
)
from constellation import explorer
from constellation.planner import Trigger
from constellation.simnet.scenarios import run_scenario
from test_aip import advance, build_pair
from test_fingerprints import _workloads_module

TESTS_DIR = Path(__file__).resolve().parent
COSTS = TESTS_DIR / "golden" / "costs.json"
PACKAGE_DIR = str(Path(constellation.__file__).resolve().parent)

SIZES = (100, 1000, 3000)
PINNED = ("insert_entries", "validate", "_peel")
DELTA_SIZE = 1000
TRIGGER_SIZE = 2000
HEARTBEAT_SECONDS = 500.0
SCENARIOS = (1, 2, 3)
MAX_GROWTH = 1.1

# Run in a fresh interpreter: what importing the scenario runner builds.
IMPORTED = """
import dataclasses, json, sys
import constellation, constellation.simnet.scenarios
classes = [value for name, module in list(sys.modules.items()) if name.split(".")[0] == "constellation"
           for value in vars(module).values() if isinstance(value, type) and value.__module__ == name]
print(json.dumps({"dataclasses": sum(map(dataclasses.is_dataclass, classes)),
                  "mdlog_imported": "constellation.simnet.mdlog" in sys.modules}))
"""


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


def heartbeats() -> None:
    clock, network, _, _ = build_pair(outages=[])
    advance(clock, HEARTBEAT_SECONDS)
    assert len(network.wire_log) == 200 and all(f["summary"] in ("REGISTER", "HEARTBEAT") for f in network.wire_log)


def imported() -> Dict[str, Any]:
    env = dict(os.environ, PYTHONPATH=str(Path(PACKAGE_DIR).parent))
    run = subprocess.run([sys.executable, "-c", IMPORTED], env=env, capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def compute() -> Dict[str, Any]:
    layered_dag = _workloads_module().layered_dag
    configs = {size: layered_dag(size, random.Random(1)).config for size in SIZES}
    documents = {size: to_document(build_constellation(config)) for size, config in configs.items()}
    graph = build_constellation(configs[DELTA_SIZE])
    deltas = {(graph, f"{DELTA_SIZE} near the {end}"): EditDelta([one_edge(configs[DELTA_SIZE], end == "roots")])
              for end in ("roots", "leaves")}
    workloads = _workloads_module()
    roots = [AddTask(workloads._task_spec(f"r{i:03d}")) for i in range(workloads.REPLAN_ROOTS)]
    deltas[TaskConstellation(), f"{len(roots)} tasks into the empty graph"] = EditDelta(roots)
    build = [BuildConstellation(configs[SIZES[0]]), one_edge(configs[SIZES[0]], True)]
    deltas[TaskConstellation(), f"{SIZES[0]} built, then one edge near the roots"] = EditDelta(build)
    patterns = ((EventKind.TASK_COMPLETED, "*"),) * TRIGGER_SIZE
    batch = [OrchestratorEvent(EventKind.TASK_COMPLETED, f"t{i}", 0.0, {}) for i in range(TRIGGER_SIZE)]
    # Warm up first: a schema's check is compiled at its first use in a
    # process, and a scenario's files are read and judged at its first run.
    from_document(documents[SIZES[0]])
    for (pre, _), delta in deltas.items():
        apply_delta(pre, delta)
    for scenario in SCENARIOS:
        run_scenario(scenario)
    return {
        "import": imported(),
        "trigger": {f"{TRIGGER_SIZE} patterns": counts(lambda: Trigger(patterns).matches(batch), None)},
        "run_scenario": {str(scenario): counts(lambda: run_scenario(scenario), None) for scenario in SCENARIOS},
        "heartbeats": {f"{HEARTBEAT_SECONDS:g} s idle": counts(heartbeats, None)},
        "build_constellation": {str(size): counts(lambda: build_constellation(configs[size])) for size in SIZES},
        "from_document": {str(size): counts(lambda: from_document(documents[size])) for size in SIZES},
        "apply_delta": {name: counts(lambda: apply_delta(pre, delta), None) for (pre, name), delta in deltas.items()},
        "explore": {"golden": counts(explorer.explore, None), "extended": counts(explorer.explore_extended, None)},
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


@pytest.mark.parametrize(
    "entry",
    ["build_constellation", "from_document", "apply_delta", "trigger", "run_scenario", "heartbeats", "explore", "import"],
)
def test_call_counts_match_the_committed_file(computed, entry):
    expected = json.loads(COSTS.read_text(encoding="utf-8"))[entry]
    assert computed[entry] == expected


def test_importing_the_scenario_runner_leaves_the_markdown_log_out(computed):
    assert computed["import"]["mdlog_imported"] is False


@pytest.mark.parametrize("entry", ["build_constellation", "from_document"])
def test_calls_grow_near_linearly(computed, entry):
    assert growth_exponent(computed[entry]) <= MAX_GROWTH


if __name__ == "__main__":
    COSTS.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {COSTS}")
