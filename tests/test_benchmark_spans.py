"""The benchmark's traced run wraps functions of ``constellation`` by name:
every ``SPANS``/``COUNTERS`` entry of ``benchmarks/spans.py`` must still
resolve to a callable, so a rename or deletion that would break
``run.py --trace 1`` fails here, and the entries a scenario run should
reach must be called there by that name, so that no traced figure reads
zero. The table is read from the source with ``ast``; no benchmark code
runs."""

import ast
import importlib
from collections import Counter

import pytest

from conftest import ROOT
from constellation.simnet.scenarios import run_scenario


def traced_entries():
    tree = ast.parse((ROOT / "benchmarks" / "spans.py").read_text(encoding="utf-8"))
    entries = []
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id in ("SPANS", "COUNTERS"):
            entries += ast.literal_eval(node.value)
    return entries


ENTRIES = traced_entries()


def test_both_tables_are_read():
    names = {name for name, _, _ in ENTRIES}
    assert {"model.ready_tasks", "explorer.successors", "model.transition"} <= names


@pytest.mark.parametrize("name,module,path", ENTRIES, ids=[f"{e[0]}@{e[1]}" for e in ENTRIES])
def test_traced_name_resolves(name, module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{name}: {module}.{path} is not callable"


# The traced names a run of scenario 1 passes through.
SCENARIO_NAMES = {
    "aip.encode",
    "aip.decode",
    "simnet.send",
    "clock.step",
    "agent.serve_task",
    "agent.reasoner_choose",
    "agent.executor_execute",
    "planner.edit",
}


def test_a_scenario_run_reaches_every_name_it_traces(monkeypatch):
    fired = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            fired[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, module, path in ENTRIES:
        if name in SCENARIO_NAMES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    assert {name for name, _, _ in ENTRIES} >= SCENARIO_NAMES
    run_scenario(1, 0)
    assert {name for name in SCENARIO_NAMES if not fired[name]} == set()
