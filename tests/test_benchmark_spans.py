"""The benchmark's traced run wraps functions of ``constellation`` by name:
every ``SPANS``/``COUNTERS`` entry of ``benchmarks/spans.py`` must still
resolve to a callable, so a rename or deletion that would break
``run.py --trace 1`` fails here. The table is read from the source with
``ast``; no benchmark code runs."""

import ast
import importlib

import pytest

from conftest import ROOT


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
