"""Behaviour fingerprint: sha256 digests of the program's outputs, pinned in
``tests/golden/fingerprints.json``.

A change that means to keep behaviour leaves every digest as it is. A change
that means to alter an output regenerates the file and names the digests
that moved, with the reason:

    PYTHONPATH=src python tests/test_fingerprints.py

Digested outputs:

- each packaged scenario 1-3 x network seed 0-49: the report JSON, the
  Markdown log, the session logs and the full wire log (each frame's entry
  and its bytes)
- an outage sweep over ``test_aip.build_pair``: one task dispatched at
  1.0 s, one outage on the orchestrator link, each run to 300 s. It pins
  today's behaviour, including the runs in which a short outage drops the
  TASK or the TASK_END and no side notices.
- the layered-bulk and replan-stream reports of the benchmark's seeds 1-2,
  from the generators in ``benchmarks/workloads.py``
- the stats of both explorer modes
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List

import pytest

from constellation import TaskStar, explorer
from constellation.simnet import scenarios
from constellation.simnet.network import SimNetwork

TESTS_DIR = Path(__file__).resolve().parent
ROOT = TESTS_DIR.parent
FINGERPRINTS = TESTS_DIR / "golden" / "fingerprints.json"

SCENARIO_SEEDS = range(50)
WORKLOAD_SEEDS = (1, 2)
WORKLOAD_TASKS = 100
SWEEP_STARTS = [1.0 + i * 20.0 / 29 for i in range(30)]
SWEEP_LENGTHS = (0.5, 2.0, 5.0, 10.0, 15.0, 40.0)
SWEEP_EXEC_DURATIONS = (0.5, 3.0, 12.0)


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, ensure_ascii=False).encode("utf-8")


class RecordingNetwork(SimNetwork):
    """A ``SimNetwork`` that keeps every frame it is asked to send."""

    created: List["RecordingNetwork"] = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames: List[bytes] = []
        RecordingNetwork.created.append(self)

    def send(self, src, dst, frame, summary=""):
        self.frames.append(frame)
        super().send(src, dst, frame, summary=summary)


def scenario_digest(scenario: int, seed: int) -> str:
    original = scenarios.SimNetwork
    RecordingNetwork.created = []
    scenarios.SimNetwork = RecordingNetwork
    try:
        result = scenarios.run_scenario(scenario, seed)
    finally:
        scenarios.SimNetwork = original
    (network,) = RecordingNetwork.created
    digest = hashlib.sha256()
    digest.update(result.report.to_json().encode("utf-8"))
    digest.update(result.markdown.encode("utf-8"))
    digest.update(_canonical(result.session_logs))
    digest.update(_canonical(network.wire_log))
    for frame in network.frames:
        digest.update(frame)
    return digest.hexdigest()


def outage_sweep() -> Iterator[List[Any]]:
    """Each run of the sweep, in order: its wire log, session logs,
    callbacks, pool and the device's connection flag."""
    from test_aip import advance, build_pair

    for exec_duration in SWEEP_EXEC_DURATIONS:
        for length in SWEEP_LENGTHS:
            for start in SWEEP_STARTS:
                clock, network, registry, orchestrator, server = build_pair(
                    outages=[(start, start + length)], exec_duration=exec_duration
                )
                advance(clock, 1.0)
                callbacks: List[Any] = []
                orchestrator.dispatch(
                    TaskStar("T", "dev", description="job"),
                    lambda task_id, status, text, reason: callbacks.append(
                        (task_id, status._value_, text, reason and reason._value_)
                    ),
                )
                advance(clock, 300.0)
                logs = {
                    f"{endpoint.address}:{sid}": session.log
                    for endpoint in (orchestrator, server)
                    for sid, session in sorted(endpoint.sessions.items())
                }
                yield [network.wire_log, logs, callbacks, registry.available(), server.connected]


def outage_sweep_digest() -> str:
    digest = hashlib.sha256()
    for run in outage_sweep():
        digest.update(_canonical(run))
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _workloads_module():
    """``benchmarks/workloads.py``, imported read-only under its own name."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "benchmarks" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def workload_digest(name: str, seed: int) -> str:
    workloads = _workloads_module()
    if name == "layered-bulk":
        reports = [workloads.request_layered(i) for i in workloads.layered_inputs(seed, WORKLOAD_TASKS)]
    else:
        reports = [workloads.request_replan(i)[0] for i in workloads.replan_inputs(seed, WORKLOAD_TASKS)]
    digest = hashlib.sha256()
    for report in reports:
        digest.update(report.to_json().encode("utf-8"))
    return digest.hexdigest()


def explorer_digest(mode: str) -> str:
    stats = explorer.explore() if mode == "golden" else explorer.explore_extended()
    return hashlib.sha256(_canonical(stats.as_dict())).hexdigest()


def compute(group: str) -> Dict[str, str]:
    if group == "scenarios":
        return {
            f"{scenario}/{seed}": scenario_digest(scenario, seed)
            for scenario in (1, 2, 3)
            for seed in SCENARIO_SEEDS
        }
    if group == "outage_sweep":
        return {"build_pair": outage_sweep_digest()}
    if group == "workloads":
        return {
            f"{name}/{seed}": workload_digest(name, seed)
            for name in ("layered-bulk", "replan-stream")
            for seed in WORKLOAD_SEEDS
        }
    return {mode: explorer_digest(mode) for mode in ("golden", "extended")}


GROUPS = ("scenarios", "outage_sweep", "workloads", "explorer")


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_committed_fingerprint(group):
    expected = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))[group]
    got = compute(group)
    moved = sorted(key for key in expected.keys() | got.keys() if expected.get(key) != got.get(key))
    assert not moved, f"{group}: digests moved for {moved}"


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS_DIR))
    document = {group: compute(group) for group in GROUPS}
    FINGERPRINTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FINGERPRINTS}")
