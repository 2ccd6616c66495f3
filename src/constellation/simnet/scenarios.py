"""Fault-injection scenario runner.

A scenario file wires together a constellation fixture, a planner script,
per-device executors/reasoners, link latencies and scripted outages, and an
expected verdict. Everything runs on one virtual clock and nothing draws a
random number, so the scenario alone determines the run report. A run takes a
seed, but no run draws from it yet. ``load_scenario`` is the one reader of a
scenario, ``run_scenario``'s included; a result renders its Markdown run log
only when it is read.

A process reads and judges a scenario file and the files it names once, and
again only when one of them changes: each file read is stamped with its
``st_mtime_ns`` and ``st_size``, and a run whose stamps all still match
reuses what was loaded. Runs only read what is loaded. A scenario document
(a dict) is judged on every run, since its caller may change it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..agent.reasoner import ScriptedReasoner
from ..agent.executor import ScriptedExecutor
from ..agent.server import AgentServer
from ..aip.endpoints import (
    ConstellationEndpoint,
    DeviceClientEndpoint,
    DeviceServerEndpoint,
)
from ..clock import VirtualClock
from ..engine import EngineConfig, Orchestrator
from ..errors import IllegalField, ParseError, ValidationFailed
from ..model import TaskConstellation
from ..planner import PlannerScript, ScriptedPlanner, load_script
from ..report import RunReport
from ..schema import _read_object, read_document
from ..serial import from_document
from .network import LinkSpec, SimNetwork

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"


class ScenarioResult(NamedTuple):
    scenario_id: int
    report: RunReport
    session_logs: Dict[str, List[Dict[str, Any]]]
    diffs: Sequence[str] = ()

    @property
    def verdict_ok(self) -> bool:
        return not self.diffs

    @property
    def markdown(self) -> str:
        """The report's Markdown run log, rendered when read."""
        from .mdlog import emit_markdown_log
        return emit_markdown_log(self.report)


def load_scenario(source: Any) -> Dict[str, Any]:
    """Read a scenario (packaged id, path or document) that
    ``schemas/scenario.schema.json`` accepts and whose devices' outages do
    not overlap; anything else is a ``ParseError``."""
    if isinstance(source, int):
        source = SCENARIOS_DIR / f"scenario{source}.json"
    doc = read_document(source, "scenario")
    for device_id, spec in doc["devices"].items():
        try:
            LinkSpec(outages=[tuple(o) for o in spec.get("outages", [])])
        except ValueError as exc:
            where = "document" if doc is source else source
            raise ParseError(f"bad scenario {where}: devices.{device_id}.outages: {exc}") from exc
    return doc


class _Loaded(NamedTuple):
    """What a scenario names, read and judged: runs only read it."""

    doc: Dict[str, Any]
    template: TaskConstellation  # with the scenario's request; each run clones it
    executors: Dict[str, ScriptedExecutor]  # by file name, as the devices name them
    reasoners: Dict[str, ScriptedReasoner]
    script: PlannerScript
    stamps: Dict[str, Optional[Tuple[int, int]]]  # absolute path of each file read -> its stamp


_LOADED: Dict[str, _Loaded] = {}  # by the scenario file's real path


def _stamp(path: str) -> Optional[Tuple[int, int]]:
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return stat.st_mtime_ns, stat.st_size


def _load(source: Any, base: str) -> _Loaded:
    """Read and judge a scenario (a path or a document) and each file it
    names relative to ``base``, each file once. A file is stamped before it
    is read, so that a change made while it is read shows at the next run.
    Every refusal is a ``ParseError`` naming its file, a constellation file
    that is not a valid graph included: ``from_document`` alone judges it."""
    stamps: Dict[str, Optional[Tuple[int, int]]] = {}

    def named(name: str) -> str:
        path = os.path.join(base, name)
        stamps.setdefault(path, _stamp(path))
        return path

    doc = load_scenario(named(source) if isinstance(source, str) else source)
    constellation = named(doc["constellation"])
    document = _read_object(constellation, "constellation")
    try:
        template = from_document(document)
    except (IllegalField, ParseError, ValidationFailed) as exc:
        refusal = exc.__cause__ or exc  # the schema's refusal, or the graph's faults
        raise ParseError(f"bad constellation {constellation}: {refusal}") from refusal
    template.request = doc["request"]
    executors: Dict[str, ScriptedExecutor] = {}
    reasoners: Dict[str, ScriptedReasoner] = {}
    for _, spec in sorted(doc["devices"].items()):
        if spec["executor"] not in executors:
            executors[spec["executor"]] = ScriptedExecutor.load(named(spec["executor"]))
        if spec["reasoner"] not in reasoners:
            reasoners[spec["reasoner"]] = ScriptedReasoner.load(named(spec["reasoner"]))
    script = load_script(named(doc["planner_script"]))
    return _Loaded(doc, template, executors, reasoners, script, stamps)


def _loaded(scenario: Any) -> _Loaded:
    """The loaded scenario: a file's from the memo while every file it read
    keeps its stamp, else read and judged again."""
    if isinstance(scenario, int):
        scenario = SCENARIOS_DIR / f"scenario{scenario}.json"
    if not isinstance(scenario, (str, Path)):
        return _load(scenario, str(SCENARIOS_DIR))
    path = os.path.realpath(scenario)
    loaded = _LOADED.pop(path, None)
    if loaded is None or any(_stamp(name) != stamp for name, stamp in loaded.stamps.items()):
        loaded = _load(path, os.path.dirname(path))
    _LOADED[path] = loaded
    return loaded


def run_scenario(scenario: Any, seed: int = 0) -> ScenarioResult:
    """Run a scenario (packaged id, path or document) to its report and
    verdict. ``seed`` is accepted and echoed by callers, but no run draws
    from it yet: every seed gives the same run. A scenario file names its
    other files relative to its own directory, links followed, a document
    relative to the packaged scenarios."""
    loaded = _loaded(scenario)
    doc = loaded.doc
    constellation = loaded.template.clone()
    clock = VirtualClock()
    network = SimNetwork(clock)
    orchestrator_ep = ConstellationEndpoint(clock, network, constellation.request)

    device_servers: Dict[str, DeviceServerEndpoint] = {}
    # Executors and reasoners only read their tables, so the devices that
    # name one file share the one object loaded from it, run after run.
    for device_id, spec in sorted(doc["devices"].items()):
        client_address = f"{device_id}-client"
        DeviceClientEndpoint(clock, network, client_address, loaded.executors[spec["executor"]])
        server = DeviceServerEndpoint(
            clock,
            network,
            device_id,
            agent_id=device_id,
            agent_server=AgentServer(clock, loaded.reasoners[spec["reasoner"]]),
            orchestrator_address="orchestrator",
            client_address=client_address,
            manifest=spec.get("manifest", {}),
            telemetry=spec.get("telemetry", {}),
        )
        device_servers[device_id] = server
        outages = [tuple(o) for o in spec.get("outages", [])]
        network.add_link("orchestrator", device_id, LinkSpec(spec.get("latency", 0.005), outages))
        network.add_link(device_id, client_address, LinkSpec(latency=0.001))
        server.start()

    planner = ScriptedPlanner(loaded.script)
    engine = Orchestrator(
        clock,
        planner,
        orchestrator_ep,
        constellation=constellation,
        config=EngineConfig(
            initial_round=False,
            pending_dispatch_timeout=doc.get("pending_dispatch_timeout", 60.0),
            execution_timeout=doc.get("execution_timeout", 300.0),
            deadline=doc.get("deadline", 120.0),
        ),
    )
    report = engine.run()
    report.dropped_frames = [f for f in network.wire_log if f["dropped"]]

    session_logs: Dict[str, List[Dict[str, Any]]] = {}
    for endpoint in [orchestrator_ep, *device_servers.values()]:
        for session_id, log in sorted(endpoint.sessions.items()):
            session_logs[f"{endpoint.address}:{session_id}"] = log

    return ScenarioResult(int(doc["id"]), report, session_logs, _verify(doc, report))


# -- verdict checks ------------------------------------------------------


def _verify(doc: Dict[str, Any], report: RunReport) -> List[str]:
    expected = doc["expected"]
    marker = expected.get("timing_marker", "runtime:")
    result = report.result or ""
    tasks = {t["id"]: t for t in (report.final_document or {}).get("tasks", [])}
    diffs: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            diffs.append(message)

    outcome = report.outcome.value if report.outcome else None
    if "outcome" in expected:
        expect(outcome == expected["outcome"], f"outcome: expected {expected['outcome']}, got {outcome}")
    for task_id, status in expected.get("task_statuses", {}).items():
        got = tasks[task_id]["status"] if task_id in tasks else None
        expect(got == status, f"task {task_id}: expected {status}, got {got}")
    if "result_timing_count" in expected:
        wanted, got = expected["result_timing_count"], result.count(marker)
        expect(got == wanted, f"result timings: expected {wanted} '{marker}' markers, got {got}")
    if "failure_trace_count" in expected:
        wanted = expected["failure_trace_count"]
        aggregate = tasks.get(expected.get("aggregate_task", "D"), {"description": ""})
        got = aggregate["description"].count("FAILED (")
        expect(got == wanted, f"aggregate input: expected {wanted} failure trace(s), got {got}")
    for task_id in expected.get("never_dispatched", []):
        expect(task_id not in report.timings, f"task {task_id} must never be dispatched but was")
    if expected.get("no_fabricated_timings"):
        expect(marker not in result, f"result must not contain fabricated '{marker}' timings")
    return diffs
