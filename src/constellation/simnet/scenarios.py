"""Fault-injection scenario runner.

A scenario file wires together a constellation fixture, a planner script,
per-device executors/reasoners, link latencies and scripted outages, and an
expected verdict. Everything runs on one virtual clock and nothing draws a
random number, so the scenario alone determines the run report. A run takes a
seed, but no run draws from it yet. ``load_scenario`` is the one reader of a
scenario, ``run_scenario``'s included; a result renders its Markdown run log
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

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
from ..errors import ParseError
from ..planner import ScriptedPlanner, load_script
from ..report import RunReport
from ..schema import read_document
from ..serial import deserialize
from .mdlog import emit_markdown_log
from .network import LinkSpec, SimNetwork

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@dataclass
class ScenarioResult:
    scenario_id: int
    report: RunReport
    session_logs: Dict[str, List[Dict[str, Any]]]
    diffs: List[str] = field(default_factory=list)

    @property
    def verdict_ok(self) -> bool:
        return not self.diffs

    @property
    def markdown(self) -> str:
        """The report's Markdown run log, rendered when read."""
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


def run_scenario(scenario: Any, seed: int = 0) -> ScenarioResult:
    """Run a scenario (packaged id, path or document) to its report and
    verdict. ``seed`` is accepted and echoed by callers, but no run draws
    from it yet: every seed gives the same run. A scenario file names its
    other files relative to its own directory, a document relative to the
    packaged scenarios."""
    doc = load_scenario(scenario)
    base = Path(scenario).parent if isinstance(scenario, (str, Path)) else SCENARIOS_DIR
    constellation = deserialize((base / doc["constellation"]).read_text(encoding="utf-8"))
    constellation.request = doc["request"]
    clock = VirtualClock()
    network = SimNetwork(clock)
    orchestrator_ep = ConstellationEndpoint(clock, network, constellation.request)

    device_servers: Dict[str, DeviceServerEndpoint] = {}
    # Executors and reasoners only read their tables, so the devices of a
    # run that name one file share the one object loaded from it.
    executors: Dict[str, ScriptedExecutor] = {}
    reasoners: Dict[str, ScriptedReasoner] = {}
    for device_id, spec in sorted(doc["devices"].items()):
        if spec["executor"] not in executors:
            executors[spec["executor"]] = ScriptedExecutor.load(base / spec["executor"])
        if spec["reasoner"] not in reasoners:
            reasoners[spec["reasoner"]] = ScriptedReasoner.load(base / spec["reasoner"])
        executor = executors[spec["executor"]]
        reasoner = reasoners[spec["reasoner"]]
        client_address = f"{device_id}-client"
        DeviceClientEndpoint(clock, network, client_address, executor)
        server = DeviceServerEndpoint(
            clock,
            network,
            device_id,
            agent_id=device_id,
            agent_server=AgentServer(clock, reasoner),
            orchestrator_address="orchestrator",
            client_address=client_address,
            manifest=spec.get("manifest", {}),
            telemetry=spec.get("telemetry", {}),
        )
        device_servers[device_id] = server
        network.add_link(
            "orchestrator",
            device_id,
            LinkSpec(
                latency=spec.get("latency", 0.005),
                outages=[tuple(o) for o in spec.get("outages", [])],
            ),
        )
        network.add_link(device_id, client_address, LinkSpec(latency=0.001))
        server.start()

    planner = ScriptedPlanner(load_script(base / doc["planner_script"]))
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
        for session_id, session in sorted(endpoint.sessions.items()):
            session_logs[f"{endpoint.address}:{session_id}"] = session.log

    result = ScenarioResult(
        scenario_id=int(doc["id"]),
        report=report,
        session_logs=session_logs,
    )
    result.diffs = _verify(doc, report)
    return result


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
