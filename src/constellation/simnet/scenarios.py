"""Fault-injection scenario runner.

A scenario file wires together a constellation fixture, a planner script,
per-device executors/reasoners, link latencies and scripted outages, and an
expected verdict. Everything runs on one virtual clock, so a (scenario,
seed) pair fully determines the run report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set

from ..agent.reasoner import ScriptedReasoner
from ..agent.executor import ScriptedExecutor
from ..agent.server import AgentServer
from ..aip.backoff import BackoffPolicy
from ..aip.endpoints import (
    ConstellationEndpoint,
    DeviceClientEndpoint,
    DeviceServerEndpoint,
)
from ..aip.profile import ProfileRegistry
from ..clock import VirtualClock
from ..engine import EngineConfig, Orchestrator
from ..errors import ParseError, PeerDisconnected, VerdictMismatch
from ..model import FailureReason, TaskStar, TaskStatus
from ..planner import ScriptedPlanner, load_script
from ..report import RunReport
from ..serial import deserialize
from .mdlog import emit_markdown_log
from .network import LinkSpec, SimNetwork

SCENARIOS_DIR = Path(__file__).resolve().parents[3] / "scenarios"


class AipDispatcher:
    """Adapts a ConstellationEndpoint to the orchestrator's dispatcher port."""

    def __init__(self, endpoint: ConstellationEndpoint, request: str):
        self.endpoint = endpoint
        self.request = request

    def available_devices(self) -> Set[str]:
        return set(self.endpoint.registry.available())

    def set_availability_listener(self, listener: Callable[[], None]) -> None:
        self.endpoint.availability_listener = listener

    def dispatch(self, task: TaskStar, on_done) -> None:
        task_doc = {
            "id": task.id,
            "name": task.name,
            "description": task.description,
            "device": task.device,
            "tips": list(task.tips),
        }

        def callback(task_id: str, status: str, body: Dict[str, Any]) -> None:
            if status == "COMPLETED":
                on_done(task_id, TaskStatus.COMPLETED, body.get("result"), None)
            else:
                reason = FailureReason(body.get("failure_reason", "EXECUTION_ERROR"))
                on_done(task_id, TaskStatus.FAILED, None, reason)

        try:
            self.endpoint.dispatch_task(task.device, task_doc, self.request, callback)
        except PeerDisconnected:
            on_done(task.id, TaskStatus.FAILED, None, FailureReason.AGENT_DISCONNECTED)


@dataclass
class ScenarioResult:
    scenario_id: int
    report: RunReport
    markdown: str
    session_logs: Dict[str, List[Dict[str, Any]]]
    diffs: List[str] = field(default_factory=list)

    @property
    def verdict_ok(self) -> bool:
        return not self.diffs


def load_scenario(source: Any) -> Dict[str, Any]:
    if isinstance(source, dict):
        source.setdefault("_dir", SCENARIOS_DIR)
        return source
    if isinstance(source, int):
        source = SCENARIOS_DIR / f"scenario{source}.json"
    path = Path(source)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot load scenario {path}: {exc}") from exc
    doc["_dir"] = path.parent
    return doc


def run_scenario(scenario: Any, seed: int = 0) -> ScenarioResult:
    doc = load_scenario(scenario)
    base = doc["_dir"]
    clock = VirtualClock()
    network = SimNetwork(clock, seed=seed)
    registry = ProfileRegistry()
    orchestrator_ep = ConstellationEndpoint(clock, network, "orchestrator", registry)

    device_servers: Dict[str, DeviceServerEndpoint] = {}
    for device_id, spec in sorted(doc.get("devices", {}).items()):
        executor = ScriptedExecutor.load(base / spec["executor"])
        reasoner = ScriptedReasoner.load(base / spec["reasoner"])
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
            backoff=BackoffPolicy(jitter=0.0),
            seed=seed,
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

    constellation = deserialize((base / doc["constellation"]).read_text(encoding="utf-8"))
    constellation.request = doc.get("request", constellation.request)
    planner = ScriptedPlanner(load_script(base / doc["planner_script"]))
    dispatcher = AipDispatcher(orchestrator_ep, constellation.request)
    engine = Orchestrator(
        clock,
        planner,
        dispatcher,
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
        scenario_id=int(doc.get("id", 0)),
        report=report,
        markdown=emit_markdown_log(report),
        session_logs=session_logs,
    )
    result.diffs = _verify(doc, report)
    return result


def run_scenario_strict(scenario: Any, seed: int = 0) -> ScenarioResult:
    result = run_scenario(scenario, seed)
    if not result.verdict_ok:
        raise VerdictMismatch(result.diffs)
    return result


# -- verdict checks ------------------------------------------------------


def _verify(doc: Dict[str, Any], report: RunReport) -> List[str]:
    expected = doc.get("expected", {})
    diffs: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            diffs.append(message)

    outcome = report.outcome.value if report.outcome else None
    if "outcome" in expected:
        expect(
            outcome == expected["outcome"],
            f"outcome: expected {expected['outcome']}, got {outcome}",
        )
    statuses = {
        t["id"]: t["status"] for t in (report.final_document or {}).get("tasks", [])
    }
    for task_id, status in expected.get("task_statuses", {}).items():
        expect(
            statuses.get(task_id) == status,
            f"task {task_id}: expected {status}, got {statuses.get(task_id)}",
        )
    if expected.get("result_timing_count") is not None:
        wanted = expected["result_timing_count"]
        marker = expected.get("timing_marker", "runtime:")
        got = (report.result or "").count(marker)
        expect(
            got == wanted,
            f"result timings: expected {wanted} '{marker}' markers, got {got}",
        )
    if expected.get("failure_trace_count") is not None:
        aggregate = expected.get("aggregate_task", "D")
        description = next(
            (
                t["description"]
                for t in (report.final_document or {}).get("tasks", [])
                if t["id"] == aggregate
            ),
            "",
        )
        got = description.count("FAILED (")
        expect(
            got == expected["failure_trace_count"],
            f"aggregate input: expected {expected['failure_trace_count']} failure trace(s), got {got}",
        )
    if expected.get("never_dispatched"):
        for task_id in expected["never_dispatched"]:
            expect(
                task_id not in report.timings,
                f"task {task_id} must never be dispatched but was",
            )
    if expected.get("no_fabricated_timings"):
        marker = expected.get("timing_marker", "runtime:")
        expect(
            marker not in (report.result or ""),
            f"result must not contain fabricated '{marker}' timings",
        )
    return diffs
