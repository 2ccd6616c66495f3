"""Fault-injection scenario runner.

A scenario file wires together a constellation fixture, a planner script,
per-device executors/reasoners, link latencies and scripted outages, and an
expected verdict. Everything runs on one virtual clock, so a (scenario,
seed) pair fully determines the run report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..agent.reasoner import ScriptedReasoner
from ..agent.executor import ScriptedExecutor
from ..agent.server import AgentServer
from ..aip.backoff import BackoffPolicy
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
from ..serial import deserialize, read_object
from .mdlog import emit_markdown_log
from .network import LinkSpec, SimNetwork

SCENARIOS_DIR = Path(__file__).resolve().parents[3] / "scenarios"


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
    """Read a scenario, refusing as ``ParseError`` a field that
    ``schemas/scenario.schema.json`` refuses: a field of the wrong type, or
    one the schema does not name."""
    return _read_scenario(source)[0]


def _read_scenario(source: Any) -> Tuple[Dict[str, Any], Path]:
    """The checked scenario and the directory its file names resolve
    against: the file's own, or the packaged scenarios for a document."""
    if isinstance(source, dict):
        doc, base = source, SCENARIOS_DIR
    else:
        if isinstance(source, int):
            source = SCENARIOS_DIR / f"scenario{source}.json"
        path = Path(source)
        doc, base = read_object(path, "scenario"), path.parent
    try:
        _check_scenario(doc)
    except ValueError as exc:
        raise ParseError(f"bad scenario {'document' if doc is source else source}: {exc}") from exc
    return doc, base


# Optional fields and their JSON types: of a scenario, a device, a verdict;
# and the fields of each that are checked apart. No other field is allowed.
_TYPES = {"id": int, "request": str, "devices": dict, "expected": dict}
_OTHER_FIELDS = (
    "constellation",
    "planner_script",
    "deadline",
    "pending_dispatch_timeout",
    "execution_timeout",
)
_DEVICE_TYPES = {"outages": list, "manifest": dict, "telemetry": dict}
_DEVICE_OTHER_FIELDS = ("executor", "reasoner", "latency")
_EXPECTED_TYPES = {
    "outcome": str,
    "task_statuses": dict,
    "result_timing_count": int,
    "timing_marker": str,
    "failure_trace_count": int,
    "aggregate_task": str,
    "never_dispatched": list,
    "no_fabricated_timings": bool,
}


def _check_types(
    doc: Dict[str, Any], types: Dict[str, type], where: str, others: Tuple[str, ...] = ()
) -> None:
    unknown = sorted(set(doc).difference(types, others))
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(where + name for name in unknown)}")
    for name, kind in types.items():
        value = doc.get(name, kind())
        if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
            raise ValueError(f"{where}{name} must be a {kind.__name__}, got {value!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_scenario(doc: Dict[str, Any]) -> None:
    """Raise ``ValueError`` for a field that ``schemas/scenario.schema.json``
    refuses, or for overlapping outages."""
    _check_types(doc, _TYPES, "", _OTHER_FIELDS)
    for name in ("constellation", "planner_script"):
        if not isinstance(doc.get(name), str):
            raise ValueError(f"{name} must name a file, got {doc.get(name)!r}")
    for name in ("deadline", "pending_dispatch_timeout", "execution_timeout"):
        if name in doc and not (_is_number(doc[name]) and doc[name] > 0):
            raise ValueError(f"{name} must be a number > 0, got {doc[name]!r}")
    for device_id, spec in doc.get("devices", {}).items():
        where = f"devices.{device_id}."
        if not isinstance(spec, dict):
            raise ValueError(f"{where[:-1]} must be a dict, got {spec!r}")
        for name in ("executor", "reasoner"):
            if not isinstance(spec.get(name), str):
                raise ValueError(f"{where}{name} must name a file, got {spec.get(name)!r}")
        latency = spec.get("latency", 0)
        if not (_is_number(latency) and latency >= 0):
            raise ValueError(f"{where}latency must be a number >= 0, got {latency!r}")
        _check_types(spec, _DEVICE_TYPES, where, _DEVICE_OTHER_FIELDS)
        for outage in spec.get("outages", []):
            if not (isinstance(outage, list) and len(outage) == 2 and all(map(_is_number, outage))):
                raise ValueError(f"{where}outages: {outage!r} is not a [down, up] pair of numbers")
        LinkSpec(outages=[tuple(o) for o in spec.get("outages", [])])  # refuses an overlap
    _check_types(doc.get("expected", {}), _EXPECTED_TYPES, "expected.")


def run_scenario(scenario: Any, seed: int = 0) -> ScenarioResult:
    doc, base = _read_scenario(scenario)
    constellation = deserialize((base / doc["constellation"]).read_text(encoding="utf-8"))
    constellation.request = doc.get("request", constellation.request)
    clock = VirtualClock()
    network = SimNetwork(clock, seed=seed)
    orchestrator_ep = ConstellationEndpoint(clock, network, constellation.request)

    device_servers: Dict[str, DeviceServerEndpoint] = {}
    # Executors and reasoners only read their tables, so the devices of a
    # run that name one file share the one object loaded from it.
    executors: Dict[str, ScriptedExecutor] = {}
    reasoners: Dict[str, ScriptedReasoner] = {}
    for device_id, spec in sorted(doc.get("devices", {}).items()):
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
        scenario_id=int(doc.get("id", 0)),
        report=report,
        markdown=emit_markdown_log(report),
        session_logs=session_logs,
    )
    result.diffs = _verify(doc, report)
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
