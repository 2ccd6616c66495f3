"""Inputs, requests and output checks of the benchmark's four workloads.

Each workload turns the run's seed into a small pool of inputs and serves one
request per input through the public API of ``constellation``: a fresh
``VirtualClock``/``Orchestrator`` per request, a scenario run, or a fresh
exploration. The generators and the planners that feed the orchestrator are
benchmark code; the program under test only ever sees what they generate.

- ``fault-scenarios``: the packaged fault-injection scenarios, unchanged. The
  only workload that drives the AIP protocol, the agents, the simulated
  network, the clock and trigger matching; the graph has four tasks, so the
  model and the edits are nearly idle.
- ``layered-bulk``: one bulk ``BuildConstellation`` of a layered DAG, then
  read-heavy rounds over a fixed graph. The per-edge cycle check of the bulk
  build dominates.
- ``replan-stream``: many small deltas into a growing graph that already
  holds running and terminal tasks, so each commit pays for a clone, a
  per-edge cycle check and the edit-locality diff. A change that speeds up
  bulk builds but taxes every small write shows here.
- ``explorer``: the golden and the extended state-space explorations. No
  other workload runs the explorer, and extended mode calls the model and
  the edits on graphs of two and three tasks, so a per-call cost added to
  them shows here even where graph-size savings cannot.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from time import thread_time
from typing import Any, Callable, Dict, List, Optional, Tuple

from constellation import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    EventKind,
    Orchestrator,
    Planner,
    PlannerInput,
    PlannerOutput,
    PlannerState,
    RunOutcome,
    RunReport,
    ScriptedDispatcher,
    VirtualClock,
)
from constellation import explorer
from constellation.simnet.scenarios import run_scenario

LAYER_WIDTH = 10
FAN_IN = 2
REPLAN_ROOTS = 10
TASK_SECONDS = 1.0
# Distinct inputs generated per run and served round-robin: enough to vary
# the graph shape within a run, few enough to keep set-up short.
POOL_SIZE = 8
SCENARIO_OUTCOMES = {1: "SUCCESS", 2: "PARTIAL", 3: "FAILED"}


@dataclass
class Checked:
    """One request's output, checked and reduced to what the benchmark needs."""

    problems: List[str]
    # Terminal tasks, or generated states for the explorer.
    items: int
    # Canonical JSON of the deterministic output; traced and untraced runs
    # of one input must produce the same bytes.
    canonical: str
    report: Optional[RunReport] = None
    # Explorer only: stats and host seconds of each exploration mode.
    explored: Dict[str, Tuple[explorer.ExploreStats, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, int], List[Any]]
    # The timed part: one request through the program.
    request: Callable[[Any], Any]
    # The untimed part: checks what ``request`` returned for its input.
    check: Callable[[Any, Any], Checked]


# -- layered-bulk ----------------------------------------------------------


@dataclass(frozen=True)
class LayeredInput:
    config: Dict[str, Any]
    layers: int


def layered_dag(size: int, rng: random.Random) -> LayeredInput:
    """Layers of LAYER_WIDTH tasks; each task outside the first layer depends
    on FAN_IN tasks drawn from the layer before it."""
    ids = [f"t{i:05d}" for i in range(size)]
    layers = [ids[i : i + LAYER_WIDTH] for i in range(0, size, LAYER_WIDTH)]
    tasks = [
        {"id": tid, "name": tid, "description": f"layer {depth}", "device": "dev0"}
        for depth, layer in enumerate(layers)
        for tid in layer
    ]
    dependencies = [
        {"id": f"{up}>{tid}", "from_task": up, "to_task": tid}
        for upper, layer in zip(layers, layers[1:])
        for tid in layer
        for up in sorted(rng.sample(upper, min(FAN_IN, len(upper))))
    ]
    config = {"request": f"layered build of {size} tasks", "tasks": tasks, "dependencies": dependencies}
    return LayeredInput(config, len(layers))


def layered_inputs(seed: int, size: int) -> List[LayeredInput]:
    rng = random.Random(f"layered-bulk:{seed}")
    return [layered_dag(size, rng) for _ in range(POOL_SIZE)]


class BulkPlanner(Planner):
    """Builds the whole graph in round 0, then never edits again."""

    def __init__(self, config: Dict[str, Any]):
        self.config = config

    def edit(self, planner_input: PlannerInput) -> PlannerOutput:
        ops = [BuildConstellation(self.config)] if planner_input.round_index == 0 else []
        return PlannerOutput(
            observation=f"{len(planner_input.batch)} event(s) observed",
            thought="bulk build" if ops else "no edits required",
            next_state=PlannerState.CONTINUE,
            delta=EditDelta(ops),
        )


def request_layered(inp: LayeredInput) -> RunReport:
    clock = VirtualClock()
    dispatcher = ScriptedDispatcher(clock, default_duration=TASK_SECONDS)
    return Orchestrator(clock, BulkPlanner(inp.config), dispatcher).run()


def check_layered(inp: LayeredInput, report: RunReport) -> Checked:
    problems = _all_completed(report, len(inp.config["tasks"]))
    # Each layer is dispatched at once when the layer before it completes.
    finish = inp.layers * TASK_SECONDS
    if report.finished_at != finish:
        problems.append(f"finished at {report.finished_at} virtual s, expected {finish}")
    return _checked(problems, report)


# -- replan-stream ---------------------------------------------------------


@dataclass(frozen=True)
class ReplanInput:
    size: int
    seed: int


def replan_inputs(seed: int, size: int) -> List[ReplanInput]:
    rng = random.Random(f"replan-stream:{seed}")
    return [ReplanInput(size, rng.randrange(2**32)) for _ in range(POOL_SIZE)]


class ReplanPlanner(Planner):
    """Starts REPLAN_ROOTS root tasks, then adds one task per completion
    (id-sorted) until the graph holds ``size`` tasks. A new task depends on
    the task that completed and on one other task, chosen with the input's
    seed from those already in the graph, whatever their status."""

    def __init__(self, inp: ReplanInput):
        self.size = inp.size
        self.rng = random.Random(inp.seed)
        self.nonempty_deltas = 0

    def edit(self, planner_input: PlannerInput) -> PlannerOutput:
        existing = list(planner_input.snapshot.tasks)
        ops: List[Any] = []
        if not existing:
            ops = [AddTask(_task_spec(f"r{i:03d}")) for i in range(min(REPLAN_ROOTS, self.size))]
        count = len(existing) + len(ops)
        completed = sorted(
            e.task_id for e in planner_input.batch if e.kind is EventKind.TASK_COMPLETED
        )
        for done in completed:
            if count >= self.size:
                break
            new = f"n{count:05d}"
            other = self.rng.choice([tid for tid in existing if tid != done])
            ops.append(AddTask(_task_spec(new)))
            ops.append(AddDependency({"id": f"{done}>{new}", "from_task": done, "to_task": new}))
            ops.append(AddDependency({"id": f"{other}>{new}", "from_task": other, "to_task": new}))
            count += 1
        if ops:
            self.nonempty_deltas += 1
        return PlannerOutput(
            observation=f"{len(completed)} completion(s) observed",
            thought=f"{len(ops)} edit op(s)",
            next_state=PlannerState.CONTINUE,
            delta=EditDelta(ops),
        )


def _task_spec(tid: str) -> Dict[str, Any]:
    return {"id": tid, "name": tid, "description": f"stream task {tid}", "device": "dev0"}


def request_replan(inp: ReplanInput) -> Tuple[RunReport, ReplanPlanner]:
    clock = VirtualClock()
    planner = ReplanPlanner(inp)
    dispatcher = ScriptedDispatcher(clock, default_duration=TASK_SECONDS)
    return Orchestrator(clock, planner, dispatcher).run(), planner


def check_replan(inp: ReplanInput, output: Tuple[RunReport, ReplanPlanner]) -> Checked:
    report, planner = output
    problems = _all_completed(report, inp.size)
    version = (report.final_document or {}).get("version")
    if version != planner.nonempty_deltas:
        problems.append(f"final version {version}, expected {planner.nonempty_deltas} non-empty deltas")
    return _checked(problems, report)


# -- fault-scenarios -------------------------------------------------------


def scenario_inputs(seed: int, size: int) -> List[Tuple[int, int]]:
    """Scenarios 1-3 cycled in a seed-shuffled order, each request with its
    own network seed. ``size`` does not apply: the scenario files are fixed."""
    rng = random.Random(f"fault-scenarios:{seed}")
    order = rng.sample(sorted(SCENARIO_OUTCOMES), len(SCENARIO_OUTCOMES))
    return [(order[i % len(order)], rng.randrange(2**32)) for i in range(4 * len(order))]


def request_scenario(inp: Tuple[int, int]):
    scenario, seed = inp
    return run_scenario(scenario, seed)


def check_scenario(inp: Tuple[int, int], result) -> Checked:
    scenario, _ = inp
    problems = list(result.diffs)
    outcome = result.report.outcome.value if result.report.outcome else None
    if outcome != SCENARIO_OUTCOMES[scenario]:
        problems.append(f"scenario {scenario}: outcome {outcome}, expected {SCENARIO_OUTCOMES[scenario]}")
    return _checked(problems, result.report)


# -- explorer --------------------------------------------------------------


@dataclass
class Explorations:
    golden: explorer.ExploreStats
    extended: explorer.ExploreStats
    golden_s: float
    extended_s: float


def explorer_inputs(seed: int, size: int) -> List[None]:
    """The explorations take no input; seed and size do not apply."""
    return [None]


def request_explorer(_inp: None) -> Explorations:
    start = thread_time()
    # Looked up at call time, so that a traced run reaches its wrappers.
    golden = explorer.explore(
        successors_fn=explorer.successors, invariant_fn=explorer.check_invariants
    )
    middle = thread_time()
    extended = explorer.explore_extended()
    return Explorations(golden, extended, middle - start, thread_time() - middle)


def check_explorer(_inp: None, out: Explorations) -> Checked:
    problems = []
    if out.golden != explorer.GOLDEN_STATS:
        problems.append(f"golden stats {out.golden.as_dict()} != {explorer.GOLDEN_STATS.as_dict()}")
    if out.extended.violations:
        problems.append(f"extended exploration reported {out.extended.violations} violation(s)")
    canonical = json.dumps({"golden": out.golden.as_dict(), "extended": out.extended.as_dict()})
    explored = {"golden": (out.golden, out.golden_s), "extended": (out.extended, out.extended_s)}
    return Checked(problems, out.golden.generated + out.extended.generated, canonical, None, explored)


# -- shared checks ---------------------------------------------------------


def _all_completed(report: RunReport, size: int) -> List[str]:
    problems = []
    if report.outcome is not RunOutcome.SUCCESS:
        outcome = report.outcome.value if report.outcome else None
        problems.append(f"outcome {outcome}, expected SUCCESS ({report.error or 'no error'})")
    tasks = (report.final_document or {}).get("tasks", [])
    if len(tasks) != size:
        problems.append(f"{len(tasks)} tasks, expected {size}")
    unfinished = [t["id"] for t in tasks if t["status"] != "COMPLETED"]
    if unfinished:
        problems.append(f"{len(unfinished)} task(s) not COMPLETED, first {unfinished[0]}")
    return problems


def _checked(problems: List[str], report: RunReport) -> Checked:
    tasks = (report.final_document or {}).get("tasks", [])
    terminal = sum(t["status"] in ("COMPLETED", "FAILED") for t in tasks)
    return Checked(problems, terminal, report.to_json(), report)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fault-scenarios", scenario_inputs, request_scenario, check_scenario),
        Workload("layered-bulk", layered_inputs, request_layered, check_layered),
        Workload("replan-stream", replan_inputs, request_replan, check_replan),
        Workload("explorer", explorer_inputs, request_explorer, check_explorer),
    )
}

# The generators the traced run sweeps over graph sizes.
SWEPT = ("layered-bulk", "replan-stream")

PLANNERS = (BulkPlanner, ReplanPlanner)
