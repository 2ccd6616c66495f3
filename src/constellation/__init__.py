"""Cross-device task orchestration over mutable dependency constellations.

A user request is decomposed into a TaskConstellation — a mutable DAG of
TaskStars linked by TaskStarLines — executed across device agents under a
single-assignment locking protocol. Subpackages provide the agent
interaction protocol (`aip`), the device-agent runtime (`agent`), the
deterministic network simulator and scenario runner (`simnet`), and a
bounded explicit-state explorer of the locking protocol (`explorer`).
"""

from .clock import TimerHandle, VirtualClock
from .edits import (
    AddDependency,
    AddTask,
    BuildConstellation,
    EditDelta,
    RemoveDependency,
    RemoveTask,
    UpdateDependency,
    UpdateTask,
    apply_delta,
    build_constellation,
)
from .engine import EngineConfig, Orchestrator, ScriptedDispatcher
from .errors import (
    BoundExceeded,
    ConstellationError,
    DuplicateId,
    IllegalTransition,
    InvariantViolation,
    NotFound,
    ParseError,
    SchemaViolation,
    ScriptMiss,
    ValidationFailed,
)
from .events import EventKind, OrchestratorEvent
from .explorer import (
    GOLDEN_STATS,
    ExploreStats,
    analytic_distinct_count,
    explore,
    explore_extended,
)
from .model import (
    DependencyKind,
    FailureReason,
    TaskConstellation,
    TaskStar,
    TaskStarLine,
    TaskStatus,
    Violation,
)
from .planner import (
    NoopPlanner,
    Planner,
    PlannerInput,
    PlannerOutput,
    PlannerState,
    ScriptedPlanner,
    load_script,
)
from .report import RunOutcome, RunReport
from .serial import deserialize, from_document, serialize, to_document

__version__ = "0.1.0"

__all__ = [
    "AddDependency",
    "AddTask",
    "BoundExceeded",
    "BuildConstellation",
    "ConstellationError",
    "DependencyKind",
    "DuplicateId",
    "EditDelta",
    "EngineConfig",
    "EventKind",
    "ExploreStats",
    "FailureReason",
    "GOLDEN_STATS",
    "IllegalTransition",
    "InvariantViolation",
    "NoopPlanner",
    "NotFound",
    "Orchestrator",
    "OrchestratorEvent",
    "ParseError",
    "Planner",
    "PlannerInput",
    "PlannerOutput",
    "PlannerState",
    "RemoveDependency",
    "RemoveTask",
    "RunOutcome",
    "RunReport",
    "SchemaViolation",
    "ScriptMiss",
    "ScriptedDispatcher",
    "ScriptedPlanner",
    "TaskConstellation",
    "TaskStar",
    "TaskStarLine",
    "TaskStatus",
    "TimerHandle",
    "UpdateDependency",
    "UpdateTask",
    "ValidationFailed",
    "Violation",
    "VirtualClock",
    "analytic_distinct_count",
    "apply_delta",
    "build_constellation",
    "deserialize",
    "explore",
    "explore_extended",
    "from_document",
    "load_script",
    "serialize",
    "to_document",
]
