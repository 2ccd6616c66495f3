from .executor import ScriptedExecutor
from .reasoner import AgentFsmState, ReasonerOutput, ScriptedReasoner
from .server import AgentServer, StrategyKind

__all__ = [
    "AgentFsmState",
    "ScriptedExecutor",
    "ReasonerOutput",
    "ScriptedReasoner",
    "AgentServer",
    "StrategyKind",
]
