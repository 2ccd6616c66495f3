"""Scripted reasoner and the agent FSM states it moves a task run to.

Each entry is keyed by FSM round index (with an optional catch-all,
``"when": {"always": true}``) and supplies the commands to issue, the next
state and the reasoning-trace strings; a step no entry answers is a
``ScriptMiss``. Templates may reference ``$task_description`` and
``$last_stdout``.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from ..errors import ScriptMiss
from ..schema import read_document


class AgentFsmState(Enum):
    CONTINUE = "CONTINUE"
    FINISH = "FINISH"
    FAIL = "FAIL"

    @property
    def terminal(self) -> bool:
        return self is not AgentFsmState.CONTINUE


class ReasonerOutput(NamedTuple):
    next_state: AgentFsmState
    commands: Sequence[Dict[str, Any]] = ()
    thought: str = ""
    result: str = ""
    error: str = ""
    duration: float = 0.0


class ScriptedReasoner:
    def __init__(self, entries: List[Dict[str, Any]]):
        self.entries = entries

    @classmethod
    def load(cls, source: Union[str, Path, Dict[str, Any]]) -> "ScriptedReasoner":
        """Read a script that ``schemas/reasoner_script.schema.json`` accepts;
        anything else is a ``ParseError``."""
        doc = read_document(source, "reasoner_script")
        return cls(doc.get("entries", []))

    def choose(
        self, step: int, task: Dict[str, Any], memory: List[Dict[str, Any]]
    ) -> ReasonerOutput:
        entry = self._select(step)
        if entry is None:
            raise ScriptMiss(f"no reasoner entry for step {step}")
        substitutions = {
            "$task_description": task.get("description", ""),
            "$last_stdout": _last_stdout(memory),
        }
        return ReasonerOutput(
            next_state=AgentFsmState(entry.get("next_state", "CONTINUE")),
            commands=[_fill_command(c, substitutions) for c in entry.get("commands", [])],
            thought=_fill(entry.get("thought", ""), substitutions),
            result=_fill(entry.get("result", ""), substitutions),
            error=_fill(entry.get("error", ""), substitutions),
            duration=float(entry.get("duration", 0.0)),
        )

    def _select(self, step: int) -> Optional[Dict[str, Any]]:
        for entry in self.entries:
            when = entry.get("when", {})
            if when.get("step") == step or when.get("always"):
                return entry
        return None


def _last_stdout(memory: List[Dict[str, Any]]) -> str:
    for record in reversed(memory):
        for result in reversed(record.get("results", [])):
            if "stdout" in result:
                return result["stdout"]
    return ""


def _fill(template: str, substitutions: Dict[str, str]) -> str:
    text = template
    for token, value in substitutions.items():
        text = text.replace(token, value)
    return text


def _fill_command(command: Dict[str, Any], substitutions: Dict[str, str]) -> Dict[str, Any]:
    filled = dict(command)
    filled["args"] = {
        key: _fill(value, substitutions) if isinstance(value, str) else value
        for key, value in command.get("args", {}).items()
    }
    return filled
