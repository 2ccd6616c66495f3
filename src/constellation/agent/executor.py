"""Scripted command executor: a glob table from command line to result.

The executor is the device-client side of the agent: it runs whatever
command batch the server sends and knows nothing about task state.
"""

from __future__ import annotations

import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ParseError, ScriptMiss
from ..serial import check_duration, read_object


class ScriptedExecutor:
    def __init__(self, table: List[Dict[str, Any]], strict: bool = True):
        self.table = table
        self.strict = strict

    @classmethod
    def load(cls, source: Union[str, Path, Dict[str, Any]]) -> "ScriptedExecutor":
        """Read a table, refusing an entry whose ``pattern``, ``stdout`` or
        ``stderr`` is not a string, whose ``status`` is not an int or whose
        ``duration`` is not a number >= 0."""
        doc = read_object(source, "executor table")
        table = doc.get("table", [])
        try:
            for entry in table:
                status = entry.get("status", 0)
                if isinstance(status, bool) or not isinstance(status, int):
                    raise ValueError(f"status must be an int, got {status!r}")
                for key in ("pattern", "stdout", "stderr"):
                    if not isinstance(entry.get(key, ""), str):
                        raise ValueError(f"{key} must be a string, got {entry[key]!r}")
                check_duration(entry.get("duration", 0.0))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad executor table {source}: {exc}") from exc
        return cls(table, strict=doc.get("strict", True))

    def execute(self, action: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """Run one action; returns (structured result, virtual duration)."""
        function = action.get("function")
        args = action.get("args", {})
        if function == "EXEC_CLI":
            key = args.get("command_line", "")
        elif function == "NOTEPAD_WRITE":
            key = "NOTEPAD_WRITE " + args.get("content", "")
        else:
            return {"status": 1, "stdout": "", "stderr": f"unknown function {function!r}"}, 0.0
        entry = self._lookup(key)
        if entry is None:
            if self.strict:
                raise ScriptMiss(f"no executor entry matches {key!r}")
            return {"status": 127, "stdout": "", "stderr": f"not scripted: {key}"}, 0.0
        result = {
            "status": entry.get("status", 0),
            "stdout": entry.get("stdout", ""),
            "stderr": entry.get("stderr", ""),
        }
        if function == "NOTEPAD_WRITE":
            result["written"] = args.get("content", "")
        return result, float(entry.get("duration", 0.0))

    def _lookup(self, key: str) -> Optional[Dict[str, Any]]:
        for entry in self.table:
            if fnmatch.fnmatchcase(key, entry.get("pattern", "*")):
                return entry
        return None
