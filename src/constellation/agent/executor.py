"""Scripted command executor: a glob table from command line to result.

The executor is the device-client side of the agent: it runs whatever
command batch the server sends and knows nothing about task state. A command
no entry matches is a ``ScriptMiss``; a table that answers every command ends
in a catch-all entry (``"pattern": "*"``).
"""

from __future__ import annotations

import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ScriptMiss
from ..schema import read_document


class ScriptedExecutor:
    def __init__(self, table: List[Dict[str, Any]]):
        self.table = table

    @classmethod
    def load(cls, source: Union[str, Path, Dict[str, Any]]) -> "ScriptedExecutor":
        """Read a table that ``schemas/executor_table.schema.json`` accepts;
        anything else is a ``ParseError``."""
        doc = read_document(source, "executor_table")
        return cls(doc.get("table", []))

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
            raise ScriptMiss(f"no executor entry matches {key!r}")
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
