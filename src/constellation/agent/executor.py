"""Scripted command executor: a glob table from command line to result.

The executor is the device-client side of the agent: it runs whatever
command batch the server sends and knows nothing about task state.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import NoScriptEntry, ParseError


class ScriptedExecutor:
    def __init__(
        self,
        table: List[Dict[str, Any]],
        sys_info: Optional[Dict[str, Any]] = None,
        strict: bool = True,
    ):
        self.table = table
        self.sys_info = dict(sys_info or {})
        self.strict = strict

    @classmethod
    def load(cls, source: Union[str, Path, Dict[str, Any]], strict: bool = True) -> "ScriptedExecutor":
        if isinstance(source, (str, Path)):
            try:
                doc = json.loads(Path(source).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ParseError(f"cannot load executor table {source}: {exc}") from exc
        else:
            doc = source
        return cls(doc.get("table", []), sys_info=doc.get("sys_info"), strict=strict)

    def execute(self, action: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        """Run one action; returns (structured result, virtual duration)."""
        function = action.get("function")
        args = action.get("args", {})
        if function == "SYS_INFO":
            return {"status": 0, "info": dict(self.sys_info), "stderr": ""}, 0.0
        if function == "EXEC_CLI":
            key = args.get("command_line", "")
        elif function == "NOTEPAD_WRITE":
            key = "NOTEPAD_WRITE " + args.get("content", "")
        else:
            return {"status": 1, "stdout": "", "stderr": f"unknown function {function!r}"}, 0.0
        entry = self._lookup(key)
        if entry is None:
            if self.strict:
                raise NoScriptEntry(f"no executor entry matches {key!r}")
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
