"""Per-session state: lifecycle phase, FIFO counters and correlation log."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set

from .messages import AipMessage


class SessionPhase(Enum):
    ACTIVE = "ACTIVE"
    CLOSED = "CLOSED"


@dataclass
class SessionState:
    session_id: str
    local_peer: str
    remote_peer: str
    phase: SessionPhase = SessionPhase.ACTIVE
    next_send_seq: int = 0
    outstanding_commands: Set[str] = field(default_factory=set)
    log: List[Dict[str, Any]] = field(default_factory=list)

    def record(
        self, direction: str, msg: AipMessage, at: float, synthetic: bool = False
    ) -> None:
        entry: Dict[str, Any] = {
            "at": at,
            "direction": direction,  # "sent" | "received" | "local"
            "msg_type": msg.msg_type.value,
            "body": msg.body,
            "seq": self.next_send_seq if direction == "sent" else None,
        }
        if direction == "sent":
            self.next_send_seq += 1
        if synthetic:
            entry["synthetic"] = True
        self.log.append(entry)

    def open_command(self, command_id: str) -> None:
        self.outstanding_commands.add(command_id)

    def close_command(self, command_id: str) -> bool:
        if command_id in self.outstanding_commands:
            self.outstanding_commands.remove(command_id)
            return True
        return False

    def close(self) -> None:
        self.phase = SessionPhase.CLOSED
        self.outstanding_commands.clear()
