"""Per-session state: send counter and correlation log."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from .messages import AipMessage


@dataclass
class SessionState:
    session_id: str
    local_peer: str
    remote_peer: str
    next_send_seq: int = 0
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
