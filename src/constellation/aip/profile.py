"""Agent profiles and the three-source registration merge.

A profile is assembled from up to three layers — static user configuration,
the device's service manifest, and live client telemetry — with later layers
winning on overlap and every field group stamped with the source that
supplied it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from ..errors import SchemaViolation

# The liveness policy both sides apply: an agent beats every
# HEARTBEAT_INTERVAL seconds, and MISSED_K missed beats disconnect it.
HEARTBEAT_INTERVAL = 5.0
MISSED_K = 3

# Field groups a profile layer may carry, with the JSON type of each.
_LAYER_FIELDS = {
    "os": str,
    "os_version": str,
    "capabilities": list,
    "performance": dict,
    "paths": dict,
    "network": dict,
}


class AgentStatus(Enum):
    IDLE = "IDLE"
    DISCONNECTED = "DISCONNECTED"


@dataclass
class AgentProfile:
    agent_id: str
    status: AgentStatus = AgentStatus.IDLE
    os: str = ""
    os_version: str = ""
    capabilities: List[str] = field(default_factory=list)
    performance: Dict[str, Any] = field(default_factory=dict)
    paths: Dict[str, str] = field(default_factory=dict)
    network: Dict[str, str] = field(default_factory=dict)
    last_heartbeat: float = 0.0
    sources: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "agent_id": self.agent_id,
            "status": self.status.value,
            "os": self.os,
            "os_version": self.os_version,
            "capabilities": list(self.capabilities),
            "performance": dict(self.performance),
            "paths": dict(self.paths),
            "network": dict(self.network),
            "last_heartbeat": self.last_heartbeat,
            "sources": dict(self.sources),
        }


def merge_profile(
    agent_id: str,
    user_config: Optional[Dict[str, Any]] = None,
    service_manifest: Optional[Dict[str, Any]] = None,
    client_telemetry: Optional[Dict[str, Any]] = None,
) -> AgentProfile:
    """Layered merge; later stages override earlier ones per field group.

    A layer that is not an object, or a field group of the wrong type,
    raises ``SchemaViolation``."""
    profile = AgentProfile(agent_id=agent_id)
    stages = (
        ("user-config", user_config),
        ("service-manifest", service_manifest),
        ("client-telemetry", client_telemetry),
    )
    for source, data in stages:
        if data is None:
            continue
        if not isinstance(data, dict):
            raise SchemaViolation(source, f"expected an object, got {type(data).__name__}")
        for name, expected in _LAYER_FIELDS.items():
            if name in data and not isinstance(data[name], expected):
                raise SchemaViolation(
                    f"{source}.{name}", f"expected {expected.__name__}, got {type(data[name]).__name__}"
                )
        if "os" in data:
            profile.os = data["os"]
            profile.sources["os"] = source
        if "os_version" in data:
            profile.os_version = data["os_version"]
            profile.sources["os"] = source
        if "capabilities" in data:
            profile.capabilities = list(data["capabilities"])
            profile.sources["capabilities"] = source
        if "performance" in data:
            profile.performance.update(data["performance"])
            profile.sources["performance"] = source
        if "paths" in data:
            profile.paths.update(data["paths"])
            profile.sources["paths"] = source
        if "network" in data:
            profile.network.update(data["network"])
            profile.sources["network"] = source
    return profile


class ProfileRegistry:
    """Orchestrator-side registry with heartbeat bookkeeping.

    An agent becomes DISCONNECTED once ``MISSED_K`` expected heartbeat
    intervals elapse with no beat; it only rejoins the pool after a fresh
    REGISTER (resumed heartbeats alone are not enough)."""

    def __init__(self) -> None:
        self.profiles: Dict[str, AgentProfile] = {}

    def register(self, profile: AgentProfile, now: float) -> None:
        profile.status = AgentStatus.IDLE
        profile.last_heartbeat = now
        self.profiles[profile.agent_id] = profile

    def heartbeat(self, agent_id: str, now: float) -> None:
        profile = self.profiles.get(agent_id)
        if profile is None:
            return
        profile.last_heartbeat = max(profile.last_heartbeat, now)

    def deadline_for(self, agent_id: str) -> float:
        profile = self.profiles[agent_id]
        return profile.last_heartbeat + HEARTBEAT_INTERVAL * MISSED_K

    def mark_disconnected(self, agent_id: str) -> None:
        profile = self.profiles.get(agent_id)
        if profile is not None:
            profile.status = AgentStatus.DISCONNECTED

    def available(self) -> List[str]:
        return sorted(
            agent_id
            for agent_id, profile in self.profiles.items()
            if profile.status is not AgentStatus.DISCONNECTED
        )
