"""Agent profiles, the two-layer registration merge, and the liveness
watchdog both ends of an AIP link keep.

A profile is assembled from the two layers a REGISTER frame carries — the
device's service manifest, then live client telemetry — with telemetry
winning on overlap and every field group stamped with the source that
supplied it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..clock import TimerHandle, VirtualClock
from ..errors import SchemaViolation

# The liveness policy both sides apply: an agent beats every
# HEARTBEAT_INTERVAL seconds, and MISSED_K missed beats disconnect it.
HEARTBEAT_INTERVAL = 5.0
MISSED_K = 3
_SILENCE = HEARTBEAT_INTERVAL * MISSED_K


class Watchdog:
    """Timeout failure detector for one end of a link (Chandra & Toueg,
    "Unreliable failure detectors for reliable distributed systems", JACM
    1996): a peer silent for ``MISSED_K`` beats since the last ``feed`` is
    reported once through ``on_silence``.

    ``feed`` only moves the last-seen time. The one armed timer re-checks it
    when it expires and is re-armed at the new deadline while feeds keep
    coming, so a beat schedules no timer."""

    def __init__(self, clock: VirtualClock, on_silence: Callable[[], None]) -> None:
        self.clock = clock
        self.on_silence = on_silence
        self.last_seen = 0.0
        self._timer: Optional[TimerHandle] = None

    def start(self) -> None:
        """Watch from now on, replacing the armed timer if there is one."""
        if self._timer is not None:
            self._timer.cancel()
        self.last_seen = self.clock.now
        self._arm()

    def feed(self) -> None:
        self.last_seen = self.clock.now

    def _arm(self) -> None:
        self._timer = self.clock.call_at(self.last_seen + _SILENCE, self._expire)

    def _expire(self) -> None:
        if self.clock.now < self.last_seen + _SILENCE:
            self._arm()
        else:
            self.on_silence()


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
    sources: Dict[str, str] = field(default_factory=dict)


def merge_profile(
    agent_id: str,
    service_manifest: Optional[Dict[str, Any]] = None,
    client_telemetry: Optional[Dict[str, Any]] = None,
) -> AgentProfile:
    """Layered merge; telemetry overrides the manifest per field group.

    A layer that is not an object, or a field group of the wrong type,
    raises ``SchemaViolation``."""
    profile = AgentProfile(agent_id=agent_id)
    stages = (
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
    """Orchestrator-side registry of agent profiles and their status.

    An agent marked DISCONNECTED (by the orchestrator's watchdog) only
    rejoins the pool after a fresh REGISTER: resumed heartbeats alone are
    not enough."""

    def __init__(self) -> None:
        self.profiles: Dict[str, AgentProfile] = {}

    def register(self, profile: AgentProfile) -> None:
        profile.status = AgentStatus.IDLE
        self.profiles[profile.agent_id] = profile

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
