"""Deterministic in-memory network: per-link latency and scripted outages.

Frames are opaque byte strings; delivery order between two endpoints follows
(send time, sequence) ordering on the shared virtual clock. A frame sent
while its link is inside an outage interval is dropped at send time — the
endpoints only learn about it through their own liveness detection.

Each link has one fixed latency, so a link's frames arrive in send order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from ..clock import VirtualClock

FrameHandler = Callable[[str, bytes], None]  # (source address, frame)


@dataclass
class LinkSpec:
    """A link's latency and its outages, each a [down, up) interval."""
    latency: float = 0.005
    outages: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        intervals = sorted(self.outages)
        for down, up in intervals:
            if not down < up:
                raise ValueError(f"an outage must end after it starts, not [{down}, {up})")
        for (_, a_up), (b_down, _) in zip(intervals, intervals[1:]):
            if b_down < a_up:
                raise ValueError("outage intervals must not overlap")
        self.outages = intervals

    def in_outage(self, now: float) -> bool:
        for down, up in self.outages:
            if down <= now < up:
                return True
        return False


class SimNetwork:
    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self._handlers: Dict[str, FrameHandler] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self.wire_log: List[Dict[str, object]] = []

    def attach(self, address: str, handler: FrameHandler) -> None:
        self._handlers[address] = handler

    def add_link(self, a: str, b: str, spec: LinkSpec) -> None:
        self._links[a, b] = self._links[b, a] = spec

    def send(self, src: str, dst: str, frame: bytes, summary: str = "") -> None:
        link = self._links.get((src, dst))
        if link is None:
            raise KeyError(f"no link between {src!r} and {dst!r}")
        now = self.clock.now
        if link.outages and link.in_outage(now):
            self.wire_log.append(
                {"at": now, "src": src, "dst": dst, "summary": summary, "dropped": True}
            )
            return
        deliver_at = now + link.latency
        self.wire_log.append(
            {
                "at": now,
                "src": src,
                "dst": dst,
                "summary": summary,
                "dropped": False,
                "deliver_at": deliver_at,
            }
        )
        self.clock.call_at(deliver_at, partial(self._deliver, src, dst, frame))

    def _deliver(self, src: str, dst: str, frame: bytes) -> None:
        handler = self._handlers.get(dst)
        if handler is not None:
            handler(src, frame)
