"""Deterministic in-memory network: per-link latency and scripted outages.

Frames are opaque byte strings; delivery order between two endpoints follows
(send time, sequence) ordering on the shared virtual clock. A frame sent
while its link is inside an outage interval is dropped at send time — the
endpoints only learn about it through their own liveness detection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple, Union

from ..clock import VirtualClock

Latency = Union[float, Tuple[float, float]]
FrameHandler = Callable[[str, bytes], None]  # (source address, frame)


@dataclass
class LinkSpec:
    latency: Latency = 0.005
    outages: List[Tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        intervals = sorted(self.outages)
        for (a_down, a_up), (b_down, _) in zip(intervals, intervals[1:]):
            if b_down < a_up:
                raise ValueError("outage intervals must not overlap")
        self.outages = intervals

    def in_outage(self, now: float) -> bool:
        for down, up in self.outages:
            if down <= now < up:
                return True
        return False


class SimNetwork:
    def __init__(self, clock: VirtualClock, seed: int = 0):
        self.clock = clock
        self.seed = seed
        self._handlers: Dict[str, FrameHandler] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self.wire_log: List[Dict[str, object]] = []

    def attach(self, address: str, handler: FrameHandler) -> None:
        self._handlers[address] = handler

    def add_link(self, a: str, b: str, spec: LinkSpec) -> None:
        key = self._key(a, b)
        self._links[key] = spec
        self._rngs[key] = random.Random(f"{self.seed}:{key[0]}:{key[1]}")

    def send(self, src: str, dst: str, frame: bytes, summary: str = "") -> None:
        link = self._links.get((src, dst) if src <= dst else (dst, src))
        if link is None:
            raise KeyError(f"no link between {src!r} and {dst!r}")
        now = self.clock.now
        if link.outages and link.in_outage(now):
            self.wire_log.append(
                {"at": now, "src": src, "dst": dst, "summary": summary, "dropped": True}
            )
            return
        latency = link.latency
        if type(latency) is not float:
            latency = self._latency(src, dst, link)
        deliver_at = now + latency
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

    def _latency(self, src: str, dst: str, link: LinkSpec) -> float:
        if isinstance(link.latency, (int, float)):
            return float(link.latency)
        lo, hi = link.latency
        return self._rngs[self._key(src, dst)].uniform(lo, hi)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)
