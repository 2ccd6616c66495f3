"""Host speed, measured with a fixed job beside and inside the requests.

The benchmark runs on a few cores of a shared host whose speed per CPU
second swings by about 1.9x, between phases that last minutes and at
times within a second. A request's CPU time alone measures that swing as
much as the program. So the benchmark also runs a fixed pure-Python job,
``_job``, and scales each request's time by how fast the host ran the job
meanwhile:

    scaled = request seconds * (REFERENCE_UNIT_S / job seconds per unit) ** SENSITIVITY

``Gauge`` runs the job in slices just before and just after each request,
and, while its ``sampling`` block is active, once every ``INTERVAL_S`` of
CPU time from a timer signal, so that the host's speed is also sampled in
the middle of a long request. Its ``clock`` leaves the job's time out of
the request's time.

The job uses only the standard library, never the program, so a change to
the program moves the scaled time as much as the raw one, while a change of
host speed moves the request and the job alike and cancels. A scaled time
reads as the request's time on the reference host, at ``REFERENCE_UNIT_S``
per unit. When that host slows, the job slows more than the program does:
over the requests of one run, log request time follows log job time with a
slope of 0.77 to 0.79 on layered-bulk, explorer and fault-scenarios alike,
so the job's speed counts with that power, ``SENSITIVITY``.
"""

from __future__ import annotations

import gc
import json
import random
import signal
from collections import deque
from contextlib import contextmanager
from time import thread_time
from typing import Dict, Iterator, List, Tuple

# Thread seconds of one unit on the reference host: an Intel Xeon vCPU
# (2 vCPUs), Python 3.11, at its faster speed.
REFERENCE_UNIT_S = 0.27e-3
# CPU time between two samples while sampling; the kernel rounds it up to
# its tick, so a sample comes about every 4 ms.
INTERVAL_S = 2e-3
SENSITIVITY = 0.78

_NODES = 120


def _fixed_dag() -> List[Tuple[int, int]]:
    rng = random.Random(0)
    return [(u, v) for v in range(1, _NODES) for u in sorted(rng.sample(range(v), min(v, 2)))]


_EDGES = _fixed_dag()


def _job() -> int:
    """Interpreter work of the kinds the program does: dicts, lists, small
    objects, calls, a graph walk and JSON encoding."""
    succ: Dict[int, List[int]] = {n: [] for n in range(_NODES)}
    indegree = dict.fromkeys(range(_NODES), 0)
    for u, v in _EDGES:
        succ[u].append(v)
        indegree[v] += 1
    ready = deque(n for n, d in indegree.items() if d == 0)
    order = []
    while ready:
        node = ready.popleft()
        order.append({"id": f"t{node:05d}", "status": "COMPLETED", "after": len(order)})
        for nxt in succ[node]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return len(json.dumps(order, sort_keys=True))


class Gauge:
    """Runs the job and keeps its total thread seconds and units."""

    def __init__(self) -> None:
        self.job_s = 0.0
        self.units = 0
        self._busy = False

    def run(self, units: int) -> None:
        """Runs the job ``units`` times. The collector is off meanwhile, so
        the objects the program keeps alive do not slow the job."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        start = thread_time()
        try:
            for _ in range(units):
                _job()
        finally:
            self.job_s += thread_time() - start
            self.units += units
            if enabled:
                gc.enable()
            self._busy = False

    def clock(self) -> float:
        """Thread seconds so far, less those the job took."""
        return thread_time() - self.job_s

    def mark(self) -> Tuple[float, int]:
        return self.job_s, self.units

    def speed_since(self, mark: Tuple[float, int]) -> float:
        """The factor that scales a time to the reference host speed, from
        the job run since ``mark``."""
        job_s, units = self.job_s - mark[0], self.units - mark[1]
        return (REFERENCE_UNIT_S * units / job_s) ** SENSITIVITY

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Runs one unit every INTERVAL_S of CPU time until the block ends."""
        previous = signal.signal(signal.SIGVTALRM, lambda _signum, _frame: self.run(1))
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
            signal.signal(signal.SIGVTALRM, previous)
