"""DAG parallelism metrics: total work, critical path, width, ratio."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import IncompleteRun
from ..model import TaskConstellation
from ..report import RunReport


@dataclass(frozen=True)
class ParallelismMetrics:
    total_work: float  # W: sum of task durations
    critical_path: float  # L: longest duration-weighted path
    max_parallel_width: int  # peak concurrency, infinite-device replay
    parallelism_ratio: float  # P = W / L
    actual_peak_running: Optional[int] = None  # peak from the real timeline

    def as_dict(self) -> Dict[str, object]:
        return {
            "total_work": self.total_work,
            "critical_path": self.critical_path,
            "max_parallel_width": self.max_parallel_width,
            "parallelism_ratio": self.parallelism_ratio,
            "actual_peak_running": self.actual_peak_running,
        }


def compute_metrics(report: RunReport, constellation: TaskConstellation) -> ParallelismMetrics:
    durations: Dict[str, float] = {}
    for task_id in constellation.tasks:
        timing = report.timings.get(task_id)
        if timing is None or timing.duration is None:
            raise IncompleteRun(f"no recorded duration for task {task_id!r}")
        durations[task_id] = timing.duration
    base = metrics_from_durations(constellation, durations)
    return ParallelismMetrics(
        total_work=base.total_work,
        critical_path=base.critical_path,
        max_parallel_width=base.max_parallel_width,
        parallelism_ratio=base.parallelism_ratio,
        actual_peak_running=_peak_overlap(
            [(t.dispatched_at, t.finished_at) for t in report.timings.values() if t.finished_at is not None]
        ),
    )


def metrics_from_durations(
    constellation: TaskConstellation, durations: Dict[str, float]
) -> ParallelismMetrics:
    """Structural metrics from a duration map (no run report required)."""
    if not constellation.tasks:
        return ParallelismMetrics(0.0, 0.0, 0, 1.0)
    starts, finishes = _infinite_device_schedule(constellation, durations)
    critical_path = max(finishes.values())
    total_work = sum(durations[tid] for tid in constellation.tasks)
    width = _peak_overlap([(starts[tid], finishes[tid]) for tid in constellation.tasks])
    ratio = total_work / critical_path if critical_path > 0 else 1.0
    return ParallelismMetrics(total_work, critical_path, width, ratio)


def _infinite_device_schedule(
    constellation: TaskConstellation, durations: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Earliest-start schedule with unlimited devices, in one walk over the
    model's topological order. Each task starts the instant all of its
    upstream tasks finish; finish times therefore equal the longest
    duration-weighted path ending at each task."""
    order = constellation.topological_order()
    if len(order) < len(constellation.tasks):
        raise IncompleteRun("dependency graph contains a cycle")
    starts: Dict[str, float] = {}
    finishes: Dict[str, float] = {}
    for task_id in order:
        starts[task_id] = max((finishes[e.from_task] for e in constellation.incoming(task_id)), default=0.0)
        finishes[task_id] = starts[task_id] + durations[task_id]
    return starts, finishes


def _peak_overlap(intervals: List[Tuple[float, float]]) -> int:
    """Peak number of simultaneously open [start, finish) intervals.

    Zero-length intervals still count as momentarily active at their start
    instant, so a graph of instantaneous tasks has width >= 1."""
    if not intervals:
        return 0
    # Sort keys: at the same instant, regular finishes (0) close before new
    # starts (1) open — back-to-back chain neighbours do not overlap — while
    # zero-length intervals close last (2) so they overlap same-instant starts.
    events: List[Tuple[float, int, int]] = []
    for start, finish in intervals:
        events.append((start, 1, 1))
        if finish <= start:
            events.append((start, 2, -1))
        else:
            events.append((finish, 0, -1))
    events.sort()
    peak = active = 0
    for _, _, delta in events:
        active += delta
        peak = max(peak, active)
    return peak
