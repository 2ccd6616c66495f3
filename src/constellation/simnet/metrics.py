"""DAG parallelism metrics: total work, critical path, width, ratio."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

from ..errors import ValidationFailed
from ..model import TaskConstellation, Violation


class ParallelismMetrics(NamedTuple):
    total_work: float  # W: sum of task durations
    critical_path: float  # L: longest duration-weighted path
    max_parallel_width: int  # peak concurrency, infinite-device replay
    parallelism_ratio: float  # P = W / L


def metrics_from_durations(
    constellation: TaskConstellation, durations: Dict[str, float]
) -> ParallelismMetrics:
    """Structural metrics from a duration map, one duration per task."""
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
    duration-weighted path ending at each task, whichever topological order
    the walk takes."""
    order = constellation.topological_order()
    if len(order) < len(constellation.tasks):
        cycle = ", ".join(sorted(constellation.tasks.keys() - set(order)))
        raise ValidationFailed([Violation("CycleIntroduced", f"cycle through {{{cycle}}}")])
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
