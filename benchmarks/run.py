"""Benchmark of the constellation engine.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) for S seconds and prints every
metric by name and unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Every output is
checked; the exit code is 1 if any request raised or failed its check, and 2
if the program's sources are missing.

Load is a closed loop with one client: one process, one thread, and each
request sent when the previous one has returned. Every time is host time
unless its name ends in ``_virtual``; virtual values come from the
deterministic run reports and move only when the behaviour does. Host times
are the thread's CPU time (``time.thread_time``): the one thread computes
and never waits for I/O, so on an idle machine this is the elapsed time, and
on a shared machine it leaves out the time other tenants took. Only the
length of a run is measured in elapsed time. The end-to-end times are also
scaled to a reference host speed, measured with a fixed job run before,
during and after each request and set-up (see ``hostspeed.py``), because the
speed of a shared host's CPU second swings by about 1.9x; the raw times are
printed as notes.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
``SETUP_REPEATS`` set-ups (importing the program, generating the inputs and
one untimed warm-up request); ``request_ms_p50`` and ``request_ms_p90``;
``items_per_s``, terminal tasks (explored states on ``explorer``) per second
of request time; and ``peak_rss_mb``, the peak resident set of this process,
which runs one workload only. Failed requests are the result's ``failed``
out of ``attempted``, printed as ``failed_frac``.

``--trace 1`` reports the per-layer metrics. It first sweeps the
layered-bulk and replan-stream generators over three graph sizes, traced,
for the growth exponents, then alternates untraced and traced requests on
the same inputs until the time is up. The pairs give the tracing overhead
and must produce byte-identical outputs; the traced half gives the
per-layer calls and self times, per request. Raw spans of the first traced
requests are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time
from typing import Any, Dict, List, Optional, Tuple

import hostspeed
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 3
# Units of the host speed job run just before and just after each set-up
# and each timed request; more are sampled while they run.
SETUP_UNITS = 40
REQUEST_UNITS = 4
DEFAULT_TASKS = 100
# Traced requests whose raw spans are written out.
KEPT_REQUESTS = 10
# Untraced and traced request pairs a traced run serves even when the sweep
# has used up its time.
MIN_PAIRS = 3

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Spans reported as calls, self time and self time per call, per request.
TIMED_LAYERS = (
    "model.ready_tasks",
    "model.is_quiescent",
    "model.clone",
    "model.validate",
    "edits.build_constellation",
    "edits.apply_delta",
    "edits.edit_locality_violations",
    "serial.to_document",
    "planner.edit",
    "planner.trigger_matches",
    "aip.encode",
    "aip.decode",
    "simnet.send",
    "agent.reasoner_choose",
    "agent.executor_execute",
    "explorer.successors",
    "explorer.check_invariants",
)

PER_LAYER: Dict[str, str] = {
    **{
        f"{layer}.{suffix}": unit
        for layer in TIMED_LAYERS
        for suffix, unit in (("calls", "count"), ("self_ms", "ms"), ("us_per_call", "us"))
    },
    "model.transition.calls": "count",
    "model.ready_tasks.growth_exp": "exponent",
    "edits.build_constellation.growth_exp": "exponent",
    "edits.apply_delta.growth_exp": "exponent",
    "edits.apply_delta.rejected": "count",
    "serial.task_to_doc.calls": "count",
    "engine.run.self_ms": "ms",
    "engine.rounds": "count",
    "engine.represented_rounds": "count",
    "engine.lock_held_frac_virtual": "ratio",
    "engine.queue_wait_virtual_s": "s",
    "engine.assignments_while_held": "count",
    "clock.steps": "count",
    "clock.host_us_per_step": "us",
    "aip.bytes_encoded": "bytes",
    "simnet.frames_sent": "count",
    "simnet.frames_dropped": "count",
    "agent.serve_task.calls": "count",
    "explorer.dedup_ratio": "ratio",
    "explorer.golden_states_per_s": "1/s",
    "explorer.extended_states_per_s": "1/s",
    "trace_overhead_frac": "ratio",
}


class Outcomes:
    """Requests attempted, their host times and what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.seconds: List[float] = []
        # The same times scaled to the reference host speed, where measured.
        self.scaled: List[float] = []
        self.items = 0

    def serve(self, workload, inp, clock=thread_time):
        """One timed request and its untimed check; returns the check, or
        None if the request raised."""
        self.attempted += 1
        start = clock()
        try:
            output = workload.request(inp)
        except Exception as exc:  # a failed request is counted, not fatal
            self.failures.append(f"{workload.name}: request raised {exc!r}")
            return None
        self.seconds.append(clock() - start)
        checked = workload.check(inp, output)
        self.items += checked.items
        if checked.problems:
            self.failures.append(f"{workload.name}: " + "; ".join(checked.problems))
        return checked

    @property
    def failed(self) -> int:
        return len(self.failures)

    def absorb(self, other: "Outcomes") -> None:
        """Counts another set's requests and failures in this one."""
        self.attempted += other.attempted
        self.failures += other.failures


def set_up(workload_name: str, seed: int, tasks: int, outcomes: Outcomes):
    """Imports the program afresh, makes the inputs and serves one untimed
    warm-up request. Returns the workload, its inputs and the host seconds,
    scaled to the reference speed."""
    for name in list(sys.modules):
        if name in ("constellation", "workloads") or name.startswith("constellation."):
            del sys.modules[name]
    gauge = hostspeed.Gauge()
    with gauge.sampling():
        gauge.run(SETUP_UNITS)
        start = gauge.clock()
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[workload_name]
        inputs = workload.make_inputs(seed, tasks)
        warm = Outcomes()
        warm.serve(workload, inputs[0])
        elapsed = gauge.clock() - start
        gauge.run(SETUP_UNITS)
    outcomes.absorb(warm)
    return workloads, workload, inputs, elapsed * gauge.speed_since((0.0, 0))


def percentile(samples: List[float], fraction: float) -> float:
    if len(samples) < 2:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def measure(workload, inputs: List[Any], seconds: float, outcomes: Outcomes) -> None:
    """Serves requests for ``seconds``, at least one, and scales each one's
    time by the host speed over the job run just before, during and just
    after it."""
    deadline = perf_counter() + seconds
    served = 0
    gauge = hostspeed.Gauge()
    with gauge.sampling():
        before = gauge.mark()
        gauge.run(REQUEST_UNITS)
        while served == 0 or perf_counter() < deadline:
            timed = len(outcomes.seconds)
            outcomes.serve(workload, inputs[outcomes.attempted % len(inputs)], gauge.clock)
            after = gauge.mark()
            gauge.run(REQUEST_UNITS)
            if len(outcomes.seconds) > timed:
                outcomes.scaled.append(outcomes.seconds[-1] * gauge.speed_since(before))
            before = after
            served += 1


def end_to_end(workload, inputs, seconds: float, setup_times: List[float], outcomes: Outcomes):
    timed = Outcomes()
    measure(workload, inputs, seconds, timed)
    outcomes.absorb(timed)
    samples = timed.scaled or [0.0]
    raw = timed.seconds or [0.0]
    scale = statistics.median(s / r for s, r in zip(timed.scaled, timed.seconds)) if timed.seconds else math.nan
    notes = [
        f"{len(timed.seconds)} timed requests after {len(setup_times)} set-ups",
        f"raw request_ms_p50 {1e3 * statistics.median(raw)!r}, request_ms_p90 {1e3 * percentile(raw, 0.90)!r};"
        f" median scale to the reference host speed {scale!r}",
    ]
    return {
        "setup_s": statistics.median(setup_times),
        "request_ms_p50": 1e3 * statistics.median(samples),
        "request_ms_p90": 1e3 * percentile(samples, 0.90),
        "items_per_s": timed.items / sum(samples) if sum(samples) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, notes


# -- traced run ------------------------------------------------------------


def sweep(workloads, recorder, seed: int, tasks: int, outcomes: Outcomes):
    """Traced requests of the swept generators at half, once and twice the
    request size. Returns {generator: {size: (request s, Totals)}}."""
    table: Dict[str, Dict[int, Tuple[float, Any]]] = {}
    request_id = 0
    for name in workloads.SWEPT:
        workload = workloads.WORKLOADS[name]
        for size in (tasks // 2, tasks, 2 * tasks):
            inp = workload.make_inputs(seed, size)[0]
            recorder.take()
            runs = Outcomes()
            # Negative request ids keep sweep spans apart from the pairs'.
            request_id -= 1
            with recorder.installed(), recorder.request(request_id):
                runs.serve(workload, inp)
            table.setdefault(name, {})[size] = (sum(runs.seconds), recorder.take())
            outcomes.absorb(runs)
    return table


def growth_exponents(table, tasks: int) -> Dict[str, float]:
    def self_s(generators, span: str, size: int) -> float:
        return sum(table[g][size][1].self_s.get(span, 0.0) for g in generators)

    def exponent(generators, span: str) -> float:
        small, large = self_s(generators, span, tasks), self_s(generators, span, 2 * tasks)
        return math.log2(large / small) if small > 0 and large > 0 else 0.0

    return {
        "model.ready_tasks.growth_exp": exponent(("layered-bulk", "replan-stream"), "model.ready_tasks"),
        "edits.build_constellation.growth_exp": exponent(("layered-bulk",), "edits.build_constellation"),
        "edits.apply_delta.growth_exp": exponent(("replan-stream",), "edits.apply_delta"),
    }


def engine_virtuals(reports) -> Dict[str, float]:
    held, waits = [], []
    for report in reports:
        total, acquired = 0.0, None
        for entry in report.lock_trace:
            if entry["action"] == "acquire":
                acquired = entry["at"]
            elif acquired is not None:
                total += entry["at"] - acquired
                acquired = None
        if acquired is not None:
            total += report.finished_at - acquired
        held.append(total / report.finished_at if report.finished_at else 0.0)
        waits += [
            cycle.started_at - event["at"]
            for cycle in report.edit_cycles
            if not cycle.represented
            for event in cycle.batch
        ]
    count = max(len(reports), 1)
    return {
        "engine.rounds": sum(len(r.edit_cycles) for r in reports) / count,
        "engine.represented_rounds": sum(c.represented for r in reports for c in r.edit_cycles) / count,
        "engine.lock_held_frac_virtual": sum(held) / count,
        "engine.queue_wait_virtual_s": sum(waits) / len(waits) if waits else 0.0,
        "engine.assignments_while_held": sum(r.assignments_while_held for r in reports) / count,
        "simnet.frames_dropped": sum(len(r.dropped_frames) for r in reports) / count,
    }


def per_layer(workloads, workload, inputs, seed: int, seconds: float, tasks: int, outcomes: Outcomes):
    recorder = spans.Recorder(workloads.PLANNERS, keep_requests=KEPT_REQUESTS)
    deadline = perf_counter() + seconds
    table = sweep(workloads, recorder, seed, tasks, outcomes)
    recorder.take()
    plain, traced = Outcomes(), Outcomes()
    reports, explored = [], []
    pair = 0
    while pair < MIN_PAIRS or perf_counter() < deadline:
        inp = inputs[pair % len(inputs)]
        checks = {}
        # Alternate which side goes first, so neither always runs warm.
        for side in (plain, traced) if pair % 2 == 0 else (traced, plain):
            if side is traced:
                with recorder.installed(), recorder.request(pair):
                    checks["traced"] = traced.serve(workload, inp)
            else:
                checks["plain"] = plain.serve(workload, inp)
        if checks["plain"] and checks["traced"]:
            if checks["plain"].canonical != checks["traced"].canonical:
                traced.failures.append(f"{workload.name}: traced output differs from untraced output")
            if checks["traced"].report is not None:
                reports.append(checks["traced"].report)
            if checks["plain"].explored:
                explored.append(checks["plain"].explored)
        pair += 1
    outcomes.absorb(plain)
    outcomes.absorb(traced)

    totals = recorder.take()
    count = max(len(traced.seconds), 1)
    metrics: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        calls = totals.calls.get(layer, 0)
        self_s = totals.self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls / count
        metrics[f"{layer}.self_ms"] = 1e3 * self_s / count
        metrics[f"{layer}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    metrics["model.transition.calls"] = totals.counts.get("model.transition", 0) / count
    metrics.update(growth_exponents(table, tasks))
    metrics["edits.apply_delta.rejected"] = totals.raised.get("edits.apply_delta", 0) / count
    metrics["serial.task_to_doc.calls"] = totals.counts.get("serial.task_to_doc", 0) / count
    metrics["engine.run.self_ms"] = 1e3 * totals.self_s.get("engine.run", 0.0) / count
    metrics.update(engine_virtuals(reports))
    steps = totals.counts.get("clock.step", 0) / count
    plain_mean_s = statistics.fmean(plain.seconds) if plain.seconds else math.nan
    metrics["clock.steps"] = steps
    metrics["clock.host_us_per_step"] = 1e6 * plain_mean_s / steps if steps else 0.0
    metrics["aip.bytes_encoded"] = totals.counts.get("aip.bytes_encoded", 0) / count
    metrics["simnet.frames_sent"] = metrics["simnet.send.calls"] - metrics["simnet.frames_dropped"]
    metrics["agent.serve_task.calls"] = totals.counts.get("agent.serve_task", 0) / count
    for mode in ("golden", "extended"):
        states = sum(e[mode][0].generated for e in explored)
        mode_s = sum(e[mode][1] for e in explored)
        metrics[f"explorer.{mode}_states_per_s"] = states / mode_s if mode_s else 0.0
    golden = explored[0]["golden"][0] if explored else None
    metrics["explorer.dedup_ratio"] = golden.distinct / golden.generated if golden else 0.0
    untraced_p50 = statistics.median(plain.seconds) if plain.seconds else math.nan
    traced_p50 = statistics.median(traced.seconds) if traced.seconds else math.nan
    metrics["trace_overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50

    notes = [
        f"{len(traced.seconds)} traced and {len(plain.seconds)} untraced requests, paired on the same inputs",
        "sizes from 400 tasks up are not swept: each request takes tens of seconds while the"
        " model rebuilds its adjacency on every query",
    ]
    for name, sizes in table.items():
        for size, (request_s, size_totals) in sorted(sizes.items()):
            layers = ", ".join(
                f"{span} {1e3 * size_totals.self_s.get(span, 0.0):.1f} ms"
                for span in ("edits.build_constellation", "edits.apply_delta", "model.ready_tasks")
            )
            notes.append(f"sweep {name} {size} tasks: request {1e3 * request_s:.1f} ms traced; self {layers}")
    return metrics, recorder, notes


# -- output ----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` directly; None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool, tasks: int = DEFAULT_TASKS):
    """One benchmark run; returns (result line, metadata, notes)."""
    outcomes = Outcomes()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        workloads, workload, inputs, elapsed = set_up(workload_name, seed, tasks, outcomes)
        setup_times.append(elapsed)
    gc.collect()
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": {"tasks": tasks, "distinct_inputs": len(inputs)},
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if trace:
        meta["sizes"]["sweep_tasks"] = [tasks // 2, tasks, 2 * tasks]
        metrics, recorder, notes = per_layer(workloads, workload, inputs, seed, seconds, tasks, outcomes)
        units = PER_LAYER
        recorder.write(OUT_DIR / f"spans-{workload_name}-seed{seed}.json", meta)
    else:
        metrics, notes = end_to_end(workload, inputs, seconds, setup_times, outcomes)
        units = END_TO_END
    notes.append(f"failed_frac {outcomes.failed / outcomes.attempted} of {outcomes.attempted} attempted")
    notes += outcomes.failures[:10]
    return result_line(metrics, units, outcomes), meta, notes


def result_line(metrics: Dict[str, float], units: Dict[str, str], outcomes: Outcomes) -> Dict[str, Any]:
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def emit(result, meta, notes) -> None:
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print("note " + note)
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result), flush=True)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fault-scenarios", "layered-bulk", "replan-stream", "explorer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "constellation" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: the program's sources are not under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    result, meta, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, meta, notes)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
