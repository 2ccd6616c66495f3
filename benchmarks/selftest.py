"""Fast self-test of the benchmark.

    python3 benchmarks/selftest.py

Serves small requests of every workload (graphs of 20 tasks, one request per
scenario, the golden exploration), checks that a run prints every metric
that ``BENCHMARK.json`` names with the unit it declares, and that a request
whose output fails its check is counted as failed rather than dropped.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import run  # noqa: E402

TASKS = 20


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return doc, {
        0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
        1: {m["name"]: m["unit"] for m in doc["per_layer"]},
    }


class Requests(unittest.TestCase):
    def setUp(self):
        self.workloads = importlib.import_module("workloads")

    def serve(self, name, inp):
        outcomes = run.Outcomes()
        checked = outcomes.serve(self.workloads.WORKLOADS[name], inp)
        self.assertEqual(outcomes.failures, [])
        return checked

    def test_small_graphs_complete(self):
        for name in ("layered-bulk", "replan-stream"):
            inp = self.workloads.WORKLOADS[name].make_inputs(7, TASKS)[0]
            checked = self.serve(name, inp)
            self.assertEqual(checked.items, TASKS, name)

    def test_each_scenario_meets_its_verdict(self):
        for scenario in sorted(self.workloads.SCENARIO_OUTCOMES):
            checked = self.serve("fault-scenarios", (scenario, 0))
            self.assertEqual(checked.report.outcome.value, self.workloads.SCENARIO_OUTCOMES[scenario])

    def test_golden_exploration(self):
        checked = self.serve("explorer", None)
        golden, _ = checked.explored["golden"]
        self.assertEqual(
            (golden.distinct, golden.generated, golden.depth), (7168, 93633, 8)
        )


class FailedChecks(unittest.TestCase):
    def setUp(self):
        self.workloads = importlib.import_module("workloads")

    def test_failed_check_is_counted_not_dropped(self):
        layered = self.workloads.WORKLOADS["layered-bulk"]
        good = layered.make_inputs(7, TASKS)[0]
        # One layer too many: the run finishes a layer earlier than expected.
        bad = self.workloads.LayeredInput(good.config, good.layers + 1)
        outcomes = run.Outcomes()
        run.measure(layered, [good, bad], 0, outcomes)
        run.measure(layered, [good, bad], 0, outcomes)
        self.assertEqual((outcomes.attempted, outcomes.failed, len(outcomes.seconds)), (2, 1, 2))
        self.assertEqual(len(outcomes.scaled), 2)
        self.assertIn("finished at", outcomes.failures[0])
        line = run.result_line({}, {}, outcomes)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 2, 1))

    def test_raising_request_is_counted(self):
        def request(_inp):
            raise RuntimeError("broken")

        broken = self.workloads.Workload("broken", None, request, None)
        outcomes = run.Outcomes()
        run.measure(broken, [None], 0, outcomes)
        self.assertEqual((outcomes.attempted, outcomes.failed, outcomes.seconds), (1, 1, []))


class HostSpeed(unittest.TestCase):
    def test_job_time_is_left_out_of_the_clock(self):
        gauge = hostspeed.Gauge()
        clock, start = gauge.clock(), time.thread_time()
        gauge.run(20)
        self.assertLess(gauge.clock() - clock, 0.1 * (time.thread_time() - start))
        self.assertGreater(gauge.speed_since((0.0, 0)), 0.0)

    def test_sampling_runs_the_job_while_the_block_runs(self):
        gauge = hostspeed.Gauge()
        with gauge.sampling():
            end = time.thread_time() + 0.1
            while time.thread_time() < end:
                pass
        sampled = gauge.units
        time.sleep(0.01)
        self.assertGreater(sampled, 0)
        self.assertEqual(gauge.units, sampled)


class PrintedMetrics(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        doc, units = declared()
        self.assertEqual(doc["command"], ["python3", "benchmarks/run.py"])
        self.assertEqual(units[0], run.END_TO_END)
        self.assertEqual(units[1], run.PER_LAYER)
        self.assertEqual(
            [w["name"] for w in doc["workloads"]],
            ["fault-scenarios", "layered-bulk", "replan-stream", "explorer"],
        )

    def test_every_metric_printed_with_its_unit(self):
        _, units = declared()
        for workload in ("fault-scenarios", "layered-bulk", "replan-stream", "explorer"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, meta, notes = run.run(workload, 3, 0, bool(trace), tasks=TASKS)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        run.emit(result, meta, notes)
                    lines = out.getvalue().splitlines()
                    last = json.loads(lines[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual((last["correct"], last["failed"]), (True, 0))
                    self.assertEqual(
                        {name: m["unit"] for name, m in last["metrics"].items()}, units[trace]
                    )
                    for name, unit in units[trace].items():
                        value = last["metrics"][name]["value"]
                        self.assertIsInstance(value, float, name)
                        self.assertIn(f"metric {name} {value!r} {unit}", lines)


if __name__ == "__main__":
    unittest.main()
