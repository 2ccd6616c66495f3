"""Virtual clock, deterministic network, parallelism metrics, markdown log."""

import random

import pytest

from constellation import (
    EngineConfig,
    NoopPlanner,
    Orchestrator,
    ScriptedDispatcher,
    TaskConstellation,
    VirtualClock,
    build_constellation,
)
from constellation.errors import IncompleteRun
from constellation.simnet.metrics import (
    _peak_overlap,
    compute_metrics,
    metrics_from_durations,
)
from constellation.simnet.mdlog import emit_markdown_log, mermaid_block
from constellation.simnet.network import LinkSpec, SimNetwork
from conftest import random_dag


# ---------------------------------------------------------------------------
# Virtual clock
# ---------------------------------------------------------------------------


class TestVirtualClock:
    def test_same_instant_fires_in_schedule_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(5.0, lambda: fired.append("first"))
        clock.call_later(5.0, lambda: fired.append("second"))
        clock.call_later(1.0, lambda: fired.append("early"))
        clock.run()
        assert fired == ["early", "first", "second"]
        assert clock.now == 5.0

    def test_cancelled_timer_never_fires(self):
        clock = VirtualClock()
        fired = []
        handle = clock.call_later(1.0, lambda: fired.append("no"))
        clock.call_later(2.0, lambda: fired.append("yes"))
        handle.cancel()
        clock.run()
        assert fired == ["yes"]

    def test_run_deadline_stops_at_deadline(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(10.0, lambda: fired.append("late"))
        clock.run(deadline=3.0)
        assert fired == [] and clock.now == 3.0
        clock.run()
        assert fired == ["late"]

    def test_run_until_predicate(self):
        clock = VirtualClock()
        fired = []
        for t in (1.0, 2.0, 3.0):
            clock.call_later(t, lambda t=t: fired.append(t))
        clock.run(until=lambda: len(fired) >= 2)
        assert fired == [1.0, 2.0]

    def test_scheduling_in_the_past_is_rejected(self):
        clock = VirtualClock()
        clock.call_later(1.0, lambda: None)
        clock.run()
        with pytest.raises(ValueError):
            clock.call_at(0.5, lambda: None)


# ---------------------------------------------------------------------------
# Simulated network
# ---------------------------------------------------------------------------


def make_net(seed=0, latency=0.005, outages=()):
    clock = VirtualClock()
    net = SimNetwork(clock, seed=seed)
    inbox = []
    net.attach("a", lambda src, frame: inbox.append(("a", src, frame, clock.now)))
    net.attach("b", lambda src, frame: inbox.append(("b", src, frame, clock.now)))
    net.add_link("a", "b", LinkSpec(latency=latency, outages=list(outages)))
    return clock, net, inbox


class TestSimNetwork:
    def test_fixed_latency_delivery(self):
        clock, net, inbox = make_net(latency=0.25)
        net.send("a", "b", b"hi", summary="hi")
        clock.run()
        assert inbox == [("b", "a", b"hi", 0.25)]
        assert net.wire_log[0]["deliver_at"] == 0.25

    def test_random_latency_is_deterministic_per_seed(self):
        def draws(seed):
            clock, net, inbox = make_net(seed=seed, latency=(0.01, 0.05))
            for _ in range(20):
                net.send("a", "b", b"x")
            clock.run()
            return [at for _, _, _, at in inbox]

        first, second = draws(7), draws(7)
        assert first == second
        assert draws(8) != first
        assert all(0.01 <= at <= 0.05 for at in first)

    def test_outage_interval_is_half_open(self):
        clock, net, inbox = make_net(outages=[(5.0, 10.0)])
        for at in (4.9, 5.0, 9.999, 10.0):
            clock.call_at(at, lambda: net.send("a", "b", b"t"))
        clock.run()
        delivered = [record for record in net.wire_log if not record["dropped"]]
        dropped = [record for record in net.wire_log if record["dropped"]]
        assert [r["at"] for r in delivered] == [4.9, 10.0]
        assert [r["at"] for r in dropped] == [5.0, 9.999]
        assert len(inbox) == 2

    def test_dropped_frames_are_logged_not_delivered(self):
        clock, net, inbox = make_net(outages=[(0.0, 100.0)])
        net.send("a", "b", b"lost", summary="lost")
        clock.run()
        assert inbox == []
        assert net.wire_log == [
            {"at": 0.0, "src": "a", "dst": "b", "summary": "lost", "dropped": True}
        ]

    def test_overlapping_outages_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(outages=[(0.0, 10.0), (5.0, 15.0)])

    def test_missing_link_raises(self):
        clock, net, _ = make_net()
        net.attach("c", lambda src, frame: None)
        with pytest.raises(KeyError):
            net.send("a", "c", b"x")


# ---------------------------------------------------------------------------
# Parallelism metrics, checked against brute-force oracles
# ---------------------------------------------------------------------------


def oracle_longest_path(constellation, durations):
    """Longest node-weighted path by enumerating every simple path."""
    best = 0.0

    def extend(task_id, total):
        nonlocal best
        total += durations[task_id]
        best = max(best, total)
        for edge in constellation.edges.values():
            if edge.from_task == task_id:
                extend(edge.to_task, total)

    for task_id in constellation.tasks:
        extend(task_id, 0.0)
    return best


def oracle_schedule(constellation, durations):
    """Earliest-start schedule by recursive definition (memoised)."""
    finishes = {}

    def finish(task_id):
        if task_id not in finishes:
            preds = [e.from_task for e in constellation.incoming(task_id)]
            start = max((finish(p) for p in preds), default=0.0)
            finishes[task_id] = start + durations[task_id]
        return finishes[task_id]

    return {
        tid: (finish(tid) - durations[tid], finish(tid)) for tid in constellation.tasks
    }


def oracle_width(intervals):
    """Peak overlap by probing the active count just after every start."""
    if not intervals:
        return 0
    eps = 1e-9
    peak = 0
    for start, _ in intervals:
        probe = start + eps
        active = sum(
            1
            for s, f in intervals
            if (s <= start and probe <= f) or (s == start and f <= s)
        )
        peak = max(peak, active)
    return peak


def fig4_with_uniform_durations():
    c = build_constellation(
        {
            "tasks": [{"id": tid, "device": "dev", "name": tid} for tid in "ABCDE"],
            "dependencies": [
                {"id": eid, "from_task": frm, "to_task": to}
                for eid, frm, to in (
                    ("eAC", "A", "C"),
                    ("eBD", "B", "D"),
                    ("eCD", "C", "D"),
                    ("eDE", "D", "E"),
                )
            ],
        }
    )
    return c, {tid: 10.0 for tid in "ABCDE"}


class TestMetrics:
    def test_fig4_reference_values(self):
        c, durations = fig4_with_uniform_durations()
        m = metrics_from_durations(c, durations)
        assert m.total_work == 50.0
        assert m.critical_path == 40.0
        assert m.max_parallel_width == 2
        assert m.parallelism_ratio == pytest.approx(1.25, abs=1e-9)

    def test_chain_has_width_one_and_ratio_one(self):
        c = build_constellation(
            {
                "tasks": [{"id": tid, "device": "dev"} for tid in "XYZ"],
                "dependencies": [
                    {"id": "e1", "from_task": "X", "to_task": "Y"},
                    {"id": "e2", "from_task": "Y", "to_task": "Z"},
                ],
            }
        )
        m = metrics_from_durations(c, {"X": 1.0, "Y": 2.0, "Z": 3.0})
        assert m.critical_path == m.total_work == 6.0
        assert m.max_parallel_width == 1
        assert m.parallelism_ratio == pytest.approx(1.0)

    def test_independent_tasks_are_fully_parallel(self):
        c = build_constellation({"tasks": [{"id": tid, "device": "dev"} for tid in "PQRS"]})
        m = metrics_from_durations(c, {tid: 5.0 for tid in "PQRS"})
        assert m.critical_path == 5.0
        assert m.max_parallel_width == 4
        assert m.parallelism_ratio == pytest.approx(4.0)

    def test_empty_constellation(self):
        m = metrics_from_durations(TaskConstellation(), {})
        assert (m.total_work, m.critical_path, m.max_parallel_width) == (0.0, 0.0, 0)
        assert m.parallelism_ratio == 1.0

    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs_match_oracles(self, seed):
        rng = random.Random(seed)
        c = random_dag(rng, max_nodes=6)
        durations = {tid: rng.choice([0.0, 1.0, 2.5, 7.0]) for tid in c.tasks}
        m = metrics_from_durations(c, durations)
        assert m.total_work == pytest.approx(sum(durations.values()), abs=1e-9)
        expected_l = oracle_longest_path(c, durations)
        assert m.critical_path == pytest.approx(expected_l, abs=1e-9)
        schedule = oracle_schedule(c, durations)
        assert m.max_parallel_width == oracle_width(list(schedule.values()))
        if expected_l > 0:
            assert m.parallelism_ratio == pytest.approx(
                sum(durations.values()) / expected_l, abs=1e-9
            )

    def test_cycle_raises_incomplete_run(self):
        """A 2-cycle, made with the raw op (a delta would refuse it), leaves
        the topological order short of the task count."""
        c = build_constellation({"tasks": [{"id": tid, "device": "dev"} for tid in "PQR"]})
        c._add_dependency({"id": "ePQ", "from_task": "P", "to_task": "Q"})
        c._add_dependency({"id": "eQP", "from_task": "Q", "to_task": "P"})
        with pytest.raises(IncompleteRun, match="dependency graph contains a cycle"):
            metrics_from_durations(c, {tid: 1.0 for tid in "PQR"})

    def test_compute_metrics_reports_actual_peak(self):
        c, _ = fig4_with_uniform_durations()
        clock = VirtualClock()
        engine = Orchestrator(
            clock,
            NoopPlanner(),
            ScriptedDispatcher(clock, default_duration=10.0),
            constellation=c.clone(),
            config=EngineConfig(),
        )
        report = engine.run()
        m = compute_metrics(report, c)
        assert m.total_work == 50.0 and m.critical_path == 40.0
        assert m.actual_peak_running == 2


class TestPeakOverlap:
    def test_back_to_back_chain_does_not_overlap(self):
        assert _peak_overlap([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) == 1

    def test_zero_length_interval_counts_at_its_instant(self):
        assert _peak_overlap([(5.0, 5.0)]) == 1
        assert _peak_overlap([(0.0, 5.0), (5.0, 5.0), (5.0, 9.0)]) == 2

    def test_nested_intervals(self):
        assert _peak_overlap([(0.0, 10.0), (2.0, 4.0), (3.0, 9.0)]) == 3

    def test_empty(self):
        assert _peak_overlap([]) == 0


# ---------------------------------------------------------------------------
# Markdown log
# ---------------------------------------------------------------------------


class TestMarkdownLog:
    def run_report(self):
        c, _ = fig4_with_uniform_durations()
        clock = VirtualClock()
        engine = Orchestrator(
            clock,
            NoopPlanner(),
            ScriptedDispatcher(clock, default_duration=10.0),
            constellation=c,
            config=EngineConfig(),
        )
        return engine.run()

    def test_mermaid_block_lists_tasks_and_edges(self):
        report = self.run_report()
        block = mermaid_block(report.final_document)
        assert block.startswith("```mermaid\ngraph TD")
        assert block.endswith("```")
        for tid in "ABCDE":
            assert f"{tid}[" in block
        assert "A --> C" in block

    def test_markdown_log_sections_and_rows(self):
        report = self.run_report()
        text = emit_markdown_log(report)
        for heading in (
            "## Planner trace",
            "## Initial constellation",
            "## Final constellation",
            "## Tasks",
            "## Event timeline",
            "## Edit summary",
        ):
            assert heading in text
        assert "**Outcome:** SUCCESS" in text
        assert "| E | dev | COMPLETED | 30.000 | 40.000 | 10.000 |" in text

    def test_markdown_log_is_deterministic(self):
        assert emit_markdown_log(self.run_report()) == emit_markdown_log(self.run_report())
