"""Virtual clock, deterministic network, parallelism metrics, markdown log."""

import heapq
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
from constellation import clock as clock_module
from constellation.clock import TimerLane
from constellation.errors import ValidationFailed
from constellation.report import RunReport
from constellation.simnet.metrics import _peak_overlap, metrics_from_durations
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

    @staticmethod
    def counted(monkeypatch):
        """A clock whose ``step`` calls are listed (with ``now`` at each), as
        a wrapper on ``VirtualClock.step`` sees them."""
        steps = []
        step = VirtualClock.step

        def counting_step(self):
            steps.append(self.now)
            return step(self)

        monkeypatch.setattr(VirtualClock, "step", counting_step)
        return VirtualClock(), steps

    def test_run_deadline_drops_cancelled_heads_before_and_after_it(self, monkeypatch):
        clock, steps = self.counted(monkeypatch)
        fired = []
        clock.call_at(1.0, lambda: fired.append(1.0)).cancel()
        clock.call_at(2.0, lambda: fired.append(2.0))
        clock.call_at(3.0, lambda: fired.append(3.0)).cancel()
        clock.call_at(5.0, lambda: fired.append(5.0)).cancel()
        clock.call_at(6.0, lambda: fired.append(6.0)).cancel()
        clock.call_at(7.0, lambda: fired.append(7.0))
        clock.run(deadline=4.0)
        assert fired == [2.0] and clock.now == 4.0
        assert steps == [0.0]
        clock.run()
        assert fired == [2.0, 7.0] and clock.now == 7.0

    def test_run_deadline_with_only_cancelled_timers_beyond_it_stops_where_the_last_fired(self, monkeypatch):
        clock, steps = self.counted(monkeypatch)
        clock.call_at(1.0, lambda: None)
        clock.call_at(5.0, lambda: None).cancel()
        clock.run(deadline=4.0)
        assert clock.now == 1.0 and not clock._heap
        assert steps == [0.0, 1.0]  # the second finds no live timer

    def test_run_deadline_fires_a_timer_due_exactly_at_it(self, monkeypatch):
        clock, steps = self.counted(monkeypatch)
        fired = []
        clock.call_at(4.0, lambda: fired.append("at"))
        clock.call_at(4.5, lambda: fired.append("after"))
        clock.run(until=lambda: False, deadline=4.0)
        assert fired == ["at"] and clock.now == 4.0
        assert steps == [0.0]

    def test_run_deadline_steps_once_per_fired_timer(self, monkeypatch):
        clock, steps = self.counted(monkeypatch)
        fired = []
        for t in (0.5, 1.0, 1.0, 2.5, 3.0):
            clock.call_at(t, lambda t=t: fired.append(t))
        clock.call_at(1.5, lambda: fired.append(1.5)).cancel()
        clock.call_at(3.5, lambda: fired.append(3.5))
        clock.run(deadline=3.25)
        assert fired == [0.5, 1.0, 1.0, 2.5, 3.0] and clock.now == 3.25
        assert steps == [0.0, 0.5, 1.0, 1.0, 2.5]

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


    def test_scheduling_at_nan_is_rejected(self):
        with pytest.raises(ValueError, match="cannot schedule at nan"):
            VirtualClock().call_at(float("nan"), lambda: None)

    def test_a_run_that_never_drains_stops_at_the_step_bound(self, monkeypatch):
        monkeypatch.setattr(clock_module, "MAX_STEPS", 50)
        clock, fired = VirtualClock(), []

        def again():
            fired.append(clock.now)
            clock.call_later(1.0, again)

        clock.call_later(1.0, again)
        with pytest.raises(RuntimeError, match="^virtual clock exceeded 50 steps$"):
            clock.run()
        assert len(fired) == 50 and clock.now == 50.0


class TestTimerLane:
    @staticmethod
    def lane(delay=10.0):
        clock = VirtualClock()
        fired = []
        return clock, TimerLane(clock, delay, lambda key: fired.append((key, clock.now))), fired

    def test_each_entry_fires_at_the_place_its_own_timer_would_take(self):
        """A timer set between two entries due at one instant fires between them."""
        clock, lane, fired = self.lane()
        lane.add("a")
        clock.call_at(10.0, lambda: fired.append(("timer", clock.now)))
        lane.add("b")
        clock.call_later(1.0, lambda: lane.add("c"))
        clock.run()
        assert fired == [("a", 10.0), ("timer", 10.0), ("b", 10.0), ("c", 11.0)]
        assert lane.live == {} and not clock._heap

    def test_a_discarded_head_calls_nothing_and_the_next_entry_fires_on_time(self):
        clock, lane, fired = self.lane()
        lane.add("a")
        clock.call_at(5.0, lambda: lane.add("b"))
        clock.call_at(8.0, lambda: lane.discard("a"))
        clock.run(deadline=12.0)
        assert fired == [] and clock.now == 12.0
        clock.run()
        assert fired == [("b", 15.0)]

    def test_a_key_added_again_fires_at_its_new_time_only(self):
        clock, lane, fired = self.lane()
        lane.add("a")
        lane.add("b")
        clock.call_at(1.0, lambda: (lane.discard("a"), lane.add("a")))
        clock.run()
        assert fired == [("b", 10.0), ("a", 11.0)]

    def test_a_key_re_added_falls_due_once_after_its_last_add(self):
        """Added at 10 and again at 20, as a peer's silence deadline is by
        its beats, a key of a 15 s lane falls due once, at 20 + 15: its entry
        of 10 comes due at 25 and only arms the one of 20, after which
        nothing is armed."""
        clock = VirtualClock(now=10.0)
        fired = []
        lane = TimerLane(clock, 15.0, lambda key: fired.append((key, clock.now)))
        lane.add("peer")
        clock.run(deadline=20.0)
        lane.add("peer")
        assert lane.live["peer"][0] == 35.0
        clock.run()
        assert fired == [("peer", 35.0)]
        assert not clock.step()

    def test_a_re_add_replaces_the_armed_deadline(self, monkeypatch):
        """A key added again at 4, as an agent that registers again while
        still counted alive is, falls due once, 15 s after the re-add; its
        first entry comes due at 15 in one step that calls nothing."""
        clock, steps = TestVirtualClock.counted(monkeypatch)
        fired = []
        lane = TimerLane(clock, 15.0, lambda key: fired.append((key, clock.now)))
        lane.add("peer")
        clock.call_at(4.0, lambda: lane.add("peer"))
        clock.run()
        assert fired == [("peer", 19.0)]
        assert steps == [0.0, 4.0, 15.0, 19.0]

    def test_a_lane_left_empty_leaves_the_clock_where_it_was(self):
        clock, lane, fired = self.lane()
        lane.add("a")
        lane.add("b")
        clock.call_at(1.0, lambda: (lane.discard("b"), lane.discard("a"), lane.discard("a")))
        clock.run()
        assert fired == [] and clock.now == 1.0

    def test_a_firing_takes_one_step_and_only_a_discarded_head_adds_one(self, monkeypatch):
        """a, b and d are discarded, so c fires after one silent step at a's
        due time. Later entries fire in one step each, whether the lane
        was left holding discarded entries (d) or emptied by a discard (f)."""
        clock, steps = TestVirtualClock.counted(monkeypatch)
        fired = []
        lane = TimerLane(clock, 10.0, lambda key: fired.append((key, clock.now)))
        for key in "abcd":
            lane.add(key)
        for key in "abd":
            lane.discard(key)
        clock.run()
        assert fired == [("c", 10.0)] and steps == [0.0, 10.0, 10.0]
        lane.add("e")
        clock.run()
        lane.add("f")
        lane.discard("f")
        lane.add("g")
        clock.run()
        assert fired == [("c", 10.0), ("e", 20.0), ("g", 30.0)]
        assert steps == [0.0, 10.0, 10.0, 10.0, 20.0, 20.0, 30.0]

    def test_a_lane_refilled_from_its_own_callback_fires_the_new_entry(self):
        clock = VirtualClock()
        fired = []

        def again(key):
            fired.append((key, clock.now))
            if len(fired) < 3:
                lane.add(key)

        lane = TimerLane(clock, 2.0, again)
        lane.add("a")
        clock.run()
        assert fired == [("a", 2.0), ("a", 4.0), ("a", 6.0)]

    def test_the_heap_is_rebuilt_once_cancelled_lane_timers_are_over_half_of_it(self, monkeypatch):
        """A rebuild comes after more cancellations than it keeps entries, so
        40 cancellations rebuild the heap a few times, not at each."""
        rebuilds = []
        heapify = heapq.heapify
        monkeypatch.setattr(heapq, "heapify", lambda heap: (rebuilds.append(len(heap)), heapify(heap)))
        clock, lane, fired = self.lane(delay=100.0)
        sizes = []

        def churn():
            lane.add("a")
            lane.discard("a")
            live = sum(entry[2].callback is not None for entry in clock._heap)
            sizes.append((len(clock._heap), live))

        for t in range(1, 41):
            clock.call_at(float(t), churn)
        clock.run()
        assert fired == [] and clock.now == 40.0
        assert all(size <= 2 * live + 1 for size, live in sizes), sizes
        assert sizes[-1] == (0, 0)
        assert 0 < len(rebuilds) <= 6, rebuilds

    def test_a_rebuilt_heap_still_fires_in_time_order(self):
        """Two cancelled lane timers due at 1 stay queued while the clock is
        at 0.3, where B (5 s) is set after A (6 s) and a third cancellation
        rebuilds the heap: B still fires first."""
        clock, lane, fired = self.lane(delay=1.0)

        def churn(key):
            lane.add(key)
            lane.discard(key)

        def late():
            clock.call_at(6.0, lambda: fired.append(("A", clock.now)))
            clock.call_at(5.0, lambda: fired.append(("B", clock.now)))
            churn("c")

        clock.call_at(0.1, lambda: None)
        clock.call_at(0.2, lambda: None)
        clock.call_at(0.3, late)
        churn("a")
        churn("b")
        clock.run()
        assert fired == [("B", 5.0), ("A", 6.0)]


# ---------------------------------------------------------------------------
# Simulated network# ---------------------------------------------------------------------------
# Simulated network
# ---------------------------------------------------------------------------


def make_net(latency=0.005, outages=()):
    clock = VirtualClock()
    net = SimNetwork(clock)
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

    def test_a_links_frames_arrive_in_send_order(self):
        clock, net, inbox = make_net(latency=0.05)
        for n in range(20):
            clock.call_at(n * 0.001, lambda n=n: net.send("a", "b", bytes([n])))
        clock.run()
        assert [frame for _, _, frame, _ in inbox] == [bytes([n]) for n in range(20)]

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

    @pytest.mark.parametrize("outage", [(5.0, 3.0), (5.0, 5.0), (float("nan"), 3.0)], ids=str)
    def test_outage_that_does_not_end_after_it_starts_rejected(self, outage):
        with pytest.raises(ValueError, match="an outage must end after it starts"):
            LinkSpec(outages=[(0.0, 1.0), outage])

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

    def test_cycle_raises_validation_failed(self):
        """A 2-cycle, made with the raw op (a delta would refuse it), leaves
        the topological order short of the task count: the cycle is named as
        ``validate`` names it."""
        c = build_constellation({"tasks": [{"id": tid, "device": "dev"} for tid in "PQR"]})
        c._add_dependency({"id": "ePQ", "from_task": "P", "to_task": "Q"})
        c._add_dependency({"id": "eQP", "from_task": "Q", "to_task": "P"})
        with pytest.raises(ValidationFailed) as caught:
            metrics_from_durations(c, {tid: 1.0 for tid in "PQR"})
        assert [str(v) for v in caught.value.violations] == [str(v) for v in c.validate()]
        assert str(caught.value) == "CycleIntroduced: cycle through {P, Q}"


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

    def test_markdown_log_of_an_empty_report_says_what_is_missing(self):
        text = emit_markdown_log(RunReport())
        assert "**Outcome:** UNFINISHED" in text and "**Finished at:** — virtual s" in text
        assert "## Planner trace\n\n(no planner rounds)\n" in text
        assert "## Event timeline\n\n(no events)\n" in text
