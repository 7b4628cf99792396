"""Tests for the steady-state service driver (``repro.service.driver``)."""

import pytest

from repro.core.adhoc import AdhocNetwork
from repro.graphs.generators import random_weakly_connected
from repro.service.driver import ServiceDriver
from repro.service.slo import slo_table, summarize_service
from repro.service.workload import ScheduledEvent, Workload, poisson_workload


def _graph(seed=0):
    return random_weakly_connected(32, 48, seed=seed)


def _manual_workload(events, duration, rate=1.0, seed=0):
    return Workload("manual", rate, duration, seed, list(events))


def _run(workload, *, graph_seed=0, **kwargs):
    graph = _graph(graph_seed)
    net = AdhocNetwork(graph, seed=0)
    return ServiceDriver(net, workload, **kwargs).run()


class TestBasicRun:
    def test_poisson_run_completes_every_probe(self):
        graph = _graph()
        workload = poisson_workload(graph, rate=10.0, duration=2000, seed=5)
        report = _run(workload)
        assert report.operations == len(workload.events)
        assert report.injected == workload.counts_by_kind()
        assert not report.budget_exhausted
        assert report.incomplete_probes == 0
        assert report.dropped_probes == 0
        for probe in report.completed_probes:
            assert probe.latency >= 0
        assert report.clock >= workload.events[-1].at

    def test_metrics_timeline_is_sampled(self):
        workload = poisson_workload(_graph(), rate=10.0, duration=2000, seed=5)
        report = _run(workload, cadence=32)
        assert report.metrics is not None
        samples = report.metrics.samples
        assert samples, "expected at least the final sample"
        final = samples[-1].values
        assert final["injected-probes"] == report.injected.get("probe", 0)
        assert final["probes-completed"] == len(report.completed_probes)

    def test_curve_checkpoints_are_cumulative(self):
        workload = poisson_workload(_graph(), rate=15.0, duration=3000, seed=1)
        report = _run(workload)
        assert report.curve, "curve must have checkpoints"
        ops = [point[0] for point in report.curve]
        msgs = [point[1] for point in report.curve]
        assert ops == sorted(ops) and len(set(ops)) == len(ops)
        assert msgs == sorted(msgs)
        assert ops[-1] == report.operations
        assert msgs[-1] == report.service_messages


class TestDeterminism:
    def test_same_seed_identical_report(self):
        def once():
            workload = poisson_workload(_graph(), rate=12.0, duration=2500, seed=7)
            report = _run(workload)
            return (
                [(p.at, p.target, p.completed_at, p.immediate) for p in report.probes],
                report.injected,
                report.service_messages,
                report.curve,
                report.clock,
                report.steps_executed,
            )

        assert once() == once()


class TestClockAndBudget:
    def test_idle_clock_jumps_between_sparse_arrivals(self):
        graph = _graph()
        events = [
            ScheduledEvent(10, ("probe", graph.nodes[0])),
            ScheduledEvent(100_000, ("probe", graph.nodes[1])),
        ]
        report = _run(_manual_workload(events, duration=100_001))
        # The system quiesces long before step 100000; idle virtual time
        # is skipped, not executed.
        assert report.clock >= 100_000
        assert report.steps_executed < 1000
        assert report.incomplete_probes == 0

    def test_budget_exhaustion_reports_instead_of_raising(self):
        workload = poisson_workload(_graph(), rate=50.0, duration=2000, seed=3)
        report = _run(workload, step_budget=5)
        assert report.budget_exhausted
        assert report.steps_executed == 5

    def test_rejects_nonpositive_budget(self):
        workload = poisson_workload(_graph(), rate=1.0, duration=100, seed=0)
        with pytest.raises(ValueError, match="step_budget"):
            ServiceDriver(AdhocNetwork(_graph(), seed=0), workload, step_budget=0)


class TestDeferral:
    def test_probe_of_sleeping_joiner_defers_then_completes(self):
        graph = _graph()
        joiner = max(graph.nodes) + 1
        events = [
            ScheduledEvent(0, ("join", joiner, (graph.nodes[0],))),
            # Due at the same instant: the joiner's wake-up has not fired
            # yet, so the probe cannot be injected and must be deferred.
            ScheduledEvent(0, ("probe", joiner)),
        ]
        report = _run(_manual_workload(events, duration=1))
        assert report.deferrals >= 1
        assert report.dropped_probes == 0
        assert report.incomplete_probes == 0
        (probe,) = report.completed_probes
        assert probe.target == joiner
        assert probe.latency > 0

    def test_permanently_blocked_probe_is_dropped(self):
        graph = _graph()
        events = [ScheduledEvent(0, ("probe", "never-joins"))]
        report = _run(_manual_workload(events, duration=1))
        assert report.dropped_probes == 1
        assert report.probes[0].dropped
        assert report.incomplete_probes == 0  # counted once, as dropped

    def test_dropped_probes_are_not_also_incomplete(self):
        """An overloaded target that never wakes: every probe aimed at it
        runs out of retries.  Each must be accounted exactly once, so
        completed + incomplete + dropped is the number injected."""
        graph = _graph()
        busy = graph.nodes[1]
        events = [ScheduledEvent(at, ("probe", "never-joins")) for at in (0, 3, 9)]
        events += [ScheduledEvent(at, ("probe", busy)) for at in (1, 4)]
        report = _run(_manual_workload(sorted(events, key=lambda e: e.at), duration=10))
        summary = summarize_service(report)
        assert summary.probes_dropped == report.dropped_probes == 3
        assert summary.probes_incomplete == 0
        assert (
            summary.probes_completed + summary.probes_incomplete + summary.probes_dropped
            == summary.probes_total
            == report.injected["probe"]
        )
        assert [p.dropped for p in report.probes] == [
            p.target == "never-joins" for p in report.probes
        ]
        rows = dict(slo_table(report, summary)[1])
        assert rows["  dropped"] == 3 and rows["  incomplete"] == 0

    def test_slo_table_has_no_dropped_row_without_drops(self):
        workload = poisson_workload(_graph(), rate=10.0, duration=2000, seed=5)
        report = _run(workload)
        assert report.dropped_probes == 0
        assert "  dropped" not in dict(slo_table(report)[1])
