"""Unit and integration tests for the observability layer (repro.obs)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import build_family
from repro.analysis.protocol_stats import phase_evolution, profile_execution
from repro.core import arrayloop
from repro.core.runner import build_simulation
from repro.faults.harness import run_chaos_trial
from repro.faults.plan import FaultPlan
from repro.obs import (
    EVENT_KINDS,
    MetricsRegistry,
    Profiler,
    Recorder,
    RunEvent,
    Timeline,
    attach_metrics,
    diff_timelines,
    read_timeline,
    timeline_from_run,
    write_timeline,
)
from repro.obs.profile import peak_rss_kb


def _recorded_run(n=24, seed=0, cadence=32, variant="generic"):
    graph = build_family("sparse-random", n, seed)
    recorder = Recorder()
    sim, nodes = build_simulation(graph, variant, seed=seed, obs=recorder)
    metrics = attach_metrics(sim, recorder, cadence=cadence)
    sim.run()
    metrics.finish(sim.steps)
    return sim, nodes, recorder, metrics


class TestRecorder:
    def test_counts_and_events(self):
        recorder = Recorder()
        recorder.emit(RunEvent(1, "send", node="a", peer="b", msg_type="m"))
        recorder.emit(RunEvent(2, "deliver", node="b", peer="a", msg_type="m"))
        recorder.emit(RunEvent(3, "send", node="b", peer="a", msg_type="m"))
        assert recorder.counts == {"send": 2, "deliver": 1}
        assert recorder.total_events == 3
        assert len(recorder.of_kind("send")) == 2
        assert [e.step for e in recorder] == [1, 2, 3]

    def test_keep_events_off_still_counts(self):
        recorder = Recorder(keep_events=False)
        recorder.emit(RunEvent(1, "wake", node=0))
        assert recorder.counts == {"wake": 1}
        assert len(recorder) == 0

    def test_subscribers_see_every_event(self):
        recorder = Recorder()
        seen = []
        recorder.subscribe(seen.append)
        event = RunEvent(5, "timer", node=3)
        recorder.emit(event)
        assert seen == [event]


class TestSimulatorEmission:
    def test_event_mix_matches_accounting(self):
        sim, nodes, recorder, _metrics = _recorded_run()
        counts = recorder.counts
        # Every charged message was announced as a send event.
        assert counts["send"] == sim.stats.total_messages
        # Fault-free FIFO: every send is eventually delivered.
        assert counts["deliver"] == counts["send"]
        assert counts["wake"] == len(nodes)
        assert set(counts) <= set(EVENT_KINDS)

    def test_send_types_match_stats(self):
        sim, _nodes, recorder, _metrics = _recorded_run(seed=3)
        by_type = {}
        for event in recorder.of_kind("send"):
            by_type[event.msg_type] = by_type.get(event.msg_type, 0) + 1
        assert by_type == sim.stats.messages_by_type

    def test_phase_events_reach_final_histogram(self):
        sim, nodes, recorder, _metrics = _recorded_run(seed=1)
        profile = profile_execution(nodes, sim.stats)
        final_phases = {}
        for event in recorder.of_kind("phase-change"):
            final_phases[event.node] = int(event.value)
        # Every node that advanced past its initial phase emitted events,
        # and the last one lands on the node's final phase.
        for node_id, phase in final_phases.items():
            assert nodes[node_id].phase == phase
        assert max(final_phases.values()) == profile.max_phase

    def test_recorder_does_not_perturb_execution(self):
        graph = build_family("sparse-random", 20, 7)
        sim_plain, _ = build_simulation(graph, "generic", seed=7, keep_trace=True)
        sim_plain.run()
        sim_obs, _ = build_simulation(
            graph, "generic", seed=7, keep_trace=True, obs=Recorder()
        )
        sim_obs.run()
        assert sim_plain.trace.fingerprint() == sim_obs.trace.fingerprint()
        assert sim_plain.stats.messages_by_type == sim_obs.stats.messages_by_type


class TestMetrics:
    def test_registry_rejects_duplicate_names(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="x"):
            registry.gauge("x", lambda: 0)

    def test_samples_on_cadence_and_final(self):
        sim, nodes, _recorder, metrics = _recorded_run(cadence=16)
        assert metrics.samples, "expected at least one sample"
        steps = [sample.step for sample in metrics.samples]
        assert steps == sorted(steps)
        last = metrics.last()
        assert last.step == sim.steps
        assert last.values["in-flight"] == 0
        assert last.values["messages-total"] == sim.stats.total_messages
        assert sum(last.values["census"].values()) == len(nodes)
        assert last.values["live-nodes"] == len(nodes)

    def test_series_extracts_one_metric(self):
        _sim, _nodes, _recorder, metrics = _recorded_run(cadence=16)
        series = metrics.series("messages-total")
        assert len(series) == len(metrics.samples)
        values = [value for _step, value in series]
        assert values == sorted(values)  # counters never decrease


class TestProfiler:
    def test_buckets_cover_dispatch_and_handlers(self):
        graph = build_family("sparse-random", 16, 0)
        sim, _nodes = build_simulation(graph, "generic", seed=0)
        profiler = Profiler()
        profiler.instrument(sim)
        sim.run()
        headers, rows = profiler.report()
        names = {row[0] for row in rows}
        assert {"step", "dispatch.deliver", "DiscoveryNode.on_message"} <= names
        step_bucket = profiler.buckets["step"]
        assert step_bucket.calls == sim.steps + 1  # final False-returning step
        assert step_bucket.total_ns > 0
        assert headers[0] == "bucket"

    def test_instrumentation_is_per_instance(self):
        graph = build_family("sparse-random", 12, 0)
        sim_a, _ = build_simulation(graph, "generic", seed=0)
        Profiler().instrument(sim_a)
        sim_b, _ = build_simulation(graph, "generic", seed=0)
        assert "step" in vars(sim_a)
        assert "step" not in vars(sim_b)  # class method untouched
        sim_b.run()

    def test_summary_renders(self):
        graph = build_family("sparse-random", 12, 0)
        sim, _ = build_simulation(graph, "generic", seed=0)
        profiler = Profiler()
        profiler.instrument(sim)
        sim.run()
        assert "step" in profiler.summary()


class TestPeakRss:
    """``ru_maxrss`` carries a parent's RSS into a child across fork + exec;
    ``peak_rss_kb``, and so the benches' fresh-process points, must not."""

    BENCH_CORE = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_core.py"

    def _child_of_a_large_parent(self, *argv):
        ballast = b"\x01" * (200 << 20)  # written, so resident
        proc = subprocess.run(
            [sys.executable, *argv],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
            check=True,
        )
        del ballast
        return json.loads(proc.stdout)

    def test_a_child_reports_its_own_peak(self):
        probe = "from repro.obs.profile import peak_rss_kb; print(peak_rss_kb())"
        peak_kb = self._child_of_a_large_parent("-c", probe)
        assert 0 < peak_kb < 64 << 10  # < 64 MiB
        assert peak_kb < peak_rss_kb()

    def test_a_bench_point_reports_its_own_peak(self):
        if arrayloop.load() is None:
            pytest.skip("no C loop in this process: the bench point needs it")
        point = self._child_of_a_large_parent(str(self.BENCH_CORE), "generic", "1024")
        assert point["n"] == 1024
        assert 0 < point["peak_per_node_kb"] * 1024 < 64 << 10  # KiB: < 64 MiB


class TestTimelineRoundTrip:
    def test_chaos_run_with_faults_round_trips(self, tmp_path):
        recorder = Recorder()
        trial = run_chaos_trial(
            FaultPlan(loss=0.1),
            "generic",
            "sparse-random",
            n=20,
            seed=0,
            recorder=recorder,
        )
        assert trial.outcome in ("ok", "degraded", "stalled", "detected")
        timeline = timeline_from_run(
            recorder, meta={"scenario": "drop", "seed": 0}
        )
        # The lossy run must exercise the fault-path events.
        kinds = timeline.counts_by_kind()
        assert kinds.get("drop", 0) + kinds.get("retransmit", 0) > 0
        path = tmp_path / "chaos.jsonl"
        write_timeline(path, timeline)
        loaded = read_timeline(path)
        assert loaded.events == timeline.events
        assert loaded.meta == timeline.meta
        assert loaded.samples == timeline.samples

    def test_clean_run_round_trips_with_samples(self, tmp_path):
        _sim, _nodes, recorder, metrics = _recorded_run(n=16, cadence=16)
        timeline = timeline_from_run(recorder, metrics, meta={"n": 16})
        path = tmp_path / "clean.jsonl"
        write_timeline(path, timeline)
        loaded = read_timeline(path)
        assert loaded.events == timeline.events
        assert [(s.step, s.values) for s in loaded.samples] == [
            (s.step, s.values) for s in timeline.samples
        ]

    def test_reader_rejects_future_schema(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"line": "header", "schema": 999, "meta": {}}\n')
        with pytest.raises(ValueError, match="schema"):
            read_timeline(path)

    def test_reader_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_timeline(path)

    def test_reader_rejects_unknown_shape(self, tmp_path):
        path = tmp_path / "shape.jsonl"
        path.write_text('{"line": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown line shape"):
            read_timeline(path)


class TestDiff:
    def test_identical(self):
        events = [RunEvent(1, "wake", node=0), RunEvent(2, "send", node=0, peer=1)]
        identical, report = diff_timelines(
            Timeline(events=list(events)), Timeline(events=list(events))
        )
        assert identical
        assert "identical" in report

    def test_divergence_reported(self):
        a = Timeline(events=[RunEvent(1, "send", node=0, peer=1, msg_type="m")])
        b = Timeline(
            events=[
                RunEvent(1, "send", node=0, peer=2, msg_type="m"),
                RunEvent(2, "send", node=2, peer=0, msg_type="m"),
            ]
        )
        identical, report = diff_timelines(a, b)
        assert not identical
        assert "diverge at event 0" in report
        assert "sends[m]: 1 -> 2" in report


class TestPhaseEvolution:
    def test_trajectory_climbs_to_final_profile(self):
        sim, nodes, recorder, metrics = _recorded_run(seed=2)
        timeline = timeline_from_run(recorder, metrics)
        snapshots = phase_evolution(timeline)
        assert snapshots, "a merging run must change phases"
        steps = [step for step, _hist in snapshots]
        assert steps == sorted(steps)
        profile = profile_execution(nodes, sim.stats)
        _final_step, final_hist = snapshots[-1]
        assert max(final_hist) == profile.max_phase

    def test_empty_timeline_gives_empty_trajectory(self):
        assert phase_evolution(Timeline()) == []
