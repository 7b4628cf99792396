"""The chaos harness: trials, the acceptance scenario, the table, the CLI."""

import json

import pytest

from repro.cli import main
from repro.core.runner import build_simulation, default_step_budget
from repro.faults import (
    CHAOS_HEADERS,
    CrashSpec,
    FaultInjector,
    FaultPlan,
    exp_chaos,
    run_chaos_trial,
)
from repro.graphs.generators import random_weakly_connected
from repro.verification.degradation import (
    OUTCOME_OK,
    OUTCOME_VIOLATED,
    verify_surviving,
)
from repro.verification.monitor import StepwiseMonitor


class TestRunChaosTrial:
    def test_fault_free_baseline_is_ok_without_transport(self):
        trial = run_chaos_trial("baseline", n=16, seed=1, reliable=False)
        assert trial.outcome == OUTCOME_OK
        assert trial.quiesced and trial.safety_ok and trial.properties_ok
        assert trial.faults_injected == 0
        assert trial.retransmissions == 0

    def test_fault_free_baseline_is_ok_with_transport(self):
        trial = run_chaos_trial("baseline", n=16, seed=1, reliable=True)
        assert trial.outcome == OUTCOME_OK
        assert trial.overhead_messages > 0  # acks are never free

    @pytest.mark.parametrize(
        "scenario", ["loss-20", "dup-10", "partition-heal", "delay-burst"]
    )
    def test_transport_fully_recovers_channel_faults(self, scenario):
        # Channel faults (no crashed nodes) are exactly what the transport
        # repairs: the run must be indistinguishable from fault-free.
        trial = run_chaos_trial(scenario, n=20, seed=3, reliable=True)
        assert trial.safety_ok, trial.detail
        assert trial.outcome == OUTCOME_OK, (trial.outcome, trial.detail)

    def test_stress_scenario_keeps_safety(self):
        # Stress crashes nodes that survivors may reference, so liveness
        # can legitimately degrade -- but safety never may.
        trial = run_chaos_trial("stress", n=20, seed=3, reliable=True)
        assert trial.safety_ok, trial.detail
        assert trial.outcome != OUTCOME_VIOLATED

    def test_raw_protocol_degrades_but_never_corrupts(self):
        trial = run_chaos_trial(
            "loss-20", n=20, seed=0, reliable=False, budget_factor=2
        )
        assert trial.outcome != OUTCOME_VIOLATED
        assert trial.safety_ok

    @pytest.mark.parametrize("monitor_every", [0, -3])
    def test_monitor_every_is_validated(self, monitor_every):
        # 0 used to be a ZeroDivisionError from inside the trial's try
        # block; a negative cadence silently never checked anything.
        with pytest.raises(ValueError, match="monitor_every must be >= 1"):
            run_chaos_trial("baseline", n=8, monitor_every=monitor_every)
        with pytest.raises(ValueError, match="monitor_every must be >= 1"):
            exp_chaos(("baseline",), n=8, monitor_every=monitor_every)

    def test_trial_carries_its_plan(self):
        trial = run_chaos_trial("loss-10", n=12, seed=0, reliable=True)
        assert trial.plan.loss == 0.10
        assert "loss=0.1" in trial.plan.describe()


class TestAcceptanceScenario:
    """The PR's acceptance bar: loss <= 20% plus <= 2 crashed non-leader
    nodes; Generic under the reliable transport must reach quiescence with
    all three problem properties on every surviving component and zero
    stepwise safety violations."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generic_survives_loss20_plus_two_crashes(self, seed):
        graph = random_weakly_connected(20, 20, seed=seed)
        # Two extra source nodes: out-edges only, so their ids are in
        # nobody's initial local set ("unknown" nodes, paper section 1.2).
        graph.add_node("s1")
        graph.add_node("s2")
        graph.add_edge("s1", 0)
        graph.add_edge("s2", 1)
        crashed = frozenset({"s1", "s2"})
        plan = FaultPlan(
            loss=0.20, crashes=tuple(CrashSpec(node) for node in crashed)
        )
        injector = FaultInjector(plan, seed=seed)
        sim, nodes = build_simulation(
            graph, "generic", seed=seed, faults=injector, reliable=True
        )
        monitor = StepwiseMonitor(sim, nodes)
        # Raises SafetyViolation on any I1-I4 breach, SimulationError on
        # budget exhaustion -- either fails the test.
        monitor.run(8 * default_step_budget(graph))
        assert sim.is_quiescent
        report = verify_surviving(graph, nodes, sim, "generic", crashed)
        assert report.n_survivors == 20
        assert report.properties_ok, report.detail
        assert report.n_orphans == 0


class TestExpChaosTable:
    def test_table_shape_and_flag_encoding(self):
        headers, rows = exp_chaos(
            scenarios=("baseline", "loss-10"), n=12, seed=0
        )
        assert headers == CHAOS_HEADERS
        assert len(rows) == 2
        for row in rows:
            assert len(row) == len(headers)
            for flag in ("quiesced", "safe", "props"):
                value = row[headers.index(flag)]
                assert isinstance(value, int) and value in (0, 1)

    def test_multiple_variants_multiply_rows(self):
        headers, rows = exp_chaos(
            scenarios=("baseline",), variants=("generic", "bounded"), n=12, seed=0
        )
        assert [row[1] for row in rows] == ["generic", "bounded"]

    def test_registry_and_quick_kwargs(self):
        from repro.analysis.experiments import (
            QUICK_SWEEP_KWARGS,
            SWEEPABLE_EXPERIMENTS,
        )

        assert "chaos" in SWEEPABLE_EXPERIMENTS
        kwargs = dict(QUICK_SWEEP_KWARGS["chaos"])
        headers, rows = SWEEPABLE_EXPERIMENTS["chaos"](seed=1, **kwargs)
        assert headers == CHAOS_HEADERS and rows


class TestChaosCli:
    def test_chaos_smoke(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--scenarios",
                    "baseline,loss-10",
                    "--n",
                    "12",
                    "--seeds",
                    "0:2",
                    "--no-progress",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "safety: clean" in out
        assert "loss-10" in out

    def test_chaos_bench_out(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_chaos.json"
        assert (
            main(
                [
                    "chaos",
                    "--scenarios",
                    "baseline",
                    "--n",
                    "12",
                    "--seeds",
                    "0:2",
                    "--no-progress",
                    "--bench-out",
                    str(out_path),
                ]
            )
            == 0
        )
        payload = json.loads(out_path.read_text())
        assert payload["headers"] == CHAOS_HEADERS
        assert payload["seeds"] == [0, 1]

    def test_chaos_rejects_unknown_scenario(self, capsys):
        assert main(["chaos", "--scenarios", "nope"]) == 2

    def test_chaos_rejects_bad_variants(self, capsys):
        assert main(["chaos", "--variants", "nope"]) == 2

    def test_chaos_raw_mode(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--scenarios",
                    "baseline",
                    "--n",
                    "12",
                    "--seeds",
                    "0:1",
                    "--raw",
                    "--no-progress",
                ]
            )
            == 0
        )
        assert "raw (no recovery)" in capsys.readouterr().out
