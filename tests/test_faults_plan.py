"""Unit tests for the declarative fault layer (repro.faults.plan/scenarios)."""

import pytest

from repro.faults import (
    FAULT_SCENARIOS,
    CrashSpec,
    DelayBurst,
    FaultInjector,
    FaultPlan,
    PartitionSpec,
    build_scenario,
    pick_crash_victims,
)
from repro.graphs.generators import random_weakly_connected, star
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.obs.events import Recorder
from repro.sim.network import DEFER, DELIVER, DROP, SimNode, Simulator
from repro.sim.events import DeliverToken, TimerToken


class TestPlanValidation:
    def test_default_plan_is_fault_free(self):
        plan = FaultPlan()
        assert plan.is_fault_free
        assert plan.describe() == "fault-free"

    def test_loss_range(self):
        FaultPlan(loss=0.0)
        FaultPlan(loss=0.999)
        with pytest.raises(ValueError):
            FaultPlan(loss=1.0)
        with pytest.raises(ValueError):
            FaultPlan(loss=-0.1)

    def test_duplicate_range(self):
        FaultPlan(duplicate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(duplicate=1.5)

    def test_duplicate_crash_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=(CrashSpec("a"), CrashSpec("a", at_step=5)))

    def test_partition_window_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec(frozenset(), start=0, heal=10)
        with pytest.raises(ValueError):
            PartitionSpec(frozenset({"a"}), start=10, heal=10)

    def test_delay_burst_validation(self):
        with pytest.raises(ValueError):
            DelayBurst(start=0, duration=0)
        with pytest.raises(ValueError):
            DelayBurst(start=0, duration=5, fraction=0.0)

    def test_describe_composes(self):
        plan = FaultPlan(loss=0.1, crashes=(CrashSpec("a"),))
        assert "loss=0.1" in plan.describe()
        assert "crashes=1" in plan.describe()

    def test_plans_are_picklable(self):
        import pickle

        plan = FaultPlan(
            loss=0.1,
            duplicate=0.05,
            crashes=(CrashSpec("a", at_step=3),),
            partitions=(PartitionSpec(frozenset({"a", "b"}), start=1, heal=9),),
            delays=(DelayBurst(start=0, duration=4, fraction=0.5),),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestPartitionSemantics:
    def test_severs_only_cut_crossing_during_window(self):
        spec = PartitionSpec(frozenset({"a", "b"}), start=10, heal=20)
        assert spec.severs("a", "x", 10)
        assert spec.severs("x", "a", 19)
        assert not spec.severs("a", "b", 15)  # inside the island
        assert not spec.severs("x", "y", 15)  # inside the mainland
        assert not spec.severs("a", "x", 9)  # before the window
        assert not spec.severs("a", "x", 20)  # healed


class TestInjector:
    def _sim(self):
        return Simulator()

    def test_fault_free_plan_is_identity(self):
        injector = FaultInjector(FaultPlan(), seed=1)
        sim = self._sim()
        assert injector.copies(sim, "a", "b", object()) == 1
        assert injector.deliver_action(sim, DeliverToken("a", "b")) == DELIVER
        assert injector.wake_allowed(sim, "a")
        assert injector.total_injected == 0

    def test_seeded_decisions_replay(self):
        plan = FaultPlan(loss=0.3, duplicate=0.2)
        first = [
            FaultInjector(plan, seed=7).copies(self._sim(), "a", "b", object())
            for _ in range(1)
        ]
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, seed=7)
            sim = self._sim()
            runs.append(
                [injector.copies(sim, "a", "b", object()) for _ in range(200)]
            )
        assert runs[0] == runs[1]
        assert first[0] == runs[0][0]

    def test_loss_and_duplicate_rates_roughly_hold(self):
        injector = FaultInjector(FaultPlan(loss=0.25), seed=3)
        sim = self._sim()
        outcomes = [injector.copies(sim, "a", "b", object()) for _ in range(2000)]
        lost = outcomes.count(0)
        assert 0.18 < lost / 2000 < 0.32
        assert injector.counts["loss"] == lost

    def test_crashed_source_sends_nothing(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("a", at_step=0),)))
        sim = self._sim()
        assert injector.copies(sim, "a", "b", object()) == 0
        assert injector.counts["crash-drop"] == 1

    def test_crashed_destination_drops_delivery(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("b", at_step=0),)))
        sim = self._sim()
        assert injector.deliver_action(sim, DeliverToken("a", "b")) == DROP
        assert not injector.wake_allowed(sim, "b")

    def test_crash_at_future_step_spares_early_traffic(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("a", at_step=100),)))
        sim = self._sim()
        assert injector.copies(sim, "a", "b", object()) == 1
        assert not injector.crashed("a", 99)
        assert injector.crashed("a", 100)
        assert injector.crashed_nodes(100) == frozenset({"a"})

    def test_delay_burst_defers_within_window_only(self):
        plan = FaultPlan(delays=(DelayBurst(start=0, duration=5, fraction=1.0),))
        injector = FaultInjector(plan)
        sim = self._sim()
        assert injector.deliver_action(sim, DeliverToken("a", "b")) == DEFER
        sim.steps = 5
        assert injector.deliver_action(sim, DeliverToken("a", "b")) == DELIVER

    def test_crashed_node_timers_are_suppressed(self):
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("a", at_step=0),)))
        sim = self._sim()
        assert not injector.timer_allowed(sim, TimerToken("a", due=0))
        assert injector.timer_allowed(sim, TimerToken("b", due=0))
        assert injector.counts["timer-suppressed"] == 1

        # The simulator's Recorder is the per-event record: it names the node.
        class _Node(SimNode):
            def on_timer(self, tag):
                pass

        recorder = Recorder()
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("a", at_step=0),)))
        sim = Simulator(obs=recorder, faults=injector)
        for name in "ab":
            sim.add_node(_Node(name))
            sim.schedule_timer(name, 1)
        sim.run()
        suppressed = [
            e for e in recorder
            if e.kind == "fault-action" and e.value == "timer-suppressed"
        ]
        assert [(e.node, e.peer) for e in suppressed] == [("a", None)]
        assert injector.counts["timer-suppressed"] == 1

    def test_crash_drop_attributes_real_msg_type(self):
        # A delivery-time drop is recorded by the simulator, which holds
        # the popped message: the event says what kind of message died.
        class _Node(SimNode):
            def on_message(self, sender, message):
                pass

        class _Probe:
            msg_type = "probe"
            bit_size = staticmethod(lambda id_bits: 1)

        recorder = Recorder()
        injector = FaultInjector(FaultPlan(crashes=(CrashSpec("b", at_step=0),)))
        sim = Simulator(obs=recorder, faults=injector)
        sim.add_node(_Node("a"))
        sim.add_node(_Node("b"))
        sim.transmit("a", "b", _Probe())
        sim.run()
        drops = [
            e for e in recorder if e.kind == "drop" and e.value == "crashed-receiver"
        ]
        assert [(e.node, e.peer, e.msg_type) for e in drops] == [("b", "a", "probe")]
        assert injector.counts["crash-drop"] == 1


class TestScenarios:
    def test_every_scenario_builds(self):
        graph = random_weakly_connected(24, 24, seed=5)
        for name in FAULT_SCENARIOS:
            plan = build_scenario(name, graph, seed=5)
            assert isinstance(plan, FaultPlan)

    def test_unknown_scenario_lists_known_names(self):
        graph = star(4)
        with pytest.raises(ValueError, match="baseline"):
            build_scenario("nope", graph, seed=0)

    def test_scenarios_are_seed_deterministic(self):
        graph = random_weakly_connected(24, 24, seed=5)
        assert build_scenario("stress", graph, 3) == build_scenario("stress", graph, 3)

    def test_pick_crash_victims_prefers_unknown_nodes(self):
        # b and c have in-degree 0; everything else is pointed at.
        graph = KnowledgeGraph(
            ["a", "b", "c", "d", "e"],
            [("b", "a"), ("c", "a"), ("d", "e"), ("e", "d"), ("a", "d")],
        )
        victims = set(pick_crash_victims(graph, 2, seed=0))
        assert victims == {"b", "c"}

    def test_pick_crash_victims_never_kills_everyone(self):
        graph = star(3)
        assert len(pick_crash_victims(graph, 10, seed=0)) == graph.n - 1
