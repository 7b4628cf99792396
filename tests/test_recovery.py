"""Crash-recovery fault model: checkpoints, epoch fencing, and rejoin.

Covers the whole recovery stack bottom-up: RecoverySpec/plan validation,
the injector's down-window semantics, lifecycle tokens, the checkpoint
store's cadence policy, the transport's epoch fence/teach/re-queue
machinery, and the end-to-end chaos outcomes -- including the pinned
acceptance scenario (20% loss plus two mid-run amnesia restarts that must
reconverge to a single verified leader, deterministically).
"""

import pytest

from repro.analysis.experiments import build_family
from repro.core.runner import build_simulation
from repro.faults import (
    CrashSpec,
    FaultInjector,
    FaultPlan,
    RECOVERY_SCENARIOS,
    RecoverySpec,
    ReliableNode,
    attach_recovery,
    run_chaos_trial,
)
from repro.faults.recovery import CheckpointStore, RecoveryManager
from repro.faults.scenarios import FAULT_SCENARIOS, pick_crash_victims
from repro.obs import Recorder
from repro.sim.events import LifecycleToken
from repro.sim.network import SimNode, SimulationError, Simulator
from repro.sim.scheduler import GlobalFifoScheduler
from repro.verification.degradation import OUTCOME_RECOVERED, OUTCOMES

from tests.test_reliable_transport import Burst, Ping, Sink


class TestRecoverySpecValidation:
    def test_windows_must_be_ordered(self):
        RecoverySpec("a", crash_step=1, recover_step=2)
        with pytest.raises(ValueError):
            RecoverySpec("a", crash_step=5, recover_step=5)
        with pytest.raises(ValueError):
            RecoverySpec("a", crash_step=9, recover_step=3)
        with pytest.raises(ValueError):
            RecoverySpec("a", crash_step=0, recover_step=5)

    def test_plan_rejects_duplicate_recoveries(self):
        with pytest.raises(ValueError):
            FaultPlan(
                recoveries=(
                    RecoverySpec("a", crash_step=1, recover_step=5),
                    RecoverySpec("a", crash_step=2, recover_step=9),
                )
            )

    def test_plan_rejects_crash_recovery_overlap(self):
        # A node either stays down (CrashSpec) or comes back (RecoverySpec).
        with pytest.raises(ValueError):
            FaultPlan(
                crashes=(CrashSpec("a"),),
                recoveries=(RecoverySpec("a", crash_step=1, recover_step=5),),
            )

    def test_recoveries_count_as_faults(self):
        plan = FaultPlan(recoveries=(RecoverySpec("a", crash_step=1, recover_step=5),))
        assert not plan.is_fault_free
        assert "recoveries=1" in plan.describe()

    def test_plans_with_recoveries_are_picklable(self):
        import pickle

        plan = FaultPlan(
            loss=0.2,
            recoveries=(RecoverySpec("a", crash_step=1, recover_step=5, amnesia=True),),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestInjectorDownWindow:
    def test_crashed_only_inside_window(self):
        plan = FaultPlan(recoveries=(RecoverySpec("a", crash_step=5, recover_step=10),))
        injector = FaultInjector(plan)
        assert not injector.crashed("a", 4)
        assert injector.crashed("a", 5)
        assert injector.crashed("a", 9)
        assert not injector.crashed("a", 10)  # recovered: half-open window
        assert not injector.crashed("a", 1000)

    def test_crashed_nodes_unions_stops_and_windows(self):
        plan = FaultPlan(
            crashes=(CrashSpec("dead", at_step=0),),
            recoveries=(RecoverySpec("back", crash_step=5, recover_step=10),),
        )
        injector = FaultInjector(plan)
        assert injector.crashed_nodes(7) == frozenset({"dead", "back"})
        # After recovery only the crash-stop victim is excluded from
        # verification -- recovered nodes must be held to the properties.
        assert injector.crashed_nodes(50) == frozenset({"dead"})


class _Lifecycle(SimNode):
    """Records the crash/recover callbacks the simulator dispatches."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.calls = []

    def on_wake(self):
        pass

    def on_message(self, sender, message):
        pass

    def on_crash(self):
        self.calls.append(("crash", self.sim.steps))

    def on_recover(self):
        self.calls.append(("recover", self.sim.steps))


class TestLifecycleTokens:
    def test_schedule_validation(self):
        sim = Simulator()
        sim.add_node(_Lifecycle("a"))
        with pytest.raises(KeyError):
            sim.schedule_lifecycle("ghost", 5, "crash")
        with pytest.raises(ValueError):
            sim.schedule_lifecycle("a", 5, "explode")
        with pytest.raises(ValueError):
            sim.schedule_lifecycle("a", 0, "crash")

    def test_fires_at_due_step_and_holds_quiescence(self):
        sim = Simulator(GlobalFifoScheduler())
        node = _Lifecycle("a")
        sim.add_node(node)
        token = sim.schedule_lifecycle("a", 5, "crash")
        assert isinstance(token, LifecycleToken)
        assert token.channel is None
        # The pending token keeps the simulator from quiescing early: each
        # premature pop re-enqueues and charges a step until the due step.
        assert not sim.is_quiescent
        sim.run()
        assert node.calls == [("crash", 5)]
        assert sim.is_quiescent

    def test_recover_rewakes_a_sleeping_node(self):
        sim = Simulator(GlobalFifoScheduler())
        node = _Lifecycle("a")
        sim.add_node(node)
        assert not node.awake
        sim.schedule_lifecycle("a", 3, "recover")
        sim.run()
        # on_recover left the node asleep, so the simulator scheduled a
        # fresh spontaneous wake for it.
        assert node.awake
        assert node.calls[0] == ("recover", 3)


class _FakeInner:
    """Just the Figure 2 durable surface the checkpoint store snapshots."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.status = "asleep"
        self.next = node_id
        self.phase = 0
        self.local = {node_id + "x"}
        self.more = {node_id}
        self.done = set()
        self.unaware = set()
        self.unexplored = set()


class TestCheckpointStore:
    def test_cadence_every_k_events(self):
        store = CheckpointStore(every=3)
        inner = _FakeInner("a")
        store.register(inner)
        assert store.taken["a"] == 1  # the baseline
        for step in range(1, 7):
            inner.phase = step  # durable drift, same status
            store.observe(inner, step)
        # Events 3 and 6 hit the cadence; nothing else snapshots.
        assert store.taken["a"] == 3
        assert store.latest("a").phase == 6
        assert store.baseline("a").phase == 0

    def test_status_change_forces_a_snapshot(self):
        store = CheckpointStore(every=1000)
        inner = _FakeInner("a")
        store.register(inner)
        inner.status = "conqueror"
        store.observe(inner, 1)
        # Ownership transfers ride status transitions; the forced snapshot
        # is what keeps a restart from resurrecting a handed-over cluster.
        assert store.taken["a"] == 2
        assert store.latest("a").status == "conqueror"

    def test_snapshots_do_not_alias_live_state(self):
        store = CheckpointStore()
        inner = _FakeInner("a")
        store.register(inner)
        inner.local.add("zz")
        assert "zz" not in store.baseline("a").local

    def test_cadence_validation(self):
        with pytest.raises(ValueError):
            CheckpointStore(every=0)


def _two_node_sim(count=3, seed=0):
    sim = Simulator(GlobalFifoScheduler())
    sender = ReliableNode(Burst("a", "b", count), base_timeout=4, max_retries=4)
    receiver = ReliableNode(Sink("b"), base_timeout=4, max_retries=4)
    sim.add_node(sender)
    sim.add_node(receiver)
    sim.schedule_wake("a")
    sim.schedule_wake("b")
    return sim, sender, receiver


class TestEpochFencing:
    def test_begin_epoch_must_increase(self):
        _sim, sender, _receiver = _two_node_sim()
        sender.begin_epoch(3)
        assert sender.epoch == 3
        with pytest.raises(SimulationError):
            sender.begin_epoch(3)
        with pytest.raises(SimulationError):
            sender.begin_epoch(1)

    def test_begin_epoch_abandons_own_outstanding(self):
        sim, sender, receiver = _two_node_sim(count=0)
        sim.run()
        sender.reliable_send("b", Ping(1))  # in flight, unacked
        assert sender.outstanding_total == 1
        sender.begin_epoch(1)
        # The new incarnation does not resurrect its own conversations --
        # rejoin re-issues what still matters.
        assert sender.outstanding_total == 0
        assert [msg.tag for _dst, msg in sender.undeliverable] == [1]

    def test_fence_teaches_and_sender_requeues(self):
        sim, sender, receiver = _two_node_sim(count=3)
        sim.run()
        assert [tag for _s, tag in receiver.inner.received] == [0, 1, 2]
        # The receiver restarts; the sender still believes epoch 0.
        receiver.begin_epoch(1)
        sender.reliable_send("b", Ping(99))
        sim.run()
        # The stale-belief frame was fenced, the fence taught the sender the
        # new epoch, and the transport re-queued the payload to the new
        # incarnation: exactly-once delivery survives the restart.
        assert [tag for _s, tag in receiver.inner.received] == [0, 1, 2, 99]
        assert receiver.epoch_fenced >= 1
        assert sender.epoch_resets == 1
        assert sender._peer_epochs["b"] == 1
        assert sender.outstanding_total == 0

    def test_transport_totals_reports_fences(self):
        from repro.faults import transport_totals

        sim, sender, receiver = _two_node_sim(count=1)
        sim.run()
        receiver.begin_epoch(1)
        sender.reliable_send("b", Ping(7))
        sim.run()
        totals = transport_totals({"a": sender, "b": receiver})
        assert totals["epoch_fenced"] == sender.epoch_fenced + receiver.epoch_fenced
        assert totals["epoch_fenced"] >= 1


class TestRecoveryManagerWiring:
    def test_spec_for_unknown_node_is_rejected(self):
        graph = build_family("sparse-random", 8, 0)
        plan = FaultPlan(recoveries=(RecoverySpec("ghost", 8, 32),))
        injector = FaultInjector(plan, seed=0)
        sim, _nodes = build_simulation(graph, "generic", seed=0, faults=injector, reliable=True)
        with pytest.raises(KeyError):
            attach_recovery(sim, injector)

    def test_recovery_requires_reliable_transport(self):
        plan = FaultPlan(recoveries=(RecoverySpec(0, 8, 32),))
        with pytest.raises(ValueError):
            run_chaos_trial(plan, "generic", n=8, seed=0, reliable=False)

    def test_fault_free_plan_attaches_nothing(self):
        graph = build_family("sparse-random", 8, 0)
        injector = FaultInjector(FaultPlan(), seed=0)
        sim, _nodes = build_simulation(graph, "generic", seed=0, faults=injector, reliable=True)
        assert attach_recovery(sim, injector) is None

    def test_empty_manager_is_rejected(self):
        with pytest.raises(ValueError):
            RecoveryManager(())


class TestEndToEndRecovery:
    def test_amnesia_restart_reconverges(self):
        # Two low-degree victims crash at step n and restart with amnesia at
        # 4n; the run must quiesce with every survivor *and both recovered
        # nodes* agreeing on one verified leader.
        trial = run_chaos_trial("recover-2", "generic", n=16, seed=0)
        assert trial.outcome == OUTCOME_RECOVERED
        assert trial.safety_ok
        assert trial.properties_ok
        assert trial.n_recovered == 2
        assert trial.survival.n_survivors == 16  # recovered nodes count
        assert trial.reconverge_steps > 0
        assert trial.epoch_fences >= 1

    def test_recovered_nodes_are_reintegrated(self):
        graph = build_family("sparse-random", 16, 0)
        from repro.faults.scenarios import build_scenario

        plan = build_scenario("recover-2", graph, 0)
        injector = FaultInjector(plan, seed=0)
        sim, nodes = build_simulation(
            graph, "generic", seed=0, faults=injector, reliable=True
        )
        manager = attach_recovery(sim, injector)
        sim.run(max_steps=8 * 16 * 64)
        for spec in plan.recoveries:
            wrapper = sim.nodes[spec.node]
            inner = nodes[spec.node]
            assert wrapper.epoch == 1
            assert manager.epochs[spec.node] == 1
            assert inner.awake
            assert inner._restarted
            assert inner.status in ("inactive", "passive", "explore", "wait",
                                    "conqueror", "terminated")
        assert manager.crashes == 2
        assert manager.n_recovered == 2
        assert sorted(manager.recovered_at) == sorted(s.node for s in plan.recoveries)

    def test_checkpoint_restart_reconverges(self):
        trial = run_chaos_trial("recover-ckpt", "generic", n=16, seed=0)
        assert trial.outcome == OUTCOME_RECOVERED
        assert trial.safety_ok

    def test_obs_emits_lifecycle_and_fence_events(self):
        recorder = Recorder()
        trial = run_chaos_trial(
            "recover-2", "generic", n=16, seed=0, recorder=recorder
        )
        assert trial.outcome == OUTCOME_RECOVERED
        assert recorder.counts["crash"] == 2
        assert recorder.counts["recover"] == 2
        assert recorder.counts["epoch-fence"] == trial.epoch_fences
        fences = [e for e in recorder.events if e.kind == "epoch-fence"]
        assert all(e.peer is not None and e.value for e in fences)

    def test_recovery_scenarios_registered(self):
        assert set(RECOVERY_SCENARIOS) <= set(FAULT_SCENARIOS)
        assert OUTCOME_RECOVERED in OUTCOMES


class TestPinnedAcceptance:
    """The ISSUE's pinned scenario: 20% loss + two mid-run amnesia crashes."""

    N = 20
    SEED = 0

    def _plan(self):
        graph = build_family("sparse-random", self.N, self.SEED)
        victims = pick_crash_victims(graph, 2, self.SEED)
        return FaultPlan(
            loss=0.20,
            recoveries=tuple(
                RecoverySpec(v, crash_step=self.N, recover_step=4 * self.N, amnesia=True)
                for v in victims
            ),
        )

    def test_reconverges_to_single_verified_leader(self):
        trial = run_chaos_trial(self._plan(), "generic", n=self.N, seed=self.SEED)
        assert trial.outcome == OUTCOME_RECOVERED
        assert trial.safety_ok  # zero stepwise violations
        assert trial.properties_ok  # survivors + recovered all verified
        assert trial.survival.n_components == 1  # single leader
        assert trial.survival.n_orphans == 0
        assert trial.n_recovered == 2
        assert trial.reconverge_steps > 0

    def test_identical_plan_and_seed_replays_identically(self):
        plan = self._plan()
        first = run_chaos_trial(plan, "generic", n=self.N, seed=self.SEED)
        second = run_chaos_trial(plan, "generic", n=self.N, seed=self.SEED)
        assert first.epoch_fences == second.epoch_fences
        assert first.steps == second.steps
        assert first.total_messages == second.total_messages
        assert first.retransmissions == second.retransmissions
