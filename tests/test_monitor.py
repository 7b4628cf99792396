"""Tests for the stepwise safety monitor (and, through it, the claim that
the safety properties hold at every step of every schedule)."""

import pytest

from repro.core.runner import build_simulation
from repro.graphs.generators import (
    complete_binary_tree,
    directed_path,
    random_weakly_connected,
    star,
)
from repro.sim.network import StepLimitExceeded
from repro.verification.invariants import verify_discovery
from repro.verification.monitor import SafetyViolation, StepwiseMonitor, check_safety_now
from repro.core.result import collect_result


class TestStepwiseSafety:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: star(12),
            lambda: directed_path(12),
            lambda: complete_binary_tree(4),
            lambda: random_weakly_connected(20, 50, seed=3),
        ],
        ids=["star", "path", "tree", "random"],
    )
    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_invariants_hold_every_step(self, maker, variant, seed):
        graph = maker()
        sim, nodes = build_simulation(graph, variant, seed=seed)
        monitor = StepwiseMonitor(sim, nodes)
        monitor.run()
        assert monitor.steps_checked > 0
        verify_discovery(collect_result(graph, nodes, sim, variant), graph)

    def test_every_parameter_subsamples(self):
        graph = random_weakly_connected(15, 30, seed=1)
        sim, nodes = build_simulation(graph, "generic", seed=1)
        monitor = StepwiseMonitor(sim, nodes, every=10)
        steps = monitor.run()
        assert monitor.steps_checked <= steps // 10 + 2

    def test_repeat_checkpoints_are_counted_not_rerun(self):
        graph = random_weakly_connected(15, 30, seed=1)
        sim, nodes = build_simulation(graph, "generic", seed=1, reliable=True)
        monitor = StepwiseMonitor(sim, nodes)
        steps = monitor.run()
        # every step is a checkpoint (plus the one at rest) ...
        assert monitor.steps_checked == steps + 1
        # ... but acks, ticks and retransmit timers cannot change the verdict
        assert 0 < monitor.checks_skipped < monitor.steps_checked
        assert monitor.checks_skipped > steps // 2

    def test_step_limit_is_exact_and_typed(self):
        # Failing-pre-fix: ``run(max_steps)`` executed max_steps + 1 steps
        # before raising, raised even when that last step had quiesced the
        # system, and raised a bare SimulationError.
        graph = star(6)
        sim, nodes = build_simulation(graph, "generic", seed=2)
        total = StepwiseMonitor(sim, nodes).run()

        sim, nodes = build_simulation(graph, "generic", seed=2)
        assert StepwiseMonitor(sim, nodes).run(total) == total  # just enough
        assert sim.is_quiescent

        sim, nodes = build_simulation(graph, "generic", seed=2)
        with pytest.raises(StepLimitExceeded, match=f"within {total - 1} steps"):
            StepwiseMonitor(sim, nodes).run(total - 1)
        assert sim.steps == total - 1  # at most max_steps, not one more

    def test_every_validation(self):
        graph = star(3)
        sim, nodes = build_simulation(graph, "generic")
        with pytest.raises(ValueError):
            StepwiseMonitor(sim, nodes, every=0)


class TestViolationDetection:
    """The monitor must catch fabricated corruption."""

    def quiesced(self):
        graph = random_weakly_connected(10, 20, seed=2)
        sim, nodes = build_simulation(graph, "generic", seed=2)
        sim.run(10**6)
        return nodes

    def test_detects_pointer_cycle(self):
        nodes = self.quiesced()
        inactive = [n for n in nodes.values() if n.status == "inactive"]
        a, b = inactive[0], inactive[1]
        a.next, b.next = b.node_id, a.node_id
        with pytest.raises(SafetyViolation, match="cycle"):
            check_safety_now(nodes)

    def test_detects_double_ownership(self):
        nodes = self.quiesced()
        leader = next(n for n in nodes.values() if n.is_leader)
        other = next(n for n in nodes.values() if not n.is_leader)
        member = next(iter(leader.done - {other.node_id, leader.node_id}))
        other.status = "passive"  # make it an owning state
        other.next = other.node_id
        other.done.add(member)
        with pytest.raises(SafetyViolation, match="owned by both"):
            check_safety_now(nodes)

    def test_detects_more_done_overlap(self):
        nodes = self.quiesced()
        leader = next(n for n in nodes.values() if n.is_leader)
        member = next(iter(leader.done - {leader.node_id}))
        leader.more.add(member)
        with pytest.raises(SafetyViolation, match="overlap"):
            check_safety_now(nodes)

    def test_detects_lost_self_entry(self):
        nodes = self.quiesced()
        leader = next(n for n in nodes.values() if n.is_leader)
        leader.more.discard(leader.node_id)
        leader.done.discard(leader.node_id)
        with pytest.raises(SafetyViolation, match="lost its own entry"):
            check_safety_now(nodes)

    def test_detects_inactive_self_pointer(self):
        nodes = self.quiesced()
        inactive = next(n for n in nodes.values() if n.status == "inactive")
        inactive.next = inactive.node_id
        with pytest.raises(SafetyViolation, match="points at itself"):
            check_safety_now(nodes)
