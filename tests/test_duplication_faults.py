"""ABL-4 / finding F7: exactly-once delivery IS load-bearing.

The model (Section 1.2) assumes reliable channels.  Injecting message
*duplication* breaks the protocol -- the ``previous``-queue release
matching and the one-shot merge handshake rely on one-reply-per-request --
but it breaks **loudly**: every observed failure is a ``ProtocolError``
(an impossible message/state combination detected at the receiving node),
never a silent wrong answer.  Contrast with finding F6: channel *order*
is not load-bearing, channel *multiplicity* is.
"""

from repro.core.node import DiscoveryNode, ProtocolError
from repro.core.result import collect_result
from repro.core.runner import default_step_budget, id_bits_for
from repro.faults.plan import FaultInjector, FaultPlan
from repro.graphs.generators import random_weakly_connected
from repro.sim.network import Simulator
from repro.sim.scheduler import RandomScheduler
from repro.verification.invariants import InvariantViolation, verify_discovery


def run_with_duplication(graph, seed, probability):
    sim = Simulator(
        RandomScheduler(seed),
        id_bits=id_bits_for(graph.n),
        faults=FaultInjector(FaultPlan(duplicate=probability), seed=seed),
    )
    nodes = {}
    for node_id in graph.nodes:
        node = DiscoveryNode(node_id, graph.successors(node_id), variant="generic")
        nodes[node_id] = node
        sim.add_node(node)
    for node_id in graph.nodes:
        sim.schedule_wake(node_id)
    sim.run(default_step_budget(graph))
    return collect_result(graph, nodes, sim, "generic"), nodes


class TestDuplicationBreaksLoudly:
    def test_duplication_always_detected_never_silent(self):
        """Across many seeds at 10% duplication: every run either completes
        correctly or raises ProtocolError -- no run quiesces with wrong
        answers (fail-safe behaviour)."""
        graph = random_weakly_connected(25, 60, seed=7)
        outcomes = {"ok": 0, "detected": 0, "silent_corruption": 0}
        for seed in range(15):
            try:
                result, _ = run_with_duplication(graph, seed, probability=0.1)
                verify_discovery(result, graph)
                outcomes["ok"] += 1
            except ProtocolError:
                outcomes["detected"] += 1
            except (InvariantViolation, RuntimeError):
                outcomes["silent_corruption"] += 1
        assert outcomes["silent_corruption"] == 0, outcomes
        assert outcomes["detected"] > 0, outcomes  # the fault genuinely bites

    def test_zero_probability_is_the_normal_path(self):
        graph = random_weakly_connected(20, 40, seed=3)
        result, _ = run_with_duplication(graph, seed=1, probability=0.0)
        verify_discovery(result, graph)

    def test_duplicates_not_double_charged(self):
        """Stats count sends, not deliveries: a duplicated message is
        charged once (the sender sent once; the network misbehaved)."""
        from repro.sim.network import SimNode
        from repro.sim.trace import bits_for_ids

        class Msg:
            msg_type = "m"

            def bit_size(self, b):
                return bits_for_ids(0, b)

        class Sink(SimNode):
            def __init__(self, node_id):
                super().__init__(node_id)
                self.count = 0

            def on_message(self, sender, message):
                self.count += 1

        sim = Simulator(faults=FaultInjector(FaultPlan(duplicate=1.0), seed=0))
        a, b = Sink("a"), Sink("b")
        sim.add_node(a)
        sim.add_node(b)
        a.awake = b.awake = True
        a.send("b", Msg())
        sim.run()
        assert b.count == 2  # delivered twice ...
        assert sim.stats.total_messages == 1  # ... charged once
