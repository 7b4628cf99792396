"""The leader's census snapshot (``DiscoveryNode.knowledge``) is a cache.

It must never be observably stale -- whatever path wrote ``more`` /
``done`` / ``unaware`` (protocol handlers, checkpoint restore, the array
core's materialize) -- and it must actually be shared: probes answered
between two membership changes get the *same* immutable object.
"""

import pytest

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.dynamic import random_churn
from repro.core.node import DiscoveryNode
from repro.faults.plan import FaultInjector, FaultPlan, RecoverySpec
from repro.faults.recovery import RecoveryManager, _snapshot, attach_recovery
from repro.sim.network import StepLimitExceeded
from tests.conftest import array_engaged


def assert_snapshots_fresh(net):
    """Reading ``knowledge`` here also (re)fills every cache, so a writer
    that forgets to drop it is caught by the very next call."""
    for node in net.nodes.values():
        expected = frozenset(node.more | node.done | node.unaware | {node.node_id})
        assert node.knowledge == expected, node


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fresh_after_every_step_of_a_churn_run(seed):
    graph = build_family("sparse-random", 32, seed)
    net = AdhocNetwork(graph, seed=seed)
    sim = net.sim
    assert_snapshots_fresh(net)  # fill the caches before anything runs
    # Array -> object materialize in the middle of the initial discovery.
    with pytest.raises(StepLimitExceeded):
        net.run(max_steps=150)
    assert (sim._last_run_path, sim._last_decline) == array_engaged()
    assert_snapshots_fresh(net)

    events = list(random_churn(graph, 90, seed=seed).events)
    answered = 0
    for turn in range(20_000):
        if events and turn % 5 == 0:
            event = events.pop(0)
            if event[0] == "join":
                net.add_node(event[1], event[2])
            elif event[0] == "link":
                net.add_link(event[1], event[2])
            elif net.can_probe(event[1]):
                answered += net.probe_async(event[1]).immediate
            assert_snapshots_fresh(net)
        if not sim.step() and not events:
            break
        assert_snapshots_fresh(net)
    assert not events and sim.is_quiescent
    assert sum(len(node.probe_results) for node in net.nodes.values()) + answered > 10


def test_fresh_across_amnesia_and_checkpoint_recovery():
    graph = build_family("sparse-random", 16, 0)
    amnesiac, restored = graph.nodes[2], graph.nodes[5]
    plan = FaultPlan(
        recoveries=(
            RecoverySpec(amnesiac, crash_step=60, recover_step=200, amnesia=True),
            RecoverySpec(restored, crash_step=90, recover_step=260),
        )
    )
    injector = FaultInjector(plan, seed=0, keep_log=False)
    net = AdhocNetwork(graph, seed=0, faults=injector, reliable=True)
    manager = attach_recovery(net.sim, injector, checkpoint_every=64)
    for _ in range(20_000):
        if not net.sim.step():
            break
        assert_snapshots_fresh(net)
    assert manager.n_recovered == 2


def test_restore_drops_the_snapshot_even_when_nothing_is_re_added():
    """A checkpoint with an empty ``more`` (the usual state of a member
    that reported everything) re-adds nothing through ``_add_more``; the
    restore itself has to drop the cached census."""
    node = DiscoveryNode(1, frozenset(), variant="adhoc")
    node._move_more_to_done(1)
    checkpoint = _snapshot(node, 0)
    assert not checkpoint.more
    node._add_done(7)
    assert node.knowledge == {1, 7}
    RecoveryManager._restore_fields(node, checkpoint)
    assert node.knowledge == {1}


def test_probes_share_one_snapshot_until_membership_changes():
    graph = build_family("sparse-random", 24, 3)
    net = AdhocNetwork(graph, seed=3)
    net.run()
    a, b, c = graph.nodes[1], graph.nodes[7], graph.nodes[12]
    leader, first = net.probe(a)
    assert net.probe(b) == (leader, first)
    assert net.probe(b)[1] is first  # same census, same object
    assert net.nodes[leader].knowledge is first

    # A new link re-opens its endpoint at the leader (done -> more -> done)
    # without changing who is in the cluster: still the same object.
    u, v = next(
        (u, v) for u in graph.nodes for v in graph.nodes
        if u != v and v not in graph.successors(u)
    )
    net.add_link(u, v)
    net.run()
    assert net.probe(c)[1] is first

    joiner = max(graph.nodes) + 1
    net.add_node(joiner, [a])
    net.run()
    grown = net.probe(c)[1]
    assert grown is not first
    assert grown == first | {joiner}
    assert net.probe(a)[1] is grown
