"""A node's queue exists only while it holds an entry.

``DiscoveryNode.previous`` (the Figure 5 routing queue), ``_inbox`` and
``probe_previous`` (Section 4.5.2) hold the shared ``EMPTY_QUEUE`` tuple
while they are empty: the first append opens a deque and the pop that
empties it puts the tuple back.  These tests hold every node to that
after every step of object-loop runs (Generic and Ad-hoc, FIFO and
random, a service run with probes, crash-recovery restores) and after
the array core writes its state back, and pin what it saves.
"""

import tracemalloc
from collections import deque
from unittest import mock

import pytest

from repro.analysis.experiments import build_family
from repro.core import arraystate
from repro.core.adhoc import AdhocNetwork
from repro.core.node import EMPTY_QUEUE
from repro.core.runner import build_simulation, default_step_budget
from repro.faults.plan import FaultInjector
from repro.faults.recovery import RecoveryManager, attach_recovery
from repro.faults.scenarios import build_scenario
from repro.service import ServiceDriver, build_workload
from repro.sim.network import StepLimitExceeded
from tests.conftest import array_engaged

QUEUES = ("previous", "_inbox", "probe_previous")


def protocol_nodes(sim):
    # ``inner``: the protocol node behind a transport wrapper.
    return [getattr(node, "inner", node) for node in sim.nodes.values()]


def assert_queues(sim, seen=None):
    """Every queue is the shared tuple or a non-empty deque; ``seen``
    counts the non-empty ones by name, and nodes holding deferred
    messages (whose next delivery takes the inbox)."""
    for node in protocol_nodes(sim):
        for name in QUEUES:
            queue = getattr(node, name)
            assert queue is EMPTY_QUEUE or (type(queue) is deque and queue), (
                node.node_id,
                name,
                queue,
            )
            if seen is not None and queue:
                seen[name] += 1
        if seen is not None and node._deferred:
            seen["deferred"] += 1


def checked_steps(sim):
    """Check every node's queues after every ``step()`` of ``sim`` from
    now on (an instance-wrapped ``step`` also makes ``run_for`` step
    through it); returns the counts :func:`assert_queues` keeps."""
    seen = dict.fromkeys((*QUEUES, "deferred"), 0)
    step = sim.step

    def checked():
        more = step()
        assert_queues(sim, seen)
        return more

    sim.step = checked
    return seen


# ----------------------------------------------------------------------
# The object loop, step by step
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", (None, 5))
@pytest.mark.parametrize("variant", ("generic", "adhoc"))
def test_object_loop_after_every_step(variant, seed):
    graph = build_family("sparse-random", 48, 3)
    sim, _nodes = build_simulation(graph, variant, seed=seed, fast=False)
    seen = checked_steps(sim)
    sim.run(default_step_budget(graph))
    assert sim._last_run_path == "legacy"
    # Searches queued at routing nodes, and messages deferred and then
    # replayed through the inbox: the check above saw both.
    assert seen["previous"] > 0 and seen["deferred"] > 0, seen
    for node in protocol_nodes(sim):
        assert all(getattr(node, name) is EMPTY_QUEUE for name in QUEUES)


def test_service_run_with_probes():
    graph = build_family("sparse-random", 64, 2)
    workload = build_workload("poisson", graph, rate=10.0, duration=3000, seed=2)
    driver = ServiceDriver(AdhocNetwork(graph, seed=2), workload)
    sim = driver.net.sim
    seen = checked_steps(sim)
    report = driver.run()
    assert not report.budget_exhausted
    assert len(sim.nodes) > graph.n
    assert seen["probe_previous"] > 0 and seen["previous"] > 0, seen
    for node in protocol_nodes(sim):
        assert all(getattr(node, name) is EMPTY_QUEUE for name in QUEUES)


# ----------------------------------------------------------------------
# Crash recovery: a restart holds no queue
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ("recover-2", "recover-ckpt"))
def test_restore_puts_the_shared_tuple_back(scenario, monkeypatch):
    restored = []
    restore_fields = RecoveryManager._restore_fields

    def spy(inner, ckpt):
        restore_fields(inner, ckpt)
        assert all(getattr(inner, name) is EMPTY_QUEUE for name in QUEUES)
        restored.append(inner.node_id)

    monkeypatch.setattr(RecoveryManager, "_restore_fields", staticmethod(spy))
    graph = build_family("sparse-random", 32, 1)
    injector = FaultInjector(build_scenario(scenario, graph, 1), seed=1)
    sim, _nodes = build_simulation(graph, "generic", faults=injector, reliable=True)
    manager = attach_recovery(sim, injector, checkpoint_every=4)
    checked_steps(sim)
    sim.run(default_step_budget(graph) * 8)
    assert manager.n_recovered == len(restored) > 0


# ----------------------------------------------------------------------
# The array core's write-back
# ----------------------------------------------------------------------
def test_materialize_writes_the_shared_tuple(monkeypatch):
    """At a step-limit exit the array core writes back the queues the
    object loop would hold: pending searches in deques, every empty
    queue the shared tuple; at quiescence every queue is empty."""
    written = []
    materialize = arraystate._materialize_to_sim

    def spy(core, sim, pool, mode):
        materialize(core, sim, pool, mode)
        seen = dict.fromkeys((*QUEUES, "deferred"), 0)
        assert_queues(sim, seen)
        written.append(seen)

    monkeypatch.setattr(arraystate, "_materialize_to_sim", spy)
    graph = build_family("sparse-random", 256, 4)
    budget = default_step_budget(graph)
    ref, _nodes = build_simulation(graph, "generic", seed=4, fast=False)
    ref.run(budget)
    cuts = range(ref.steps // 8, ref.steps, ref.steps // 8)
    for cut in cuts:
        sim, _nodes = build_simulation(graph, "generic", seed=4)
        with pytest.raises(StepLimitExceeded):
            sim.run(cut)
        assert sim._last_run_path == array_engaged()[0]
        assert_queues(sim)
    sim, _nodes = build_simulation(graph, "generic", seed=4)
    sim.run(budget)
    for node in protocol_nodes(sim):
        assert all(getattr(node, name) is EMPTY_QUEUE for name in QUEUES)
    if array_engaged()[0] == "array":
        assert len(written) == len(cuts) + 1
        assert sum(seen["previous"] for seen in written) > 0, written


# ----------------------------------------------------------------------
# What it saves
# ----------------------------------------------------------------------
def test_build_simulation_footprint():
    """Three empty deques were 2.2 KiB of a 4.6 KiB node; a built
    sparse n=2,000 system now allocates at most 3 KiB per node."""
    n = 2000
    graph = build_family("sparse-random", n, 0)
    tracemalloc.start()
    try:
        sim, nodes = build_simulation(graph, "generic")
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(nodes) == n
    for node in nodes.values():
        assert all(getattr(node, name) is EMPTY_QUEUE for name in QUEUES)
    assert allocated / n <= 3 * 1024, allocated / n
    del sim


def test_enqueue_while_pumping_lands_in_the_drained_deque():
    """A message that arrives while the pump holds an emptied inbox, not
    yet put back, is appended to that deque and still handled."""
    graph = build_family("sparse-random", 8, 0)
    sim, nodes = build_simulation(graph, "generic", fast=False)
    node = next(iter(nodes.values()))
    handled = []

    def dispatch(sender, message):
        handled.append(message)
        if message == "first":
            assert not node._inbox and node._inbox is not EMPTY_QUEUE
            node.on_message(sender, "second")
        return True

    node._inbox = deque([(node.node_id, "first")])
    with mock.patch.object(node, "_dispatch", dispatch):
        node._pump()
    assert handled == ["first", "second"]
    assert node._inbox is EMPTY_QUEUE
