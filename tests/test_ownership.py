"""A finished run frees itself: nothing a run builds needs the cyclic GC.

The simulator owns its nodes; a node points back up only through a weak
reference (``SimNode._sim``), and so do a transport wrapper's port and
the inner node it wraps.  So the object graph of a run has no reference
cycle and reference counting frees all of it the moment its last owner
drops it.  Each case below runs with ``gc.DEBUG_SAVEALL`` and a
collection after it, which keeps everything the cyclic collector found
unreachable in ``gc.garbage``: it must find nothing.
"""

import gc
from unittest import mock

import pytest

from repro.analysis.experiments import build_family
from repro.core import arraystate
from repro.core.adhoc import AdhocNetwork
from repro.core.generic import run_generic
from repro.core.node import DiscoveryNode
from repro.core.runner import build_simulation, default_step_budget
from repro.faults import FAULT_SCENARIOS
from repro.faults.harness import run_chaos_trial
from repro.faults.reliable import ReliableNode
from repro.obs.events import Recorder
from repro.obs.metrics import attach_metrics
from repro.service.driver import ServiceDriver
from repro.service.workload import build_workload
from repro.sim.network import SimulationError, Simulator
from repro.verification.monitor import StepwiseMonitor
from tests.conftest import array_engaged
from tests.test_handback import planted_in_the_loop


def cyclic_garbage(run):
    """Call ``run``; return the type names of what only the cyclic
    collector would have freed of it."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found


GRAPH = build_family("sparse-random", 32, 1)


@pytest.mark.parametrize("reliable", [True, False], ids=["sr", "raw"])
@pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
def test_a_chaos_trial_leaves_no_cycle(scenario, reliable):
    def trial():
        try:
            run_chaos_trial(scenario, "generic", "sparse-random", 32, 1, reliable=reliable)
        except ValueError as exc:  # crash-recovery needs the transport
            assert not reliable and "need reliable=True" in str(exc)

    assert cyclic_garbage(trial) == []


def test_an_object_loop_discovery_leaves_no_cycle():
    assert cyclic_garbage(lambda: run_generic(GRAPH, seed=1, fast=False)) == []


def test_a_recorded_run_with_metrics_leaves_no_cycle():
    def recorded():
        recorder = Recorder()
        sim, _nodes = build_simulation(GRAPH, "generic", seed=1, obs=recorder)
        timeline = attach_metrics(sim, recorder, cadence=16)
        sim.run(default_step_budget(GRAPH))
        assert recorder.events and timeline.samples

    assert cyclic_garbage(recorded) == []


def test_a_monitored_run_leaves_no_cycle():
    def monitored():
        sim, nodes = build_simulation(GRAPH, "generic", seed=1)
        StepwiseMonitor(sim, nodes, every=4).run()

    assert cyclic_garbage(monitored) == []


def test_a_service_run_leaves_no_cycle():
    def served():
        network = AdhocNetwork(GRAPH, seed=1)
        load = build_workload("poisson", GRAPH, rate=50.0, duration=2000, seed=1)
        assert ServiceDriver(network, load).run().probes

    assert cyclic_garbage(served) == []


def test_a_hand_back_leaves_no_cycle():
    """The C loop meets a protocol-impossible message, the core
    materializes into the simulator's nodes and the reference raises."""
    materialized = []
    materialize = arraystate._materialize_to_sim

    def spy(*args):
        materialized.append(True)
        return materialize(*args)

    def handed_back():
        with mock.patch.object(arraystate, "_materialize_to_sim", spy):
            ran.append(planted_in_the_loop(
                family="sparse-random", n=32, graph_seed=1, variant="generic",
                policy="fifo", sched_seed=3, cut=150, plant="query",
            )[2])

    ran = []
    assert cyclic_garbage(handed_back) == []
    if array_engaged()[0] == "array":  # else both runs took the object loop
        assert ran == [("array", "handed-back")] and materialized


# ----------------------------------------------------------------------
# Binding: the weak reference keeps the old contract
# ----------------------------------------------------------------------
def test_a_node_whose_simulator_is_gone_is_not_bound():
    sim = Simulator()
    node = DiscoveryNode(0, frozenset())
    sim.add_node(node)
    assert node.sim is sim
    del sim
    with pytest.raises(SimulationError, match="is not bound to a simulator"):
        node.sim
    with pytest.raises(SimulationError, match="is not bound to a simulator"):
        node.send(1, object())
    Simulator().add_node(node)  # free to join another


def test_a_wrapped_node_is_unbound_with_its_wrapper():
    sim = Simulator()
    inner = DiscoveryNode(0, frozenset())
    wrapper = ReliableNode(inner)
    sim.add_node(wrapper)
    assert inner.sim.steps == 0  # through the port to the simulator
    del sim
    with pytest.raises(SimulationError, match="is not bound to a simulator"):
        inner.sim.steps
    del wrapper
    with pytest.raises(SimulationError, match="is not bound to a simulator"):
        inner.sim


def test_binding_to_a_second_live_simulator_still_raises():
    first, second = Simulator(), Simulator()
    node = DiscoveryNode(0, frozenset())
    first.add_node(node)
    first.add_node(DiscoveryNode(1, frozenset()))
    with pytest.raises(SimulationError, match="already bound"):
        second.add_node(node)
    wrapped = DiscoveryNode(2, frozenset())
    first.add_node(wrapped)
    with pytest.raises(SimulationError, match="already bound; wrap before add_node"):
        ReliableNode(wrapped)
