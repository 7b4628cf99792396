"""A channel exists only while it carries a message.

``Simulator._channels`` holds an ordered pair of nodes from the send that
gives it a pending message (``transmit``) to the delivery or crashed-
receiver drop that takes its last one (``_pop_channel_message``); the
array core hands back only the channels its arena says hold wires.  These
tests hold the table to that definition after every step and after every
kind of ``run`` exit, on both engines: every value is a non-empty deque,
the keys and lengths are exactly the pending deliveries in the scheduler
pool (one ``DeliverToken`` per message pending, duplicates included), and
``in_flight()`` is their sum.
"""

from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.arraystate import ArrayCore
from repro.core.messages import Probe, Query
from repro.core.node import ProtocolError
from repro.core.runner import build_simulation, default_step_budget
from repro.faults.plan import CrashSpec, DelayBurst, FaultInjector, FaultPlan
from repro.service import ServiceDriver, build_workload
from repro.sim.events import DeliverToken
from repro.sim.network import StepLimitExceeded
from tests.conftest import array_engaged, cut_and_recall, plant_wire


def assert_table(sim):
    channels = sim._channels
    assert all(type(q) is deque and q for q in channels.values())
    pending = Counter(
        (t.src, t.dst) for t in sim.scheduler.pending() if type(t) is DeliverToken
    )
    assert {key: len(q) for key, q in channels.items()} == pending
    assert sim.in_flight() == sum(map(len, channels.values()))


def checked_steps(sim):
    """Check the table after every ``step()`` of ``sim`` from now on (an
    instance-wrapped ``step`` also makes ``run_for`` step through it)."""
    step = sim.step

    def checked():
        more = step()
        assert_table(sim)
        return more

    sim.step = checked


# ----------------------------------------------------------------------
# The object loop, step by step, under every fault verdict
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph_seed=st.integers(0, 30),
    fault_seed=st.integers(0, 30),
    discipline=st.sampled_from(("fifo", "random")),
    loss=st.sampled_from((0.0, 0.15)),
    duplicate=st.sampled_from((0.0, 0.3)),
    crash=st.booleans(),
    burst=st.booleans(),
)
def test_table_after_every_step(
    graph_seed, fault_seed, discipline, loss, duplicate, crash, burst
):
    _injector, sim = _faulted(
        graph_seed, fault_seed, discipline, loss, duplicate, crash, burst
    )
    _step_through(sim)


@pytest.mark.parametrize("discipline", ("fifo", "random"))
def test_duplicates_and_crash_drops_really_happen(discipline):
    """The property above is vacuous if no verdict fires: pin a run that
    duplicates (``copies > 1``), defers and drops at a crashed receiver,
    and queues two messages or more on one channel."""
    injector, sim = _faulted(1, 2, discipline, 0.0, 0.3, True, True)
    deepest = _step_through(sim)
    assert injector.counts["duplicate"] > 0
    assert injector.counts["crash-drop"] > 0
    assert injector.counts["defer"] > 0
    assert deepest >= 2


def _faulted(graph_seed, fault_seed, discipline, loss, duplicate, crash, burst):
    graph = build_family("sparse-random", 12, graph_seed)
    plan = FaultPlan(
        loss=loss,
        duplicate=duplicate,
        crashes=(CrashSpec(graph.nodes[3], at_step=20),) if crash else (),
        delays=(DelayBurst(start=10, duration=40, fraction=0.5),) if burst else (),
    )
    injector = FaultInjector(plan, seed=fault_seed)
    net = AdhocNetwork(graph, seed=fault_seed, faults=injector, reliable=True)
    net.sim.channel_discipline = discipline
    return injector, net.sim


def _step_through(sim):
    """Step ``sim`` to quiescence (or 3,000 steps), checking the table
    after each; returns the longest channel seen.  A quiescent run ends
    with an empty table."""
    deepest = 0
    for _ in range(3000):
        if not sim.step():
            assert sim._channels == {}
            return deepest
        assert_table(sim)
        deepest = max([deepest, *map(len, sim._channels.values())])
    return deepest


# ----------------------------------------------------------------------
# run() exits: the object loop and every array-core exit
# ----------------------------------------------------------------------
ENGINES = ("legacy", "array")


def _system(engine, seed=None):
    graph = build_family("sparse-random", 24, 1)
    sim, _nodes = build_simulation(graph, "generic", seed=seed, fast=engine == "array")
    return graph, sim


def _ran(engine):
    return "legacy" if engine == "legacy" else array_engaged()[0]


@pytest.mark.parametrize("seed", (None, 4))
@pytest.mark.parametrize("engine", ENGINES)
def test_quiescent_exit_leaves_no_channel(engine, seed):
    graph, sim = _system(engine, seed=seed)
    sim.run(default_step_budget(graph))
    assert sim._last_run_path == _ran(engine)
    assert sim.stats.total_messages > 0
    assert sim._channels == {} and sim.in_flight() == 0
    assert_table(sim)


@pytest.mark.parametrize("seed", (None, 4))
@pytest.mark.parametrize("engine", ENGINES)
def test_step_limit_exit_then_every_step(engine, seed):
    graph, sim = _system(engine, seed=seed)
    with pytest.raises(StepLimitExceeded):
        sim.run(60)
    assert sim._last_run_path == _ran(engine)
    assert sim._channels
    assert_table(sim)
    # ... and the object loop takes it from there, one step at a time.
    checked_steps(sim)
    sim.run(default_step_budget(graph))
    assert sim._channels == {}


def _planted_run(sim, graph, cut, message):
    """Run ``sim`` with ``message`` from the graph's first node to its
    second planted inside the C run at ``cut`` (a probe or a
    protocol-impossible message, which the C loop hands back).  Without
    a C loop the object loop meets it, sent before the run."""
    src, dst = graph.nodes[:2]
    if array_engaged()[0] == "legacy":
        sim.transmit(src, dst, message)
        return sim.run(default_step_budget(graph))

    def plant(core, pool):
        plant_wire(core, src, dst, message)

    with mock.patch.object(ArrayCore, "run_loop", cut_and_recall(cut, plant)):
        try:
            return sim.run(default_step_budget(graph))
        finally:
            assert (sim._last_run_path, sim._last_decline) == ("array", "handed-back")


def test_hand_back_exit_runs_on_to_an_empty_table():
    # The reference answers the probe on the materialized simulator and
    # the object loop ends the call.
    graph, sim = _system("array")
    _planted_run(sim, graph, 150, Probe(graph.nodes[0]))
    assert sim._channels == {}
    assert_table(sim)


def test_raise_exit_leaves_the_pending_channels():
    # A query to an active node: the reference raises from the
    # materialized state.
    graph, sim = _system("array")
    with pytest.raises(ProtocolError):
        _planted_run(sim, graph, 1, Query(1))
    assert sim._channels
    assert_table(sim)


# ----------------------------------------------------------------------
# A service run: many pairs touched over time, none kept
# ----------------------------------------------------------------------
def test_service_run_ends_with_an_empty_table():
    graph = build_family("sparse-random", 32, 2)
    workload = build_workload("poisson", graph, rate=10.0, duration=2000, seed=2)
    driver = ServiceDriver(AdhocNetwork(graph, seed=2), workload)
    sim = driver.net.sim
    checked_steps(sim)
    report = driver.run()
    assert not report.budget_exhausted
    assert len(sim.nodes) > graph.n
    assert sim.stats.total_messages > 0
    assert sim._channels == {} and sim.in_flight() == 0
