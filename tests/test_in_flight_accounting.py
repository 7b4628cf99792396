"""``Simulator.in_flight()`` is a maintained count: it must equal the scan.

The count is bumped in ``transmit``/``_pop_channel_message`` on the object
loop and re-established on every exit by the array core.  These
properties hold it to the definition it replaced -- the sum of all channel
lengths -- between steps and after every kind of ``run`` exit, on every
engine, under every fault verdict.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.arraystate import ArrayCore
from repro.core.messages import Query
from repro.core.node import ProtocolError
from repro.core.runner import build_simulation
from repro.faults.plan import CrashSpec, DelayBurst, FaultInjector, FaultPlan
from repro.sim.network import StepLimitExceeded
from tests.conftest import array_engaged, cut_and_recall, plant_wire

ENGINES = ("legacy", "array")


def scan(sim):
    return sum(len(queue) for queue in sim._channels.values())


def assert_exact(sim):
    assert sim.in_flight() == scan(sim)


# ----------------------------------------------------------------------
# run()/run_for() exits on each engine
# ----------------------------------------------------------------------
def run_exits(engine, variant, graph_seed, sched_seed, cut, stray):
    """Interrupt, resume, single-step and extend one system on ``engine``;
    the count must be exact after every exit.  Returns what happened."""
    graph = build_family("sparse-random", 24, graph_seed)
    if variant == "adhoc":
        net = AdhocNetwork(graph, seed=sched_seed, fast=engine != "legacy")
        sim = net.sim
    else:
        net = None
        sim, _nodes = build_simulation(
            graph, variant, seed=sched_seed, fast=engine != "legacy"
        )
    seen = {"paths": set(), "errors": set()}

    def run(max_steps=None, *, bounded=False):
        """One ``run`` (or ``run_for``) exit; False once a handler raised
        (that node is stuck mid-handler, so the scenario ends there)."""
        try:
            if bounded:
                sim.run_for(max_steps)
            else:
                sim.run(max_steps)
        except (StepLimitExceeded, ProtocolError) as exc:
            seen["errors"].add(type(exc).__name__)
        if not bounded:
            seen["paths"].add(sim._last_run_path)
        assert_exact(sim)
        return "ProtocolError" not in seen["errors"]

    if stray:
        # A query to a node that is not an inactive member is a protocol
        # violation: its handler raises in the middle of the run.
        u, v = graph.nodes[0], graph.nodes[1]
        sim.transmit(u, v, Query(1))
        assert_exact(sim)
    # Usually a mid-run StepLimitExceeded (or the stray's error), then a
    # few object-path steps, then on to quiescence.
    if not (run(cut) and run(7, bounded=True) and run()):
        return seen
    if net is not None:
        joiner = max(graph.nodes) + 1
        net.add_node(joiner, [graph.nodes[0]])  # a late join: new channels
        assert_exact(sim)
        run()
        net.probe_async(graph.nodes[-1])
        run()
    assert sim.in_flight() == 0 and sim.is_quiescent
    return seen


@settings(max_examples=40, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    variant=st.sampled_from(("generic", "bounded", "adhoc")),
    graph_seed=st.integers(0, 50),
    sched_seed=st.one_of(st.none(), st.integers(0, 50)),
    cut=st.integers(1, 400),
    stray=st.booleans(),
)
def test_count_is_exact_after_every_run_exit(
    engine, variant, graph_seed, sched_seed, cut, stray
):
    run_exits(engine, variant, graph_seed, sched_seed, cut, stray)


@pytest.mark.parametrize("engine", ENGINES)
def test_pinned_exits_really_hit_each_engine(engine):
    """The property above is vacuous if an engine silently declines; pin
    one step-limited and one handler-error exit per engine."""
    # (``array_engaged``: the "array" leg of a process without a C loop is
    # declined as ``no-c-loop`` and runs the object loop.)
    ran = engine if engine == "legacy" else array_engaged()[0]
    limited = run_exits(engine, "adhoc", 1, None, 40, stray=False)
    assert ran in limited["paths"]
    assert limited["errors"] == {"StepLimitExceeded"}
    if ran == "array":
        # A message in flight before the run is the object loop's
        # (``node-state``): the C loop meets the stray query only planted
        # inside its run, and hands it back to raise.
        u, v = build_family("sparse-random", 24, 1).nodes[:2]
        plant = lambda core, pool: plant_wire(core, u, v, Query(1))  # noqa: E731
        with mock.patch.object(ArrayCore, "run_loop", cut_and_recall(1, plant)):
            raised = run_exits(engine, "generic", 1, None, None, stray=False)
    else:
        raised = run_exits(engine, "generic", 1, None, None, stray=True)
    assert raised["paths"] == {ran}
    assert raised["errors"] == {"ProtocolError"}


# ----------------------------------------------------------------------
# step() under every interceptor verdict and channel discipline
# ----------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph_seed=st.integers(0, 30),
    fault_seed=st.integers(0, 30),
    discipline=st.sampled_from(("fifo", "random")),
    loss=st.sampled_from((0.0, 0.15)),
    duplicate=st.sampled_from((0.0, 0.2)),
    crash=st.booleans(),
    burst=st.booleans(),
)
def test_count_is_exact_after_every_step(
    graph_seed, fault_seed, discipline, loss, duplicate, crash, burst
):
    graph = build_family("sparse-random", 12, graph_seed)
    plan = FaultPlan(
        loss=loss,
        duplicate=duplicate,
        crashes=(CrashSpec(graph.nodes[3], at_step=20),) if crash else (),
        delays=(DelayBurst(start=10, duration=40, fraction=0.5),) if burst else (),
    )
    injector = FaultInjector(plan, seed=fault_seed)
    net = AdhocNetwork(graph, seed=fault_seed, faults=injector, reliable=True)
    sim = net.sim
    sim.channel_discipline = discipline
    joiner = max(graph.nodes) + 1
    for step in range(1500):
        if step == 60:
            net.add_node(joiner, [graph.nodes[0]])
            assert_exact(sim)
        if not sim.step():
            break
        assert_exact(sim)
    if loss:
        assert injector.counts["loss"] > 0
    if duplicate:
        assert injector.counts["duplicate"] > 0
    if burst:
        assert injector.counts["defer"] > 0
