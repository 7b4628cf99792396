"""``Simulator.protocol_stamp`` is conservative.

The monitored loop skips a safety checkpoint when the stamp has not moved
since the last passed check.  That is sound only if a step that leaves
the stamp alone leaves alone everything ``check_safety_now`` reads --
``(awake, next, status, more, done, unaware)`` of every protocol node --
under every fault verdict, transport, scheduler and recovery path.  The
first half of this file holds the stamp to that, step by step; the second
injects real violations from inside a handler and requires the skipping
loop to report exactly what a full check at every checkpoint reports.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.node import DiscoveryNode, ProtocolError
from repro.core.runner import build_simulation
from repro.faults.plan import FaultInjector
from repro.faults.recovery import attach_recovery
from repro.faults.reliable import OVERHEAD_TYPES
from repro.faults.scenarios import RECOVERY_SCENARIOS, build_scenario
from repro.sim.network import SimulationError, StepLimitExceeded
from repro.sim.scheduler import GlobalFifoScheduler, LifoScheduler, RandomScheduler
from repro.verification.monitor import (
    _OWNING_STATES,
    SafetyViolation,
    StepwiseMonitor,
    check_safety_now,
)

SCENARIOS = (
    "loss-20",
    "dup-10",
    "crash-2",
    "partition-heal",
    "delay-burst",
    "stress",
    "recover-2",  # amnesia restart
    "recover-ckpt",  # checkpoint restart
    "recover-churn",
)
VARIANTS = ("generic", "bounded", "adhoc")
TRANSPORTS = ("raw", "sr")
SCHEDULERS = {
    "fifo": lambda seed: GlobalFifoScheduler(),
    "lifo": lambda seed: LifoScheduler(),
    "random": lambda seed: RandomScheduler(seed),
}
N = 12
STEP_CAP = 6000


def build_system(scenario, variant, transport, scheduler, seed):
    """``(net or None, sim, protocol nodes)`` for one drawn configuration."""
    graph = build_family("sparse-random", N, seed)
    injector = FaultInjector(build_scenario(scenario, graph, seed), seed=seed)
    reliable = transport != "raw"
    kwargs = dict(
        scheduler=SCHEDULERS[scheduler](seed),
        keep_trace=True,
        faults=injector,
        reliable=reliable,
    )
    if variant == "adhoc":
        net = AdhocNetwork(graph, **kwargs)
        sim, nodes = net.sim, net.nodes
    else:
        net = None
        sim, nodes = build_simulation(graph, variant, **kwargs)
    attach_recovery(sim, injector, checkpoint_every=4)
    return net, sim, nodes


def protocol_state(nodes):
    return {
        node_id: (
            node.awake,
            node.next,
            node.status,
            frozenset(node.more),
            frozenset(node.done),
            frozenset(node.unaware),
        )
        for node_id, node in nodes.items()
    }


def walk(scenario, variant, transport, scheduler, seed):
    """Single-step one system; wherever the stamp stood still, so must the
    protocol state.  Returns how the steps split, for the pinned cases."""
    net, sim, nodes = build_system(scenario, variant, transport, scheduler, seed)
    seen = {"moved": 0, "ticks": 0, "transport_only": 0, "deferred": 0}
    state = protocol_state(nodes)
    for turn in range(STEP_CAP):
        if net is not None and turn == 60:
            # a churn join between two steps: outside the stamp's remit
            net.add_node(max(net.graph.nodes) + 1, [net.graph.nodes[0]])
            state = protocol_state(nodes)
        stamp, traced = sim.protocol_stamp, len(sim.trace)
        try:
            if not sim.step():
                break
        except (ProtocolError, SimulationError):
            break  # a loud failure ends the run; the stamp promises nothing
        after = protocol_state(nodes)
        if sim.protocol_stamp != stamp:
            seen["moved"] += 1
        else:
            assert after == state, f"step {sim.steps} changed state behind the stamp"
            if len(sim.trace) == traced:
                seen["ticks"] += 1  # not-due timer/lifecycle, or a deferral
            elif sim.trace.events[-1].msg_type in OVERHEAD_TYPES:
                seen["transport_only"] += 1
        state = after
    seen["deferred"] = sim.faults.counts["defer"]
    return seen


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(SCENARIOS),
    variant=st.sampled_from(VARIANTS),
    transport=st.sampled_from(TRANSPORTS),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(0, 40),
)
def test_unmoved_stamp_means_unchanged_protocol_state(
    scenario, variant, transport, scheduler, seed
):
    assume(transport != "raw" or scenario not in RECOVERY_SCENARIOS)
    walk(scenario, variant, transport, scheduler, seed)


@pytest.mark.parametrize("transport", ["sr"])
def test_the_stamp_really_stands_still_on_transport_steps(transport):
    """Vacuous if the stamp moved on every step: pin a lossy run in which
    ticks, acks and retransmissions all leave it alone."""
    seen = walk("loss-20", "generic", transport, "random", 1)
    assert seen["ticks"] > seen["moved"] > N
    assert seen["transport_only"] > 20


def test_deferred_deliveries_and_recoveries_are_covered():
    assert walk("delay-burst", "adhoc", "sr", "random", 2)["deferred"] > 0
    assert walk("recover-ckpt", "generic", "sr", "fifo", 3)["moved"] > N


def test_unwrapped_nodes_move_the_stamp_on_every_handler():
    seen = walk("dup-10", "generic", "raw", "random", 4)
    assert seen["transport_only"] == 0 and seen["ticks"] == 0


# ----------------------------------------------------------------------
# Injected violations: the skipping loop reports what the full one does
# ----------------------------------------------------------------------
def _ordered(nodes):
    return sorted(nodes.values(), key=lambda node: repr(node.node_id))


def pointer_cycle(nodes):
    inactive = [node for node in _ordered(nodes) if node.status == "inactive"]
    if len(inactive) < 2:
        return False
    a, b = inactive[:2]
    a.next, b.next = b.node_id, a.node_id
    return True


def double_ownership(nodes):
    owners = [node for node in _ordered(nodes) if node.status in _OWNING_STATES]
    for first in owners:
        for member in sorted((first.more | first.done) - {first.node_id}, key=repr):
            for second in owners:
                if second is not first and second.node_id != member:
                    second.done.add(member)
                    return True
    return False


def more_done_overlap(nodes):
    for node in _ordered(nodes):
        only_done = sorted(node.done - node.more, key=repr)
        if only_done:
            node.more.add(only_done[0])
            return True
    return False


def lost_own_entry(nodes):
    for node in _ordered(nodes):
        if node.status in _OWNING_STATES:
            node.more.discard(node.node_id)
            node.done.discard(node.node_id)
            return True
    return False


CORRUPTIONS = {
    "cycle": (pointer_cycle, "next-pointer cycle"),
    "double": (double_ownership, "owned by both"),
    "overlap": (more_done_overlap, "more/done overlap"),
    "lost": (lost_own_entry, "lost its own entry"),
}


def full_check_loop(sim, nodes, every):
    """The loop the monitor replaced: a full check at every checkpoint."""
    executed = 0
    while executed < STEP_CAP and sim.step():
        executed += 1
        if executed % every == 0:
            check_safety_now(nodes, step=sim.steps)
    if executed >= STEP_CAP and not sim.is_quiescent:
        raise StepLimitExceeded(f"no quiescence within {STEP_CAP} steps")
    check_safety_now(nodes, step=sim.steps)


def skipping_loop(sim, nodes, every):
    StepwiseMonitor(sim, nodes, every=every).run(STEP_CAP)


def outcome(loop, config, kind, at, every):
    """Run ``loop`` on a fresh system whose ``at``-th protocol handler
    call (or the first later one where it is possible) corrupts state."""
    _net, sim, nodes = build_system(*config)
    corrupt = CORRUPTIONS[kind][0]
    calls = {"n": 0, "done": False}
    real = DiscoveryNode.on_message

    def on_message(self, sender, message):
        real(self, sender, message)
        calls["n"] += 1
        if not calls["done"] and calls["n"] >= at:
            calls["done"] = corrupt(nodes)

    with mock.patch.object(DiscoveryNode, "on_message", on_message):
        try:
            loop(sim, nodes, every)
        except (SafetyViolation, ProtocolError, SimulationError) as exc:
            return type(exc).__name__, str(exc), sim.steps
    return "clean", "", sim.steps


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario=st.sampled_from(("loss-20", "crash-2", "delay-burst", "recover-2")),
    variant=st.sampled_from(VARIANTS),
    scheduler=st.sampled_from(("fifo", "random")),
    seed=st.integers(0, 40),
    kind=st.sampled_from(sorted(CORRUPTIONS)),
    at=st.integers(1, 120),
    every=st.sampled_from((1, 3, 64)),
)
def test_skipping_loop_reports_what_the_full_loop_reports(
    scenario, variant, scheduler, seed, kind, at, every
):
    config = (scenario, variant, "sr", scheduler, seed)
    expected = outcome(full_check_loop, config, kind, at, every)
    assert outcome(skipping_loop, config, kind, at, every) == expected


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_each_injected_violation_is_caught_at_its_step(kind):
    config = ("loss-20", "generic", "sr", "random", 5)
    expected = outcome(full_check_loop, config, kind, 40, 1)
    assert expected[0] == "SafetyViolation"
    assert CORRUPTIONS[kind][1] in expected[1]
    assert expected[1].startswith(f"step {expected[2]}:")
    assert outcome(skipping_loop, config, kind, 40, 1) == expected
