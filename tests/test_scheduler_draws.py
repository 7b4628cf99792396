"""The scheduler's pool and draws, handed to the C loop and back.

For the length of one C call the array core keeps the pending-token pool
as a native ring and runs the scheduler's Mersenne Twister on its words
and index, copied in place out of the generator; every exit writes the
pool order back into the scheduler's container and copies the words back
in place (``gauss_next`` is never touched).  These tests hold both
to the ``fast=False`` run after every kind of exit -- drained, a step
limit, a handler raising inside the C loop -- for generators anywhere in
their stream (fresh at index 624, mid-block, after ``gauss()``) and pools
that outgrow the ring's power-of-two capacity mid-run.  Hand-backs are
held to the same in ``tests/test_handback.py``, and a cut at every step in
``tests/test_arraystate.py::TestEveryStepCut``.
"""

from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import GRAPH_FAMILIES, build_family
from repro.core import arrayloop, arraystate
from repro.core.arraystate import ArrayCore
from repro.core.messages import Search
from repro.core.node import VARIANTS
from repro.core.runner import build_simulation, default_step_budget
from repro.sim.network import SimulationError
from repro.sim.scheduler import GlobalFifoScheduler, LifoScheduler, RandomScheduler
from tests.conftest import array_engaged, cut_and_recall, gate_says, plant_wire
from tests.test_arraystate import _snapshot

POLICIES = ("fifo", "lifo", "random")


def _scheduler(policy, seed=3, prep="fresh", draws=0):
    """A stock scheduler; a random one's generator is left ``prep``: as
    seeded (index 624), ``draws`` calls of ``random()`` in, or holding a
    ``gauss_next``."""
    if policy != "random":
        return {"fifo": GlobalFifoScheduler, "lifo": LifoScheduler}[policy]()
    scheduler = RandomScheduler(seed)
    if prep == "drawn":
        for _ in range(draws):
            scheduler._rng.random()
    elif prep == "gauss":
        scheduler._rng.gauss()
    return scheduler


def _run(sim, budget):
    try:
        return sim.run(budget)
    except SimulationError as exc:  # StepLimitExceeded, or a raise mid-step
        return type(exc), str(exc)


def _exit_view(sim, outcome):
    """What an exit leaves that the draws decide."""
    rng = getattr(sim.scheduler, "_rng", None)
    return (
        outcome,
        sim.steps,
        rng and rng.getstate(),
        [(type(t), astuple(t)) for t in sim.scheduler.pending()],
    )


def _cut_and_drain(
    fast, family, n, graph_seed, variant, policy, seed, prep, draws, cut, one_waker
):
    """Run to ``cut``, then on to quiescence; ``one_waker`` starts the pool
    at a single wake token, so it grows through the powers of two."""
    graph = build_family(family, n, graph_seed)
    sim, _nodes = build_simulation(
        graph, variant, scheduler=_scheduler(policy, seed, prep, draws), fast=fast,
        wake_order=graph.nodes[:1] if one_waker else None,
    )
    views, paths = [], []
    # Every non-empty pool reaches the gate, the resumed one too.
    with mock.patch.object(arraystate, "_MIN_POOL_FACTOR", 1 << 30):
        for budget in (cut, default_step_budget(graph)):
            views.append(_exit_view(sim, _run(sim, budget)))
            paths.append((sim._last_run_path, sim._last_decline))
    return views, paths


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(GRAPH_FAMILIES)),
    n=st.integers(2, 40),
    graph_seed=st.integers(0, 20),
    variant=st.sampled_from(VARIANTS),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**32),
    prep=st.sampled_from(["fresh", "drawn", "gauss"]),
    draws=st.integers(0, 700),
    cut=st.integers(0, 1500),
    one_waker=st.booleans(),
)
def test_every_exit_leaves_the_reference_draws_and_pool(**case):
    views, paths = _cut_and_drain(True, **case)
    reference, _ = _cut_and_drain(False, **case)
    assert views == reference
    assert paths[0] == array_engaged()
    # The drain is the array core's only if the cut ran no step (the
    # system is still just built); else the object loop's.
    assert paths[1] in (
        array_engaged(), ("legacy", "small-pool"), ("legacy", gate_says("node-state"))
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_the_pool_outgrows_its_ring_mid_run(policy):
    """One wake token is a ring of capacity one: the pool doubles it over
    and over inside one C call, wrapped round (FIFO) or not.  A cut right
    after each doubling (the resumed call's ring starts at the next power
    of two, and doubles in turn) leaves the reference pool and draws."""
    case = dict(
        family="dense-random", n=48, graph_seed=2, variant="generic",
        policy=policy, seed=3, prep="fresh", draws=0, one_waker=True,
    )
    graph = build_family("dense-random", 48, 2)
    reference, _ = build_simulation(
        graph, "generic", scheduler=_scheduler(policy), fast=False,
        wake_order=graph.nodes[:1],
    )
    sizes = [len(reference.scheduler)]
    while not reference.is_quiescent:
        reference.run_for(1)
        sizes.append(len(reference.scheduler))
    doublings = [
        step for step, (a, b) in enumerate(zip(sizes, sizes[1:]), 1)
        if any(a <= 1 << k < b for k in range(8))
    ]
    assert len(doublings) >= 3
    for cut in [*doublings, len(sizes)]:
        case["cut"] = cut
        assert _cut_and_drain(True, **case)[0] == _cut_and_drain(False, **case)[0], cut


@pytest.mark.parametrize("policy", POLICIES)
def test_a_raise_inside_the_c_loop_leaves_the_reference_draws_and_pool(policy):
    """An inactive node whose ``next`` names itself routes the next search
    to itself: ``SimNode.send``'s ``SimulationError`` on the object loop,
    ``emit``'s on the C loop, mid-step, after draws and sends.  The object
    run is cut, edited and resumed; the C run makes the same edit inside
    its one ``run()`` call, at the ``run_loop`` seam."""
    graph = build_family("sparse-random", 32, 1)
    cut = 150

    def build(fast):
        scheduler = _scheduler(policy, prep="drawn", draws=5)
        return build_simulation(graph, "generic", scheduler=scheduler, fast=fast)

    def edit(sim, nodes):
        victim = next(
            x for x, node in nodes.items() if node.status == "inactive" and not node.previous
        )
        sender = next(x for x in nodes if x != victim)
        nodes[victim].next = victim
        sim.transmit(sender, victim, Search(sender, 1, sender, False))
        return victim, sender

    def finish(sim, nodes):
        outcome = _run(sim, default_step_budget(graph))
        return _exit_view(sim, outcome), _snapshot(sim, nodes)

    ref, ref_nodes = build(False)
    _run(ref, cut)
    victim, sender = edit(ref, ref_nodes)
    reference = finish(ref, ref_nodes)

    def edit_core(core, pool):
        core.nxt[core.idx[victim]] = core.idx[victim]
        plant_wire(core, sender, victim, Search(sender, 1, sender, False))

    sim, nodes = build(True)
    if arrayloop.load() is None:  # the same edit between two object runs
        _run(sim, cut)
        edit(sim, nodes)
        view = finish(sim, nodes)
    else:
        with mock.patch.object(ArrayCore, "run_loop", cut_and_recall(cut, edit_core)):
            view = finish(sim, nodes)
    assert view == reference
    raised, text = view[0][0]
    assert raised is SimulationError and "tried to message itself" in text
    assert sim._last_run_path == array_engaged()[0]


def test_a_spied_generator_declines_and_sees_every_draw():
    """The C loop calls nobody's ``getrandbits``, so a generator with one
    shadowed on the instance keeps its run on the object loop."""
    graph = build_family("sparse-random", 32, 1)

    def run(fast, spy):
        sim, _nodes = build_simulation(graph, "generic", seed=3, fast=fast)
        drawn = []
        if spy:
            draw = sim.scheduler._rng.getrandbits
            sim.scheduler._rng.getrandbits = lambda k: drawn.append(k) or draw(k)
        view = _exit_view(sim, _run(sim, default_step_budget(graph)))
        return view, (sim._last_run_path, sim._last_decline), len(drawn)

    spied, path, draws = run(True, spy=True)
    reference, _, _ = run(False, spy=False)
    assert spied == reference
    assert path == ("legacy", "scheduler")
    assert draws >= spied[1]  # at least one draw per step
