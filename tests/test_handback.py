"""The C loop's hand-backs, held to the reference run.

The C loop executes every step it can reproduce bit for bit and stops at
the ones it cannot -- a probe, a probe reply, a protocol-impossible
message -- *before* mutating anything.  The array core then materializes
and the reference (``core/node.py`` under ``Simulator._execute_deliver`` /
``_pump``) executes exactly that step; the rest of the ``run()`` call
stays on the object loop with ``sim._last_decline == "handed-back"``.
Nothing else states those arms any more, so these tests hold the seam to
the ``fast=False`` run: probe answers and their step stamps, final state,
stats with key order, exception type and text, the state a raise leaves
behind, and the run after it.

The array core takes only a just-built system, so a message planted
between two ``run()`` calls reaches the object loop; to meet the C loop
it is planted inside one run, at the ``ArrayCore.run_loop`` seam
(``conftest.cut_and_recall``): the C run stops at the cut, suspended,
the C loop's ``plant`` puts the message on its channels and the next call
resumes it.
"""

import copy
import gc
import random
import tracemalloc
import weakref
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import GRAPH_FAMILIES, build_family
from repro.core import arrayloop, arraystate
from repro.core.adhoc import AdhocNetwork
from repro.core.arraystate import ArrayCore, run_graph
from repro.core.messages import ABORT, Info, MergeAccept, Probe, Query, Release, Search
from repro.core.node import VARIANTS, ProtocolError
from repro.core.runner import build_simulation, default_step_budget
from repro.sim.network import SimulationError, StepLimitExceeded
from repro.sim.scheduler import _FIFO, _RANDOM, GlobalFifoScheduler, LifoScheduler, RandomScheduler
from tests.conftest import array_engaged, cut_and_recall, gate_says, plant_wire
from tests.test_arraystate import _snapshot

SCHEDULERS = {
    "fifo": lambda seed: GlobalFifoScheduler(),
    "lifo": lambda seed: LifoScheduler(),
    "random": lambda seed: RandomScheduler(seed=seed),
}


# ----------------------------------------------------------------------
# Protocol-impossible messages, one per non-probe raise arm.  Each picks
# its victim from the state at the cut -- equal on both engines, so both
# plant the same message -- or returns ``None`` when no node qualifies.
# ----------------------------------------------------------------------
def _first(nodes, wanted):
    return next((x for x, node in nodes.items() if wanted(node)), None)


def _sender(nodes, dst):
    return next(x for x in nodes if x != dst)


def _plant_query(nodes):
    dst = _first(nodes, lambda node: node.status != "inactive")
    return dst, Query(1)


def _plant_merge_accept(nodes):
    dst = _first(nodes, lambda node: node.status != "conquered")
    return dst, MergeAccept()


def _plant_info(nodes):
    dst = _first(nodes, lambda node: not node._awaiting_info)
    empty = frozenset()
    return dst, Info(1, empty, empty, empty, empty)


def _plant_busy_info(nodes):
    # queues behind the victim's deferred messages: the pump meets it
    dst = _first(nodes, lambda node: node._deferred and not node._awaiting_info)
    empty = frozenset()
    return dst, (None if dst is None else Info(1, empty, empty, empty, empty))


def _plant_release(nodes):
    dst = _first(nodes, lambda node: node.status == "inactive" and not node.previous)
    if dst is None:
        return None, None
    return dst, Release(_sender(nodes, dst), ABORT, _sender(nodes, dst), 1)


def _plant_search(nodes):
    dst = _first(nodes, lambda node: node.status == "terminated")
    if dst is None:
        return None, None
    return dst, Search(_sender(nodes, dst), 1 << 20, dst, False)


PLANTS = {
    "query": _plant_query,
    "merge-accept": _plant_merge_accept,
    "info": _plant_info,
    "busy-info": _plant_busy_info,
    "release": _plant_release,
    "search": _plant_search,
}


def _plant(plant, nodes):
    """``(src, dst, message)`` for ``plant`` in this state, or ``None``."""
    dst, message = PLANTS[plant](nodes) if plant else (None, None)
    return None if dst is None else (_sender(nodes, dst), dst, message)


# ----------------------------------------------------------------------
# One scenario, run on either engine
# ----------------------------------------------------------------------
def _view(sim, nodes):
    # ``_snapshot`` aliases the live sets and deques; the run goes on.  The
    # scheduler's rng state is what the C loop hands back with the pool.
    rng = getattr(sim.scheduler, "_rng", None)
    return copy.deepcopy(_snapshot(sim, nodes)), rng and rng.getstate()


def _run(sim, max_steps=None):
    try:
        return sim.run(max_steps)
    except (StepLimitExceeded, ProtocolError) as exc:
        return type(exc), str(exc)


def _system(fast, family, n, graph_seed, variant, policy, sched_seed):
    """``(graph, net, sim, nodes)`` just built; ``net`` is the Ad-hoc
    variant's :class:`AdhocNetwork`, else ``None``."""
    graph = build_family(family, n, graph_seed)
    scheduler = SCHEDULERS[policy](sched_seed)
    if variant == "adhoc":
        net = AdhocNetwork(graph, scheduler=scheduler, fast=fast)
        return graph, net, net.sim, net.nodes
    sim, nodes = build_simulation(graph, variant, scheduler=scheduler, fast=fast)
    return graph, None, sim, nodes


def scenario(fast, family, n, graph_seed, variant, policy, sched_seed, cut, probes, plant):
    """Run to ``cut``, inject probes and the planted message, run on, run
    once more; returns everything the two engines are compared on, and
    what the engine said about the run that met the injections."""
    graph, net, sim, nodes = _system(
        fast, family, n, graph_seed, variant, policy, sched_seed
    )
    budget = default_step_budget(graph)
    observed = [_run(sim, cut), _view(sim, nodes)]

    handles = []
    if variant == "adhoc":
        order = list(graph.nodes)
        for pick in probes:
            node_id = order[pick % len(order)]
            if net.can_probe(node_id):
                handles.append(net.probe_async(node_id))
    planted = _plant(plant, nodes)
    if planted is not None:
        sim.transmit(*planted)
    pending = len(sim.scheduler)

    # A resumed pool is usually below the engagement threshold; offer
    # every non-empty one to the gate.
    with mock.patch.object(arraystate, "_MIN_POOL_FACTOR", 1 << 30):
        outcome = _run(sim, budget)
        ran = (sim._last_run_path, sim._last_decline)
        observed += [outcome, _view(sim, nodes)]
        # The run after a hand-back (or a raise) is offered afresh.
        again_pending = len(sim.scheduler)
        observed += [_run(sim, budget), _view(sim, nodes)]
        again = (sim._last_run_path, sim._last_decline)
    observed += [
        [(h.done, h.immediate, h.answered_at, h.answer) for h in handles],
        {x: node.probe_answer_steps for x, node in nodes.items()},
    ]
    raised = isinstance(outcome, tuple) and outcome[0] is ProtocolError
    handed_back = raised or any(not h.immediate for h in handles)
    return observed, (pending, ran, handed_back), (again_pending, again)


def _engine_said(pending, ran):
    """Check what the array-side engine reported for one offered run of a
    system that has run: the gate takes only a just-built one, so it
    declines as ``node-state`` (``no-c-loop`` without a C loop)."""
    if not pending:
        assert ran == ("legacy", "small-pool")
    else:
        assert ran == ("legacy", gate_says("node-state"))


def _cut_at_most_the_run(ran, cut):
    """The C seam's cut for a reference run cut at ``cut`` that returned
    ``ran``: a run that drained first (an int, its steps) is planted at its
    last step, where the C run stops suspended; a drained one resumes
    nothing."""
    return ran if isinstance(ran, int) else cut


def planted_in_the_loop(family, n, graph_seed, variant, policy, sched_seed, cut, plant):
    """``scenario``'s plant, made inside one C run: the reference run cut,
    planted and resumed on the object loop, against a just-built
    simulator whose ``run_loop`` stops at ``cut``, plants the message the
    reference got on the core's channels and calls the C loop again.
    Returns both runs' ``(outcome, view)`` and what the engine said about
    the planted one."""
    args = (family, n, graph_seed, variant, policy, sched_seed)
    graph, _net, ref, ref_nodes = _system(False, *args)
    budget = default_step_budget(graph)
    cut = _cut_at_most_the_run(_run(ref, cut), cut)
    planted = _plant(plant, ref_nodes)
    ref.transmit(*planted)
    reference = (_run(ref, budget), _view(ref, ref_nodes))
    _graph, _net, sim, nodes = _system(True, *args)
    recall = cut_and_recall(cut, lambda core, pool: plant_wire(core, *planted))
    with mock.patch.object(ArrayCore, "run_loop", recall):
        observed = (_run(sim, budget), _view(sim, nodes))
    return observed, reference, (sim._last_run_path, sim._last_decline)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(sorted(GRAPH_FAMILIES)),
    n=st.integers(8, 48),
    graph_seed=st.integers(0, 20),
    variant=st.sampled_from(VARIANTS),
    policy=st.sampled_from(sorted(SCHEDULERS)),
    sched_seed=st.integers(0, 20),
    cut=st.integers(1, 600),
    probes=st.lists(st.integers(0, 47), max_size=12),
    plant=st.sampled_from([None, *sorted(PLANTS)]),
)
def test_handed_back_runs_equal_the_reference(**case):
    observed, said, said_again = scenario(True, **case)
    reference, ref_said, _ = scenario(False, **case)
    assert observed == reference
    assert ref_said[1] == ("legacy", "fast-off")
    _engine_said(*said[:2])
    _engine_said(*said_again)


#: One pinned case per arm, so the property above cannot go vacuous: the
#: expected exception text fragment, ``None`` for the probe arms.
PINNED = {
    "probes": ("adhoc", None, None),
    "query": ("generic", "query", "queries only ever reach"),
    "merge-accept": ("generic", "merge-accept", "merge-accept in status"),
    "info": ("adhoc", "info", "info in status"),
    "release": ("generic", "release", "previous queue empty"),
    "search": ("bounded", "search", "termination was unsound"),
}


@pytest.mark.parametrize("arm", sorted(PINNED))
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_each_arm_is_really_handed_back(arm, policy):
    variant, plant, text = PINNED[arm]
    # Bounded leaders terminate only at the very end; the others are cut
    # mid-discovery (some nodes inactive, the pool still full).
    case = dict(
        family="sparse-random", n=32, graph_seed=1, variant=variant,
        policy=policy, sched_seed=3, cut=100_000 if arm == "search" else 150,
        probes=list(range(32)) if arm == "probes" else [], plant=plant,
    )
    observed, said, said_again = scenario(True, **case)
    reference, _, _ = scenario(False, **case)
    assert observed == reference
    outcome = observed[2]
    if text is None:
        answered = [stamp for _d, immediate, stamp, _a in observed[-2] if not immediate]
        assert len(answered) >= 8 and None not in answered
        assert isinstance(outcome, int)
    else:
        assert outcome[0] is ProtocolError and text in outcome[1]
        if array_engaged()[0] == "array":
            # ... and met inside one C run, the arm is handed back and the
            # reference raises the same from the materialized state.
            del case["probes"]
            seam, seam_reference, ran = planted_in_the_loop(**case)
            assert seam == seam_reference and seam[0] == outcome
            assert ran == ("array", "handed-back")
    assert said[2]  # the arm was met ...
    _engine_said(*said[:2])  # ... by the object loop: the system had run
    _engine_said(*said_again)


def test_pump_hands_back_with_the_inbox_live(monkeypatch):
    """A protocol-impossible message that reaches a node with deferred
    messages queues in its inbox, and the pump hands it back there
    (``RC_PUMP``): the one exit that leaves an inbox live, so the exit
    encoder writes that form too, and the reference's ``_pump`` resumes
    from it and raises.  Planted between two runs, the object loop meets
    it; planted inside one C run, the pump hands it back."""
    case = dict(
        family="community", n=32, graph_seed=1, variant="generic", policy="fifo",
        sched_seed=3, cut=100, plant="busy-info",
    )
    observed, said, _ = scenario(True, probes=[], **case)
    reference, _, _ = scenario(False, probes=[], **case)
    assert observed == reference
    assert observed[2][0] is ProtocolError and "info in status" in observed[2][1]
    _engine_said(*said[:2])
    if array_engaged()[0] == "legacy":
        return
    exits = []
    run_loop = ArrayCore.run_loop

    def spy(core, *args):
        try:
            return run_loop(core, *args)
        finally:
            exits.append((core.handback, [q for q in core.inbox if q is not None]))

    monkeypatch.setattr(ArrayCore, "run_loop", spy)
    seam, seam_reference, ran = planted_in_the_loop(**case)
    assert seam == seam_reference and seam[0] == observed[2]
    assert ran == ("array", "handed-back")
    pumped = [
        inbox for handback, inbox in exits
        if handback and handback[0] == arrayloop.RC_PUMP
    ]
    assert pumped and all(len(inbox) == 1 for inbox in pumped)


# ----------------------------------------------------------------------
# run_graph: a hand-back there is a raise path, executed on objects built
# for the purpose
# ----------------------------------------------------------------------
def planted_raise(arm, seed, monkeypatch):
    """One pinned raise arm against a from-graph run: returns ``(graph,
    variant, reference)`` -- ``reference`` the ``ProtocolError`` the object
    run raises when cut, planted and resumed -- with ``ArrayCore.run_loop``
    patched to make the same cut and plant inside its one call."""
    variant, plant, text = PINNED[arm]
    graph = build_family("sparse-random", 32, 1)
    cut = 100_000 if arm == "search" else 150

    sim, nodes = build_simulation(graph, variant, seed=seed, fast=False)
    cut = _cut_at_most_the_run(_run(sim, cut), cut)
    planted = _plant(plant, nodes)
    sim.transmit(*planted)
    with pytest.raises(ProtocolError, match=text) as reference:
        sim.run(default_step_budget(graph))

    recall = cut_and_recall(cut, lambda core, pool: plant_wire(core, *planted))
    monkeypatch.setattr(ArrayCore, "run_loop", recall)
    return graph, variant, reference.value


@pytest.mark.parametrize("arm", [*sorted(set(PINNED) - {"probes"}), "probe"])
@pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
def test_run_graph_raises_the_reference_text(arm, seed, monkeypatch):
    if array_engaged()[0] == "legacy":
        pytest.skip("no C loop in this process: run_graph is the reference run")
    if arm == "probe":
        # A probe is handed back (RC_DEOPT) like a raise arm; the
        # reference executes it, and run_graph, which answers no probes,
        # raises the direct entry's own text.
        graph = build_family("sparse-random", 32, 1)
        src, dst = graph.nodes[:2]
        plant = lambda core, pool: plant_wire(core, src, dst, Probe(src))  # noqa: E731
        monkeypatch.setattr(ArrayCore, "run_loop", cut_and_recall(150, plant))
        codes = []
        handback = arraystate._run_handback

        def spy(core, sim):
            codes.append(core.handback[0])
            return handback(core, sim)

        monkeypatch.setattr(arraystate, "_run_handback", spy)
        with pytest.raises(SimulationError, match="handed back a step the reference executes"):
            run_graph(graph, "adhoc", seed=seed)
        assert codes == [arrayloop.RC_DEOPT]
        return
    graph, variant, reference = planted_raise(arm, seed, monkeypatch)
    with pytest.raises(ProtocolError) as raised:
        run_graph(graph, variant, seed=seed)
    assert str(raised.value) == str(reference)


# ----------------------------------------------------------------------
# Exit order: every kind of exit writes back what it wrote before, frees
# what it built, and the caller's pool is the ring's while a call runs
# ----------------------------------------------------------------------
def _self_query(nodes):
    # an inactive node that queries itself answers itself: SimNode.send's
    # self-send error, raised from inside the C loop's query handler
    dst = _first(nodes, lambda node: node.status == "inactive")
    return dst, dst, Query(1)


#: exit kind -> (family, cut, plant): a Generic run that leaves a C call
#: that way (``cut`` ``None``: one call to quiescence; ``plant`` ``None``:
#: cut and called again with nothing planted, an ``RC_LIMIT`` re-call;
#: else ``(src, dst, message)`` from the nodes at the cut).
EXIT_CASES = {
    "drained": ("sparse-random", None, None),
    "limit": ("sparse-random", 150, None),
    "deopt": ("sparse-random", 150, lambda nodes: _plant("query", nodes)),
    "pump": ("community", 100, lambda nodes: _plant("busy-info", nodes)),
    "raise": ("sparse-random", 150, _self_query),
}


def _run_to_exit(fast, kind, policy, planted=None):
    """One run of ``kind``'s case on a just-built simulator: on the object
    loop, cut, planted (``transmit``) and run on; on the C loop, one run
    under :func:`_cut_at_exit`'s seam.  Returns ``(outcome, view,
    planted)``."""
    family, cut, plant = EXIT_CASES[kind]
    graph, _net, sim, nodes = _system(fast, family, 32, 1, "generic", policy, 3)
    budget = default_step_budget(graph)

    def run():
        try:
            return _run(sim, budget)
        except SimulationError as exc:
            return type(exc), str(exc)

    if fast or cut is None:
        return run(), _view(sim, nodes), planted
    _run(sim, cut)
    if plant is not None:
        planted = plant(nodes)
        sim.transmit(*planted)
    outcome = run()  # the C loop's one run counts the steps to the cut too
    outcome = outcome + cut if isinstance(outcome, int) else outcome
    return outcome, _view(sim, nodes), planted


def _cut_at_exit(kind, planted, monkeypatch):
    """``ArrayCore.run_loop`` cut at ``kind``'s cut and called again, with
    the reference's message (if any) planted at the seam."""
    cut = EXIT_CASES[kind][1]
    if cut is not None:
        between = (lambda core, pool: None) if planted is None else (
            lambda core, pool: plant_wire(core, *planted)
        )
        monkeypatch.setattr(ArrayCore, "run_loop", cut_and_recall(cut, between))


class TestExitOrder:
    """``_arrayloop.c``'s exits free the native scaffolding before the
    write-back allocates, and the caller's pool is emptied once the ring
    holds it: each exit kind still ends in the object run's state, pool
    and rng included, and leaves no allocation behind."""

    @pytest.fixture(autouse=True)
    def _needs_c_loop(self):
        if arrayloop.load() is None:
            pytest.skip("no C loop in this process: nothing exits the C loop")

    @pytest.mark.parametrize(
        "kind, policy",
        # seeded, the community case meets its stray info at a delivery
        [(k, p) for k in sorted(EXIT_CASES) for p in ("fifo", "random")
         if (k, p) != ("pump", "random")],
    )
    def test_each_exit_ends_in_the_object_runs_state(self, kind, policy, monkeypatch):
        reference = _run_to_exit(False, kind, policy)
        exits = []
        run_loop = ArrayCore.run_loop

        def spy(core, pool, *args):
            try:
                return run_loop(core, pool, *args)
            finally:
                exits.append(core.handback and core.handback[0])

        monkeypatch.setattr(ArrayCore, "run_loop", spy)
        _cut_at_exit(kind, reference[2], monkeypatch)
        observed = _run_to_exit(True, kind, policy, reference[2])
        assert observed == reference
        said = {"deopt": arrayloop.RC_DEOPT, "pump": arrayloop.RC_PUMP}.get(kind)
        assert exits == ([None] if kind == "drained" else [None, said])
        if kind == "raise":
            assert observed[0][0] is SimulationError
            assert "tried to message itself" in observed[0][1]

    @pytest.mark.parametrize("kind", sorted(EXIT_CASES))
    def test_repeated_exits_allocate_nothing_lasting(self, kind, monkeypatch):
        """Runs past the first two, which intern what stays, leave no
        traced byte behind.  Traced, not counted: a count of the
        interpreter's blocks also drops when some older object of the
        process goes meanwhile, which can offset a leak or fail a clean
        run."""
        planted = _run_to_exit(False, kind, "fifo")[2]
        _cut_at_exit(kind, planted, monkeypatch)
        for _ in range(2):
            _run_to_exit(True, kind, "fifo", planted)
        assert _traced_left(lambda: [_run_to_exit(True, kind, "fifo", planted)
                                     for _ in range(4)]) == 0

    @pytest.mark.parametrize("container", [list, deque])
    def test_a_failed_entry_leaves_the_pool_untouched(self, container):
        """A token naming no channel fails the entry after the pool was
        read: nothing was emptied, nothing written back."""
        core, wakes = _fresh_core(32)
        tokens = wakes + [0]  # channel 0 does not exist
        pool = container(tokens)
        cell = [0]
        with pytest.raises(ValueError, match="pool token 0"):
            arrayloop.load().run(core, pool, _FIFO, None, 10, cell)
        assert type(pool) is container and list(pool) == tokens
        assert cell == [0] and core.chanq == {} and len(core.chan_src) == 0

    @pytest.mark.parametrize("container", [list, deque])
    def test_a_core_that_has_run_is_refused(self, container):
        """A drained core holds no suspended run: called again, the entry
        refuses it before it reads or empties the pool, and nothing plants
        on it."""
        run = arrayloop.load().run
        core, tokens = _fresh_core(32)
        cell = [0]
        assert run(core, container(tokens), _FIFO, None, 1 << 20, cell) == (
            arrayloop.RC_DRAINED, -1
        )
        assert core.suspended is None
        pool, steps = container(tokens), cell[0]
        with pytest.raises(ValueError, match="has run and holds no suspended run"):
            run(core, pool, _FIFO, None, 1 << 20, cell)
        assert type(pool) is container and list(pool) == tokens and cell == [steps]
        with pytest.raises(ValueError, match="plant needs a run suspended"):
            arrayloop.load().plant(core, 0, 1, (0,))

    def test_a_suspended_run_resumes_only_its_own_call(self):
        run = arrayloop.load().run
        core, tokens = _fresh_core(32)
        pool, cell = list(tokens), [0]
        assert run(core, pool, _FIFO, None, 5, cell) == (arrayloop.RC_LIMIT, -1)
        with pytest.raises(ValueError, match="resumes on its own core, pool"):
            run(core, list(pool), _FIFO, None, 1 << 20, cell)
        assert core.suspended is not None and cell == [5]
        assert run(core, pool, _FIFO, None, 1 << 20, cell) == (arrayloop.RC_DRAINED, -1)

    def test_a_suspended_run_holds_its_pool_and_rng(self):
        """The capsule holds the pool and the rng the run resumes with, so
        no other object can take their place, not even a generator in the
        same state; it lets them go when the run resumes or is dropped."""
        run = arrayloop.load().run
        for ending in ("resumed", "dropped"):
            core, tokens = _fresh_core(32)
            pool, rng, cell = deque(tokens), random.Random(3), [0]
            assert run(core, pool, _RANDOM, rng, 5, cell) == (arrayloop.RC_LIMIT, -1)
            twin = random.Random()
            twin.setstate(rng.getstate())
            with pytest.raises(ValueError, match="resumes on its own core, pool, rng"):
                run(core, pool, _RANDOM, twin, 1 << 20, cell)
            held = weakref.ref(pool), weakref.ref(rng)
            del pool, rng
            assert None not in (held[0](), held[1]())
            if ending == "resumed":
                code = run(core, held[0](), _RANDOM, held[1](), 1 << 20, cell)[0]
                assert code == arrayloop.RC_DRAINED and core.suspended is None
            else:
                core.suspended = None
            assert held[0]() is None and held[1]() is None

    @pytest.mark.parametrize("ending", ["dropped", "resumed"])
    def test_a_suspended_run_leaves_nothing_traced(self, ending):
        """A run cut at its step limit keeps the C loop's PyMem tables on
        ``core.suspended``, and neither the core dropped nor the run
        resumed to its drain leaves a traced byte behind (the sanitizer
        legs run with leak detection off)."""
        run = arrayloop.load().run

        def cut_and_end(core, pool):
            cell = [0]
            assert run(core, pool, _FIFO, None, 300, cell)[0] == arrayloop.RC_LIMIT
            assert core.suspended is not None
            if ending == "resumed":
                assert run(core, pool, _FIFO, None, 1 << 20, cell)[0] == arrayloop.RC_DRAINED
                assert core.suspended is None

        cut_and_end(*_fresh_core(256))  # what a first run interns stays
        held = [_fresh_core(256)]
        assert _traced_left(lambda: cut_and_end(*held.pop())) == 0

    @pytest.mark.parametrize("route", ["graph", "simulator"])
    def test_a_quiescent_stop_is_one_call(self, route, monkeypatch):
        """A budget of exactly the run's steps stops the C loop at its last
        step, quiescent: ``run_loop`` returns from its one call."""
        module = arrayloop.load()
        graph = build_family("sparse-random", 32, 1)
        steps = run_graph(graph, "generic").steps
        calls = []
        run = module.run

        def spy(core, *args):
            calls.append(args[-2])  # stop
            return run(core, *args)

        monkeypatch.setattr(module, "run", spy)
        if route == "graph":
            assert run_graph(graph, "generic", max_steps=steps).steps == steps
        else:
            sim, _nodes = build_simulation(graph, "generic")
            assert sim.run(steps) == steps and sim.is_quiescent
        assert calls == [steps]


def _traced_left(work):
    """The bytes still traced after ``work()`` and a full collection,
    counting only what was allocated after tracing started.  The collection
    empties the object free lists; the gc callbacks hypothesis installs,
    which allocate, are off meanwhile."""
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.callbacks[:] = callbacks


def _fresh_core(n):
    """A core just built from a sparse graph of ``n`` nodes, and its wake
    tokens."""
    graph = build_family("sparse-random", n, 1)
    space = arraystate.IdSpace(graph.nodes)
    core = ArrayCore(space, 9)
    core.local = arraystate._fill_local(graph, space.ids, space.index)
    return core, [-1 - i for i in range(n)]
