"""Tests for the array-backed protocol core (``repro.core.arraystate``).

Seven layers:

* unit tests of the interning primitive (:class:`IdSpace`) against its
  object-path definitions (``sorted(..., key=repr)`` et al.);
* engagement: the array core takes over eligible runs
  (``sim._last_run_path == "array"`` whenever this process has a C loop)
  and declines -- simulator untouched, object loop proceeds,
  ``sim._last_decline`` naming the failed check -- for every entry of
  ``DECLINE_REASONS``, which lists the checks in the gate's order and
  names the rows of DESIGN.md's decline table;
* differential: :func:`run_graph` (the object-free million-node driver)
  reproduces the object path's steps, per-type stats and leader set for
  every variant under both FIFO and seeded-random scheduling;
* no C loop: with the loader's memo emptied the gate declines as
  ``no-c-loop`` and :func:`run_graph` runs the reference simulation,
  with identical results, including across a ``StepLimitExceeded``
  boundary;
* every-step cut: ``run(max_steps=k)`` on the C loop equals the object
  loop's for *every* k up to quiescence, on full per-node state, stats,
  channels, pool and limit text -- state equality after each delivery;
* the message seam: between C calls pending messages are wire tuples
  (``chanq`` maps a channel to its pending ones) -- runs interrupted
  mid-flight and resumed on the object loop, or cut and resumed on the
  same core, equal the uninterrupted object run, the exit encoder meets
  every form, and nothing leaks;
* the knowledge slabs: after every C exit the five knowledge sets are
  int32 slabs and a drained ``previous``/``inbox``/``deferred`` is
  ``None``.
"""

import copy
import functools
from array import array
import gc
import random
import re
import subprocess
import sys
from collections import Counter, deque
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop, arraystate
from repro.core.adhoc import AdhocNetwork
from repro.core.arraystate import (
    ArrayCore,
    IdSlab,
    IdSpace,
    _Ineligible,
    run_graph,
)
from repro.core.messages import MSG_TYPES, Probe
from repro.core.node import VARIANTS, DiscoveryNode, behavior_is_pristine
from repro.core.runner import build_simulation, default_step_budget
from repro.faults.plan import FaultInjector, FaultPlan
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.obs import Recorder
from repro.sim.network import Simulator, StepLimitExceeded
from repro.sim.scheduler import (
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)
from tests.conftest import array_engaged, cut_and_recall, gate_says

FAMILY = "sparse-random"
N = 32
GRAPH_SEED = 1


def _graph(n=N, seed=GRAPH_SEED):
    return build_family(FAMILY, n, seed)


def _object_outcome(variant="generic", *, seed=None, fast=True, n=N):
    graph = _graph(n)
    sim, nodes = build_simulation(graph, variant, seed=seed, fast=fast)
    steps = sim.run(default_step_budget(graph))
    return {
        "steps": steps,
        "messages": dict(sim.stats.messages_by_type),
        "bits": dict(sim.stats.bits_by_type),
        "leaders": sorted(x for x, node in nodes.items() if node.is_leader),
        "path": (sim._last_run_path, sim._last_decline),
    }


def _scale_outcome(variant="generic", *, seed=None, n=N):
    result = run_graph(_graph(n), variant, seed=seed)
    assert result.verified
    return {
        "steps": result.steps,
        "messages": dict(result.stats.messages_by_type),
        "bits": dict(result.stats.bits_by_type),
        "leaders": sorted(result.leaders),
    }


# ----------------------------------------------------------------------
# Interning and order primitives
# ----------------------------------------------------------------------
class TestIdSpace:
    def test_ranks_match_object_orders(self):
        ids = [5, 1, 12, 7, 103, 20]
        space = IdSpace(ids)
        by_repr = sorted(ids, key=repr)
        by_nat = sorted(ids)
        for i, x in enumerate(ids):
            assert space.repr_rank[i] == by_repr.index(x)
            assert space.nat_rank[i] == by_nat.index(x)
        assert [ids[i] for i in space.by_repr_rank] == by_repr
        assert space.index == {x: i for i, x in enumerate(ids)}

    def test_rejects_duplicate_reprs(self):
        class Blob:
            def __repr__(self):
                return "blob"

            def __lt__(self, other):
                return id(self) < id(other)

        with pytest.raises(_Ineligible, match="reprs are not unique") as err:
            IdSpace([Blob(), Blob()])
        assert err.value.reason == "id-order"

    def test_rejects_unorderable_ids(self):
        with pytest.raises(_Ineligible, match="not mutually orderable") as err:
            IdSpace([1, "a"])
        assert err.value.reason == "id-order"

    def test_rejects_equal_comparing_distinct_ids(self):
        # repr("1") != repr("1.0") but 1 < 1.0 is False both ways: the
        # natural order is not strict, so rank comparisons would invent
        # a tiebreak the object path's tuple comparison does not have.
        with pytest.raises(_Ineligible, match="not strictly totally ordered") as err:
            IdSpace([1, 1.0])
        assert err.value.reason == "id-order"


    def test_range_ids_rank_like_the_repr_sort(self):
        """Ids exactly ``0..n-1`` are ranked without strings (the C
        module's ``range_ranks`` where it loads): every n up to 3,000 and
        n = 10**5 give the repr sort's orders, the identity as the natural
        one."""
        top = 3000
        order = sorted(range(top), key=repr)
        for n in list(range(1, top + 1)) + [10**5]:
            if n > top:
                top, order = n, sorted(range(n), key=repr)
            space = IdSpace(range(n))
            by, rank = space.by_repr_rank.tolist(), space.repr_rank.tolist()
            assert by == list(filter(n.__gt__, order)), n
            assert list(map(rank.__getitem__, by)) == list(range(n)), n
            assert space.nat_rank.tolist() == list(range(n)), n

    @pytest.mark.parametrize(
        "ids",
        [
            [0, 1.0, 2],
            [0, 1, 3],
            [0, True, 2],
            [0, 1, 2**70],
            random.Random(4).sample(range(40), 40),
            [str(i) for i in range(12)],
            [0, 2, 1],
            [0.0, 1.0],
        ],
        ids=[
            "a-float", "a-gap", "a-bool", "a-bignum", "shuffled", "digit-strings",
            "out-of-order", "floats",
        ],
    )
    def test_near_range_ids_take_the_sort(self, ids):
        module = arrayloop.load()
        if module is not None:
            columns = [array("i", bytes(4 * len(ids))) for _ in range(3)]
            assert module.range_ranks(ids, *columns) is False
            assert columns == [array("i", bytes(4 * len(ids)))] * 3  # untouched
        space = IdSpace(ids)
        by_repr, by_nat = sorted(ids, key=repr), sorted(ids)
        assert [ids[i] for i in space.by_repr_rank] == by_repr
        assert list(space.repr_rank) == [by_repr.index(x) for x in ids]
        assert list(space.nat_rank) == [by_nat.index(x) for x in ids]
        assert type(space.index) is dict
        assert space.index == {x: i for i, x in enumerate(ids)}

    def test_a_bool_beside_its_int_is_no_range(self):
        """``[True, 1]``: not exact ints, so the sort, which finds the two
        equal."""
        module = arrayloop.load()
        if module is not None:
            assert module.range_ranks([True, 1], *[array("i", [0, 0])] * 3) is False
        with pytest.raises(_Ineligible, match="not strictly totally ordered"):
            IdSpace([True, 1])

    @pytest.mark.parametrize("n", [1, 2, 11, 300])
    def test_range_ids_index_themselves(self, n):
        """Where ``range_ranks`` takes the ids the index is the identity,
        and every key -- in range or not, an int or not -- gets the dict's
        answer or the dict's error."""
        space = IdSpace(range(n))
        reference = {x: i for i, x in enumerate(range(n))}
        index = space.index
        if arrayloop.load() is None:
            assert type(index) is dict
        else:
            assert type(index) is arraystate.IdentityIndex
        assert len(index) == n and list(index) == list(reference)
        assert index == reference and dict(index.items()) == reference
        for key in [0, n - 1, n // 2, -1, n, 2**70, -(2**70), True, False, 1.0,
                    0.0, "0", None, (0,)]:
            want = reference.get(key, KeyError)
            if want is KeyError:
                with pytest.raises(KeyError) as err:
                    index[key]
                assert err.value.args == (key,)
                assert key not in index
            else:
                assert index[key] == want and type(index[key]) is int
                assert key in index
        with pytest.raises(TypeError):
            index[[0]]


# ----------------------------------------------------------------------
# Engagement and decline
# ----------------------------------------------------------------------
@functools.total_ordering
class _Anon:
    """Ids that are totally ordered but all print alike: the object loop
    breaks repr ties by ``<``, the array core cannot rank them."""

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        return "anon"

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __hash__(self):
        return hash(self.key)


class _SubSimulator(Simulator):
    pass


class _SubFifo(GlobalFifoScheduler):
    pass


class _SubProbe(Probe):
    pass


class _SubRandom(random.Random):
    pass


#: gate name -> the triggers :func:`_declining_system` builds for it:
#: ``patched`` has one per kind of monkeypatch; ``node-state`` one per way
#: a system is not just built -- a node past its initial state, state
#: naming an id outside the system, a message in flight (a subclassed
#: one, ``message-type``, or a stock one), a run resumed after a cut, and
#: a node added after a warmup run.
TRIGGERS = {reason: (reason,) for reason in arraystate.DECLINE_REASONS}
TRIGGERS["patched"] = (
    "simulator-subclass",
    "wrapped-simulator",
    "patched-node-class",
    "wrapped-node",
)
TRIGGERS["node-state"] = (
    "node-state", "unknown-id", "message-type", "in-flight", "resumed", "grown",
    "delivered",
)
GATE_CASES = [(reason, t) for reason, triggers in TRIGGERS.items() for t in triggers]


def _declining_system(*triggers, fast):
    """A 24-node system that passes every gate check before the failing
    ones and fails each of ``triggers`` (``patched-node-class`` and
    ``no-c-loop`` are the caller's patches)."""
    graph = _graph(24)
    kwargs = {"seed": 5, "fast": fast}
    if "fast-off" in triggers:
        kwargs["fast"] = False
    if "faults" in triggers:
        kwargs["faults"] = FaultInjector(FaultPlan(), seed=0)
    if "recorder" in triggers:
        kwargs["obs"] = Recorder()
    if "trace" in triggers:
        kwargs["keep_trace"] = True
    if "channel-discipline" in triggers:
        kwargs["channel_discipline"] = "random"
    if "scheduler" in triggers:
        kwargs["scheduler"] = _SubFifo()
    if "small-pool" in triggers:
        kwargs["auto_wake"] = False
    if "node-type" in triggers:
        kwargs["reliable"] = True
    if "id-order" in triggers:
        graph = KnowledgeGraph(
            [_Anon(x) for x in graph.nodes],
            [(_Anon(u), _Anon(v)) for u, v in graph.edges()],
        )
    sim, nodes = build_simulation(graph, "generic", **kwargs)
    first, second = graph.nodes[:2]
    if "simulator-subclass" in triggers:
        sim.__class__ = _SubSimulator
    if "wrapped-simulator" in triggers:
        sim.transmit = sim.transmit
    if "small-pool" in triggers:
        sim.schedule_wake(first)
    if "wrapped-node" in triggers:
        nodes[first].on_message = nodes[first].on_message
    if "node-state" in triggers:
        nodes[first]._restarted = True
    if "unknown-id" in triggers:
        nodes[first].local.add(999)  # the object loop raises on the send
    if "message-type" in triggers:
        sim.transmit(first, second, _SubProbe(first))
    if "in-flight" in triggers:
        sim.transmit(first, second, Probe(first))
    if "resumed" in triggers:
        with pytest.raises(StepLimitExceeded):
            sim.run(5)
    if "grown" in triggers:
        sim.run()
        new = max(graph.nodes) + 1
        sim.add_node(DiscoveryNode(new, frozenset({first}), variant="generic"))
        sim.schedule_wake(new)
    if "delivered" in triggers:
        # Every message sent and delivered: no channel is left to see.
        sim.run()
        assert sim.stats.total_messages > 0 and not sim._channels
        sim.schedule_wake(first)
    if "token-type" in triggers:
        sim.schedule_timer(first, 3)
    return sim, nodes


def _gate_view(sim, nodes):
    """``_snapshot`` plus what only a declined offer must leave alone."""
    rng = getattr(sim.scheduler, "_rng", None)
    return (
        _snapshot(sim, nodes),
        sim.protocol_stamp,
        rng and rng.getstate(),
        sim._channel_rng.getstate(),
    )


def _run_outcome(sim):
    try:
        return sim.run(10_000)
    except Exception as exc:  # compared, not swallowed: both engines or neither
        return type(exc), str(exc)


class TestEngagement:
    def test_array_path_engages_on_stock_run(self):
        graph = _graph(48)
        sim, nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert (sim._last_run_path, sim._last_decline) == array_engaged()
        assert sim.is_quiescent
        assert any(node.is_leader for node in nodes.values())

    def test_empty_pool_declines_to_object_loop(self):
        graph = _graph(48)
        sim, _nodes = build_simulation(graph, "generic")
        sim.run(default_step_budget(graph))
        assert (sim._last_run_path, sim._last_decline) == array_engaged()
        sim.run()  # nothing pending: the array core declines (pool << n)
        assert (sim._last_run_path, sim._last_decline) == ("legacy", "small-pool")

    def test_small_pool_declines(self):
        # Waking 2 of 48 nodes leaves the pool far below the engagement
        # threshold; the object loop must run the whole thing.
        graph = _graph(48)
        sim, _nodes = build_simulation(graph, "generic", auto_wake=False)
        for node_id in list(graph.nodes)[:2]:
            sim.schedule_wake(node_id)
        sim.run(default_step_budget(graph))
        assert (sim._last_run_path, sim._last_decline) == ("legacy", "small-pool")

    def test_monkeypatched_node_class_declines(self, monkeypatch):
        # The finding-regression suites monkeypatch DiscoveryNode methods
        # to reproduce historical bugs; the inlined array state machine
        # cannot honour a patched method, so it must stand down.
        calls = []
        orig = DiscoveryNode.on_wake

        def traced(self):
            calls.append(self.node_id)
            return orig(self)

        pristine = _object_outcome()
        monkeypatch.setattr(DiscoveryNode, "on_wake", traced)
        assert not behavior_is_pristine()
        patched = _object_outcome()
        assert patched["path"] == ("legacy", "patched")
        assert calls  # the patch actually took effect
        patched.pop("path")
        pristine.pop("path")
        assert patched == pristine

    @pytest.mark.parametrize(
        "reason,trigger", GATE_CASES, ids=[trigger for _, trigger in GATE_CASES]
    )
    def test_declined_offer_touches_nothing(self, reason, trigger, monkeypatch):
        if trigger == "patched-node-class":
            on_wake = DiscoveryNode.on_wake
            monkeypatch.setattr(DiscoveryNode, "on_wake", lambda node: on_wake(node))
        elif trigger == "no-c-loop":
            monkeypatch.setattr(arrayloop, "_module", None)
        elif trigger in ("grown", "delivered"):
            # one wake token: below the pool threshold
            monkeypatch.setattr(arraystate, "_MIN_POOL_FACTOR", 1 << 30)
        named = gate_says(reason)
        sim, nodes = _declining_system(trigger, fast=True)
        before = copy.deepcopy(_gate_view(sim, nodes))
        assert arraystate.maybe_run_array(sim, None) is None
        assert (sim._last_run_path, sim._last_decline) == ("legacy", named)
        assert _gate_view(sim, nodes) == before
        # ... and the run it was declined for equals the reference run
        # (built alike, warmup included: the engines bump protocol_stamp
        # at different steps).
        ref, ref_nodes = _declining_system(trigger, fast=True)
        ref.fast = False
        assert _run_outcome(sim) == _run_outcome(ref)
        assert (sim._last_decline, ref._last_decline) == (named, "fast-off")
        assert sim.steps > 0
        assert _gate_view(sim, nodes) == _gate_view(ref, ref_nodes)

    @pytest.mark.parametrize(
        "reason,spoil",
        [
            # An empty inbox is a shared tuple: plant a one-entry deque.
            (
                "node-state",
                lambda sim, a, b: setattr(sim.nodes[a], "_inbox", deque([(b, Probe(b))])),
            ),
            ("node-state", lambda sim, a, b: setattr(sim.nodes[a], "status", "bogus")),
            ("node-state", lambda sim, a, b: setattr(sim.nodes[a], "local", None)),
            ("node-state", lambda sim, a, b: sim.transmit(a, b, Probe(999))),
            # The C loop replays the stdlib generator's draws and nobody else's.
            ("scheduler", lambda sim, a, b: setattr(sim.scheduler, "_rng", _SubRandom(5))),
            # ... and calls no getrandbits, so a spy on one would miss them.
            (
                "scheduler",
                lambda sim, a, b: setattr(
                    sim.scheduler._rng, "getrandbits", sim.scheduler._rng.getrandbits
                ),
            ),
        ],
        ids=["inbox", "status", "uninternable", "payload", "rng", "rng-getrandbits"],
    )
    def test_remaining_ineligible_sites_name_their_reason(self, reason, spoil):
        # The raise sites that share a name with one reached above.
        sim, nodes = _declining_system(fast=True)  # eligible as built
        spoil(sim, *list(nodes)[:2])
        before = copy.deepcopy(_gate_view(sim, nodes))
        assert arraystate.maybe_run_array(sim, None) is None
        assert sim._last_decline == gate_says(reason)
        assert _gate_view(sim, nodes) == before

    def test_two_failures_name_the_check_listed_first(self):
        # Wrapper nodes whose ids share one repr fail two checks; the one
        # the tuple lists first names the run.
        sim, nodes = _declining_system("node-type", "id-order", fast=True)
        before = copy.deepcopy(_gate_view(sim, nodes))
        assert arraystate.maybe_run_array(sim, None) is None
        order = arraystate.DECLINE_REASONS
        assert sim._last_decline == gate_says(min("node-type", "id-order", key=order.index))
        assert _gate_view(sim, nodes) == before


def test_design_decline_table_is_the_tuple():
    text = (Path(__file__).resolve().parents[1] / "DESIGN.md").read_text()
    table = re.search(
        r"^\| `DECLINE_REASONS` \|.*\n\|---\|---\|\n((?:\|.*\n)+)", text, re.M
    )
    names = re.findall(r"^\| `([^`]+)` \|", table.group(1), re.M)
    assert tuple(names) == arraystate.DECLINE_REASONS
    # ``patched`` is reached once per kind of monkeypatch it stands for
    assert TRIGGERS["patched"] == (
        "simulator-subclass", "wrapped-simulator", "patched-node-class", "wrapped-node",
    )


# ----------------------------------------------------------------------
# run_graph vs the object path
# ----------------------------------------------------------------------
class TestRunGraphDifferential:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    def test_matches_object_path(self, variant, seed):
        scale = _scale_outcome(variant, seed=seed)
        obj = _object_outcome(variant, seed=seed)
        obj.pop("path")
        assert scale == obj

    def test_matches_legacy_loop(self):
        # Triangulation: the object loop, the simulator-backed array
        # core and the graph driver all agree on one seeded workload.
        legacy = _object_outcome("generic", seed=3, fast=False)
        assert legacy.pop("path") == ("legacy", "fast-off")
        assert _scale_outcome("generic", seed=3) == legacy

    def test_patched_node_class_takes_the_reference(self, monkeypatch):
        # run_graph declines what offer_graph declines: a spy set on the
        # class sees every wake-up, and the result is the fast=False one.
        reference = _object_outcome("generic", seed=3, fast=False, n=64)
        assert reference.pop("path") == ("legacy", "fast-off")
        calls = []
        on_wake = DiscoveryNode.on_wake

        def spy(node):
            calls.append(node.node_id)
            return on_wake(node)

        monkeypatch.setattr(DiscoveryNode, "on_wake", spy)
        assert _scale_outcome("generic", seed=3, n=64) == reference
        assert sorted(calls) == sorted(_graph(64).nodes)

    def test_step_limit_raises_with_in_flight_count(self):
        graph = _graph()
        full = run_graph(graph, "generic")
        with pytest.raises(StepLimitExceeded, match="in flight"):
            run_graph(graph, "generic", max_steps=full.steps // 2)


# ----------------------------------------------------------------------
# Step-limit boundary and resumption through the array path
# ----------------------------------------------------------------------
class TestStepLimitAndResume:
    def _drive(self, fast):
        graph = _graph(48)
        sim, nodes = build_simulation(graph, "generic", fast=fast)
        probe, _ = build_simulation(graph, "generic", fast=fast)
        total = probe.run(default_step_budget(graph))
        cut = total // 2
        with pytest.raises(StepLimitExceeded):
            sim.run(cut)
        assert sim.steps == cut
        first_path = sim._last_run_path
        sim.run(default_step_budget(graph))  # resume to quiescence
        return (
            sim.steps,
            dict(sim.stats.messages_by_type),
            dict(sim.stats.bits_by_type),
            sorted(x for x, node in nodes.items() if node.is_leader),
        ), first_path

    def test_interrupted_run_resumes_to_identical_state(self):
        fast_final, fast_path = self._drive(fast=True)
        legacy_final, legacy_path = self._drive(fast=False)
        assert fast_path == array_engaged()[0]
        assert legacy_path == "legacy"
        assert fast_final == legacy_final


class TestProtocolStampParity:
    """``sim.protocol_stamp`` moves as the object loop moves it -- one per
    node woken, one per message delivered -- whichever engine ran: after a
    5-step cut (the C run's exit) and after the object loop finished the
    resumed run, and for runs the C loop drains."""

    @staticmethod
    def _stamps(fast, scheduler, variant, cut):
        graph = _graph(24)
        sim, _nodes = build_simulation(
            graph, variant, scheduler=scheduler(), fast=fast
        )
        stamps = []
        if cut is not None:
            with pytest.raises(StepLimitExceeded):
                sim.run(cut)
            stamps.append((sim.steps, sim.protocol_stamp))
        sim.run(default_step_budget(graph))
        stamps.append((sim.steps, sim.protocol_stamp))
        return stamps, sim._last_run_path

    @pytest.mark.parametrize("cut", [None, 5], ids=["drained", "cut-5"])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize(
        "scheduler",
        [GlobalFifoScheduler, LifoScheduler, lambda: RandomScheduler(3)],
        ids=["fifo", "lifo", "seeded"],
    )
    def test_equal_to_the_object_loop(self, scheduler, variant, cut):
        fast, path = self._stamps(True, scheduler, variant, cut)
        assert path == (array_engaged()[0] if cut is None else "legacy")
        assert fast == self._stamps(False, scheduler, variant, cut)[0]


# ----------------------------------------------------------------------
# Probes met by an array run are handed back and carry the object path's
# stamps
# ----------------------------------------------------------------------
class TestProbeAnswerStamps:
    def _drive(self, fast, seed):
        graph = _graph(48)
        net = AdhocNetwork(graph, seed=seed, fast=fast)
        sim = net.sim
        with pytest.raises(StepLimitExceeded):
            net.run(max_steps=200)
        first = (sim._last_run_path, sim._last_decline)
        # Mid-discovery, with the pool still full: a system that has run
        # is the object loop's, which answers every probe.
        handles = [
            net.probe_async(x) for x in graph.nodes if net.can_probe(x)
        ]
        assert sum(not h.immediate for h in handles) >= 8
        net.run()
        assert all(h.done for h in handles)
        return (
            first,
            (sim._last_run_path, sim._last_decline),
            [h.answered_at for h in handles],
            {x: (n.probe_results, n.probe_answer_steps) for x, n in net.nodes.items()},
        )

    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    @pytest.mark.parametrize("compiled", [True, False], ids=["c-loop", "py-loop"])
    def test_stamps_match_object_path(self, seed, compiled, monkeypatch):
        # "py-loop" (an id the suite's floor list pins) is the process
        # without a C loop.
        if not compiled:
            monkeypatch.setattr(arrayloop, "_module", None)
        first, resumed, stamps, per_node = self._drive(True, seed)
        assert first == array_engaged()
        assert resumed == ("legacy", gate_says("node-state"))
        assert sum(stamp is not None for stamp in stamps) >= 8
        reference = ("legacy", "fast-off")
        assert self._drive(False, seed) == (reference, reference, stamps, per_node)


# ----------------------------------------------------------------------
# C loop vs the process without one (run_graph's object fallback)
# ----------------------------------------------------------------------
class TestCompiledLoop:
    def _pure_python(self, monkeypatch):
        # load() is memoized on _module; anything not the unset sentinel
        # is returned as-is, so this pins run_graph's object fallback.
        monkeypatch.setattr(arrayloop, "_module", None)

    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    def test_loops_identical(self, seed, monkeypatch):
        compiled = _scale_outcome("generic", seed=seed)
        self._pure_python(monkeypatch)
        assert arrayloop.load() is None
        assert _scale_outcome("generic", seed=seed) == compiled

    def test_loops_identical_across_limit_boundary(self, monkeypatch):
        # The cell protocol: the absolute step count must survive the C
        # boundary on every exit, including the raising one, and the
        # limit text is the object loop's.
        graph = _graph(48)
        full = run_graph(graph, "generic")
        cut = full.steps // 2

        def interrupted():
            with pytest.raises(StepLimitExceeded) as err:
                run_graph(graph, "generic", max_steps=cut)
            return str(err.value)

        compiled_msg = interrupted()
        self._pure_python(monkeypatch)
        assert interrupted() == compiled_msg

    def test_built_package_ships_the_c_source(self, tmp_path):
        # The loader compiles ``_arrayloop.c`` from beside ``arrayloop.py``;
        # a built copy without it runs every discovery on the object loop.
        subprocess.run(
            [
                sys.executable, "setup.py", "-q",
                "egg_info", "--egg-base", str(tmp_path),  # not into src/
                "build", "--build-lib", str(tmp_path / "lib"),
                "--build-temp", str(tmp_path / "tmp"),
            ],
            cwd=Path(__file__).resolve().parents[1],
            check=True,
            capture_output=True,
            timeout=300,
        )
        built = tmp_path / "lib" / "repro" / "core"
        assert (built / "arrayloop.py").is_file()
        assert (built / "_arrayloop.c").read_bytes() == arrayloop._SOURCE.read_bytes()


# ----------------------------------------------------------------------
# Lazy channel arena: None / wire tuple / deque slots across engines
# ----------------------------------------------------------------------
SCHEDULERS = {
    "fifo": GlobalFifoScheduler,
    "lifo": LifoScheduler,
    "random": lambda: RandomScheduler(seed=7),
}

#: (engine before the cut, engine after it).  "c" is the array core, "py"
#: (an id the suite's floor list pins) the same offer in a process
#: without a C loop -- declined as ``no-c-loop`` -- and "obj" the object
#: loop asked for by name (``fast=False``).  The array core takes only a
#: system that has not run, so a second "c" leg declines as ``node-state``.
HANDOFFS = [("c", "py"), ("py", "c"), ("c", "obj"), ("obj", "c"), ("obj", "py")]

_NODE_FIELDS = (
    "status", "awake", "next", "phase", "local", "done", "more", "unaware",
    "unexplored", "previous", "probe_previous", "probe_results", "_inbox",
    "_deferred", "_awaiting_release", "_awaiting_query_from",
    "_awaiting_info", "_expect_stale_release", "_probe_outstanding",
)
_node_fields = attrgetter(*_NODE_FIELDS)


def _snapshot(sim, nodes):
    """Everything two executions of one schedule can be compared on."""
    channels = sim._channels
    assert all(type(q) is deque for q in channels.values())
    assert sim.in_flight() == sum(len(q) for q in channels.values())
    return {
        "steps": sim.steps,
        "trace": None if sim.trace is None else sim.trace.fingerprint(),
        "messages": list(sim.stats.messages_by_type.items()),
        "bits": list(sim.stats.bits_by_type.items()),
        "leaders": sorted(x for x, node in nodes.items() if node.is_leader),
        "nodes": {
            # ``inner``: the protocol node behind a transport wrapper.
            x: dict(zip(_NODE_FIELDS, _node_fields(getattr(node, "inner", node))))
            for x, node in nodes.items()
        },
        "channels": {key: list(q) for key, q in channels.items()},
        "backlog": {key: sim.channel_backlog(*key) for key in channels},
        "in_flight": sim.in_flight(),
        # Timer tokens compare by identity; their fields are what matters.
        # Every token is a slotted dataclass of ids, ints, strs and bools,
        # so its slots are ``astuple`` without the deep copy.
        "pool": [
            (type(t), tuple(getattr(t, f) for f in t.__slots__))
            for t in sim.scheduler.pending()
        ],
    }


#: The message forms a step-limit exit can leave live, as :func:`live_forms`
#: names them.  An inbox is live only at an ``RC_PUMP`` exit (a pump that
#: does not hand back drains it), which ``test_handback`` pins.
EXIT_FORMS = frozenset({"channel>=2", "previous", "deferred", "info", "query-reply"})


def live_forms(core):
    """The message forms live on ``core`` between C calls: a channel with
    two or more pending, a non-empty ``previous``/``inbox``/``deferred``
    slot, and an ``info`` or ``query-reply`` wire anywhere."""
    chanq = core.chanq
    wires = [w for ws in chanq.values() for w in ws]
    live = {"channel>=2": any(len(ws) >= 2 for ws in chanq.values())}
    for name, at in (("previous", 0), ("inbox", 1), ("deferred", 1)):
        queues = [q for q in getattr(core, name) if q is not None]
        live[name] = bool(queues)
        wires += [pair[at] for q in queues for pair in q]
    tags = {MSG_TYPES[w[0]] for w in wires}
    live["info"] = "info" in tags
    live["query-reply"] = "query-reply" in tags
    return {form for form, on in live.items() if on}


class TestChannelSlotForms:
    @pytest.fixture(autouse=True)
    def _always_engage(self, monkeypatch):
        # A resumed run's pool is often below the engagement threshold;
        # every non-empty pool must reach the array core here.
        monkeypatch.setattr(arraystate, "_MIN_POOL_FACTOR", 1 << 30)
        # ``None`` under REPRO_PURE_PYTHON or without a compiler: the "c"
        # engine then degenerates to "py", still a valid run.
        self.c_module = arrayloop.load()

    @pytest.fixture
    def arena_forms(self, monkeypatch):
        """Pending count of every channel at each array-run exit, before
        the materializer hands the messages back to the simulator."""
        seen = []
        materialize = arraystate._materialize_to_sim

        def spy(core, sim, pool, mode):
            chanq = core.chanq
            seen.append([len(chanq.get(cid, ())) for cid in range(len(core.chan_src))])
            materialize(core, sim, pool, mode)

        monkeypatch.setattr(arraystate, "_materialize_to_sim", spy)
        return seen

    @pytest.fixture
    def exits(self, monkeypatch):
        """The :func:`live_forms` each C call's exit left."""
        seen = []
        run_loop = ArrayCore.run_loop

        def spy(core, *args):
            try:
                return run_loop(core, *args)
            finally:
                seen.append(live_forms(core))

        monkeypatch.setattr(ArrayCore, "run_loop", spy)
        return seen

    def _leg(self, sim, engine, max_steps, monkeypatch):
        """Run ``sim`` on ``engine``; returns the StepLimitExceeded text
        (``None`` at quiescence)."""
        resumed = sim.steps > 0
        sim.fast = engine != "obj"
        monkeypatch.setattr(
            arrayloop, "_module", self.c_module if engine == "c" else None
        )
        try:
            sim.run(max_steps)
        except StepLimitExceeded as exc:
            message = str(exc)
        else:
            message = None
        ran = (sim._last_run_path, sim._last_decline)
        if engine == "obj":
            assert ran == ("legacy", "fast-off")
        elif resumed:
            assert ran == ("legacy", gate_says("node-state"))
        else:
            assert ran == array_engaged()
        return message

    def _build(self, variant, policy):
        graph = _graph()
        sim, nodes = build_simulation(
            graph, variant, scheduler=SCHEDULERS[policy](), fast=False
        )
        return sim, nodes, default_step_budget(graph)

    @pytest.mark.parametrize("first,second", HANDOFFS)
    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_interrupted_runs_equal_the_object_run(
        self, variant, policy, first, second, monkeypatch
    ):
        ref, ref_nodes, budget = self._build(variant, policy)
        assert self._leg(ref, "obj", budget, monkeypatch) is None
        final = _snapshot(ref, ref_nodes)
        total = ref.steps
        # The arena is what the cuts are for: ten where the C loop runs a
        # leg, three where both legs are the object loop under two names.
        eighths = range(1, 8) if "c" in (first, second) else (4,)
        for cut in sorted({1, 2, *(total * k // 8 for k in eighths), total - 1}):
            ref, ref_nodes, _ = self._build(variant, policy)
            ref_message = self._leg(ref, "obj", cut, monkeypatch)
            sim, nodes, _ = self._build(variant, policy)
            assert self._leg(sim, first, cut, monkeypatch) == ref_message
            assert ref_message is not None and "in flight" in ref_message
            assert _snapshot(sim, nodes) == _snapshot(ref, ref_nodes), cut
            assert self._leg(sim, second, budget, monkeypatch) is None
            assert _snapshot(sim, nodes) == final, cut

    @pytest.fixture
    def needs_arena(self):
        if self.c_module is None:
            pytest.skip("no C loop in this process: no run builds an arena")

    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_adoption_hands_the_decoder_every_form(
        self, policy, needs_arena, exits, monkeypatch
    ):
        """C runs cut every third step, each resumed on the same core, in
        all three variants: every run ends where the object run does, and
        the cuts' exits left every form an exit can encode."""
        for variant in VARIANTS:
            ref, ref_nodes, budget = self._build(variant, policy)
            self._leg(ref, "obj", budget, monkeypatch)
            final = _snapshot(ref, ref_nodes)
            for cut in range(3, ref.steps, 3):
                sim, nodes, _ = self._build(variant, policy)
                with mock.patch.object(ArrayCore, "run_loop", cut_and_recall(cut)):
                    self._leg(sim, "c", budget, monkeypatch)
                assert _snapshot(sim, nodes) == final, cut
        # ``exits`` sees each core as the cut left it and as it ended
        left = Counter(f for forms in exits for f in forms)
        assert all(left[f] > 0 for f in EXIT_FORMS), left

    @pytest.mark.parametrize("engine", ["c"])  # the id the floor list pins
    def test_all_three_slot_forms_occur_mid_run(
        self, engine, needs_arena, arena_forms, monkeypatch
    ):
        """Exits where idle channels, channels holding one message and
        channels holding several coexist, each counted in the limit text."""
        ref, _nodes, budget = self._build("generic", "random")
        self._leg(ref, "obj", budget, monkeypatch)
        mixed = 0
        for cut in range(8, ref.steps, 8):
            ref, _nodes, _ = self._build("generic", "random")
            ref_message = self._leg(ref, "obj", cut, monkeypatch)
            sim, _nodes, _ = self._build("generic", "random")
            message = self._leg(sim, engine, cut, monkeypatch)
            pending = arena_forms[-1]
            if {0, 1} <= set(pending) and max(pending) >= 2:
                assert message == ref_message
                assert f"{ref.in_flight()} messages still in flight" in message
                mixed += 1
        assert mixed >= 3

    def test_adopted_base_channels_are_nonempty_deques(self, needs_arena, monkeypatch):
        ref, _nodes, budget = self._build("generic", "random")
        cut = _object_outcome("generic", seed=7, fast=False)["steps"] // 2
        self._leg(ref, "obj", cut, monkeypatch)
        pending = {key: list(q) for key, q in ref._channels.items() if q}
        assert len(pending) >= 2
        handed = []

        def read(core, _pool):
            ids, src, dst = core.ids, core.chan_src, core.chan_dst
            handed.append({
                (ids[src[cid]], ids[dst[cid]]): [arraystate._to_message(w, ids) for w in wires]
                for cid, wires in core.chanq.items()
            })

        sim, _nodes, _ = self._build("generic", "random")
        with mock.patch.object(ArrayCore, "run_loop", cut_and_recall(cut, read)):
            self._leg(sim, "c", budget, monkeypatch)
        # The call after the cut was handed exactly the object run's
        # pending messages at the cut, as wires by channel id.
        assert handed == [pending]
        # A C run that stops at the cut hands them back as the object run
        # holds them there, every channel a non-empty deque.  The table's
        # order is channel-id order, not the object run's creation order;
        # nothing reads ``_channels`` in order.
        cut_sim, _nodes, _ = self._build("generic", "random")
        self._leg(cut_sim, "c", cut, monkeypatch)
        assert {key: list(q) for key, q in cut_sim._channels.items()} == pending
        assert all(type(q) is deque and q for q in cut_sim._channels.values())

    def test_slots_at_quiescence_hold_nothing(self, needs_arena, monkeypatch):
        captured = []
        run_loop = ArrayCore.run_loop

        def spy(core, *args):
            captured.append(core)
            return run_loop(core, *args)

        monkeypatch.setattr(ArrayCore, "run_loop", spy)
        for seed in (None, 3):
            run_graph(_graph(256), "generic", seed=seed)
            core = captured[-1]
            assert core.chanq == {}
            assert core.chan_src.typecode == core.chan_dst.typecode == "i"
            assert len(core.chan_src) == len(core.chan_dst) > 0
            assert not live_forms(core)
            for name in ("previous", "inbox", "deferred"):
                assert all(q is None for q in getattr(core, name)), name


class TestKnowledgeSlabs:
    """Between C calls the five knowledge sets are int32 slabs -- no
    per-node Python object -- and a ``previous``/``inbox``/``deferred``
    container the loop drained is back to ``None``."""

    @pytest.mark.parametrize("limited", [False, True], ids=["drained", "limit"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_exit_leaves_slabs(self, variant, limited, monkeypatch):
        if arrayloop.load() is None:
            pytest.skip("no C loop in this process")
        cores = []
        run_loop = ArrayCore.run_loop

        def spy(core, *args):
            try:
                return run_loop(core, *args)
            finally:
                cores.append(core)

        monkeypatch.setattr(ArrayCore, "run_loop", spy)
        graph = _graph(256)
        steps = run_graph(graph, variant, seed=3).steps
        if limited:
            with pytest.raises(StepLimitExceeded):
                run_graph(graph, variant, seed=3, max_steps=steps // 2)
        core = cores[-1]
        for name in ("local", "more", "done", "unaware", "unexp"):
            slab = getattr(core, name)
            assert type(slab) is IdSlab, name
            assert slab.off.typecode == slab.mem.typecode == "i"
            assert len(slab.off) == core.n + 1 and slab.off[-1] == len(slab.mem)
            assert all(0 <= x < core.n for x in slab.mem)
        containers = [c for name in ("previous", "inbox", "deferred")
                      for c in getattr(core, name) if c is not None]
        assert all(containers)
        if not limited:
            assert not containers


    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_refused_entry_materializes_the_fresh_sets(self, variant, monkeypatch):
        """``more``/``done``/``unaware``/``unexp`` start unfilled, and only
        the C loop's exit fills them: an entry that refuses the core (here a
        ``local`` slab one offset short) writes nothing back, and the
        simulator it leaves holds every node's fresh sets, as built."""
        if arrayloop.load() is None:
            pytest.skip("no C loop in this process")
        run_loop = ArrayCore.run_loop

        def refused(core, *args):
            assert all(
                getattr(core, name).off is None
                for name in ("more", "done", "unaware", "unexp")
            )
            local = core.local
            core.local = IdSlab(local.off[:-1], local.mem)
            try:
                return run_loop(core, *args)
            finally:
                core.local = local

        graph = _graph(24)
        fresh, fresh_nodes = build_simulation(graph, variant, seed=2)
        sim, nodes = build_simulation(graph, variant, seed=2)
        monkeypatch.setattr(ArrayCore, "run_loop", refused)
        with pytest.raises(ValueError, match="core.local is not an int32 slab"):
            sim.run()
        assert sim._last_run_path == "array"
        assert _snapshot(sim, nodes) == _snapshot(fresh, fresh_nodes)


def every_cut(graph, variant, policy):
    """``run(max_steps=k)`` on the C loop for every k up to quiescence,
    each against the object loop cut at k: limit text, full per-node
    state, stats key order, channels, pool and rng state.  Returns the
    number of cuts and how many exits left each of :func:`live_forms`'s
    forms live."""
    if arrayloop.load() is None:
        pytest.skip("no C loop in this process")
    forms = Counter()
    run_loop = ArrayCore.run_loop

    def exits(core, *args):
        try:
            return run_loop(core, *args)
        finally:
            forms.update(live_forms(core))

    def build(fast):
        return build_simulation(
            graph, variant, scheduler=SCHEDULERS[policy](), fast=fast
        )

    def view(sim, nodes):
        rng = getattr(sim.scheduler, "_rng", None)
        return _snapshot(sim, nodes), rng and rng.getstate()

    # The reference advances one step per cut (``run(k)`` is ``run_for``
    # plus the limit check); each cut's array run starts afresh, so it
    # is one uninterrupted C run of k steps.
    ref, ref_nodes = build(fast=False)
    k = 0
    while not ref.is_quiescent:
        k += 1
        ref.run_for(1)
        sim, nodes = build(fast=True)
        try:
            with mock.patch.object(ArrayCore, "run_loop", exits):
                sim.run(k)
            message = None
        except StepLimitExceeded as exc:
            message = str(exc)
        assert (sim._last_run_path, sim._last_decline) == ("array", None)
        assert message == (
            None
            if ref.is_quiescent
            else f"no quiescence within {k} steps; "
            f"{ref.in_flight()} messages still in flight"
        ), k
        assert view(sim, nodes) == view(ref, ref_nodes), k
    return k, forms


class TestEveryStepCut:
    """``run(max_steps=k)`` for every k: state equality after each
    delivery (the C loop keeps no trace to compare)."""

    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_cut_equals_the_object_run(self, variant, policy):
        cuts, forms = every_cut(_graph(12), variant, policy)
        assert cuts > 8 * 12  # cut everywhere
        # the exit encoder met every form
        assert all(forms[f] > 0 for f in EXIT_FORMS), forms


class TestChannelHandOffOwnership:
    """Between entry and exit the C loop allocates no Python object per
    message; its codec builds the wire tuples and frozensets a caller
    gets back.  A reference the codec drops or keeps once per
    message shows as blocks that grow per run -- on runs built fresh from
    a graph (encoded at a limit) and on runs cut with messages in flight
    and resumed on the same core (``adopted``).
    Zero growth between the 2nd and the 6th run is the bar: the
    readings land in a preallocated array, so not even their own ints
    stay allocated, and the loop looks attributes up by interned name
    (the type attribute cache keeps the last name of each slot alive)."""

    N = 2000

    @pytest.fixture(autouse=True)
    def _needs_c_loop(self):
        if arrayloop.load() is None:
            pytest.skip("no C loop in this process: nothing hands a reference off")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
    @pytest.mark.parametrize("limited", ["drained", "limit", "adopted"])
    def test_repeated_runs_allocate_nothing_lasting(
        self, seed, limited, variant, monkeypatch
    ):
        graph = _graph(self.N)
        full = run_graph(graph, variant, seed=seed)
        if limited == "adopted":
            monkeypatch.setattr(ArrayCore, "run_loop", cut_and_recall(full.steps // 2))

        def run():
            if limited == "limit":
                with pytest.raises(StepLimitExceeded):
                    run_graph(graph, variant, seed=seed, max_steps=full.steps // 2)
            else:
                assert run_graph(graph, variant, seed=seed).steps == full.steps

        blocks = array("q", [0, 0])
        for reading, runs in enumerate((2, 4)):
            gc.collect()
            for _ in range(runs):
                run()
            gc.collect()
            blocks[reading] = sys.getallocatedblocks()
        assert blocks[1] == blocks[0]
