"""The leader's census view (``DiscoveryNode.knowledge``).

It must never be observably stale -- whatever path wrote ``more`` /
``done`` / ``unaware`` (protocol handlers, checkpoint restore, the array
core's materialize) -- and it must actually be shared: probes answered
between two membership changes get the *same* immutable object.  A view
is a frozen prefix of an append-only log, so an answer handed out earlier
must keep equalling its ``frozenset`` copy however the log grows, and it
must digest, compare, hash and pickle as that copy.
"""

import copy
import hashlib
import pickle
import random

import pytest

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.dynamic import random_churn
from repro.core.messages import MoreDone
from repro.core.node import CensusView, DiscoveryNode
from repro.core.runner import build_simulation
from repro.faults.plan import FaultInjector, FaultPlan, RecoverySpec
from repro.faults.recovery import RecoveryManager, _snapshot, attach_recovery
from repro.sim.network import StepLimitExceeded
from tests.conftest import array_engaged, gate_says
from tests.test_direct_entry import ID_TYPES, relabel


class AnswerLog:
    """Every view a leader hands out, beside a frozenset copy taken then."""

    def __init__(self):
        self.seen = []

    def take(self, nodes):
        for node in nodes.values():
            if node.is_leader:
                view = node.knowledge
                self.seen.append((node.node_id, view, frozenset(view)))

    def assert_unchanged(self):
        assert len(self.seen) > 10
        for _node_id, view, then in self.seen:
            assert view == then and len(view) == len(then)
            assert set(view) == then and all(x in view for x in then)


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
    injector = FaultInjector(plan, seed=0)
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


# ----------------------------------------------------------------------
# Answers are frozen: the log grows past them, never under them
# ----------------------------------------------------------------------
def test_answers_survive_joins_and_info_merges():
    graph = build_family("sparse-random", 24, 1)
    net = AdhocNetwork(graph, seed=1, fast=False)
    log = AnswerLog()
    log.take(net.nodes)
    events = list(random_churn(graph, 40, seed=1).events)
    for turn in range(20_000):
        if events and turn % 5 == 0:
            event = events.pop(0)
            if event[0] == "join":
                net.add_node(event[1], event[2])
            elif event[0] == "link":
                net.add_link(event[1], event[2])
        if not net.sim.step() and not events:
            break
        log.take(net.nodes)
    stats = net.sim.stats.messages_by_type
    assert stats["info"] > 0 and len(net.nodes) > graph.n
    log.assert_unchanged()


def test_answers_survive_generic_unaware_merges():
    graph = build_family("sparse-random", 24, 2)
    sim, nodes = build_simulation(graph, "generic", seed=2, fast=False)
    log = AnswerLog()
    log.take(nodes)
    while sim.step():
        log.take(nodes)
    assert sim.stats.messages_by_type["more-done"] > 0
    log.assert_unchanged()


def test_answers_survive_checkpoint_restore():
    node = DiscoveryNode(1, frozenset(), variant="adhoc")
    checkpoint = _snapshot(node, 0)
    node._add_done(7)
    node._add_unaware(frozenset({8, 9}))
    before = node.knowledge
    RecoveryManager._restore_fields(node, checkpoint)
    after = node.knowledge
    assert after is not before and after == {1}
    assert before == frozenset({1, 7, 8, 9})
    node._add_done(5)
    assert node.knowledge == {1, 5} and before == frozenset({1, 7, 8, 9})


def test_answers_survive_array_materialize():
    graph = build_family("sparse-random", 48, 4)
    net = AdhocNetwork(graph, seed=4)
    log = AnswerLog()
    for cut in range(3):  # 3 x 60 of the 466 steps, while the pool is large
        log.take(net.nodes)
        with pytest.raises(StepLimitExceeded):
            net.run(max_steps=60)
        # the array core takes the just-built system and materializes at
        # the first cut; a system that has run is the object loop's
        assert (net.sim._last_run_path, net.sim._last_decline) == (
            array_engaged() if cut == 0 else ("legacy", gate_says("node-state"))
        )
    net.run()
    log.take(net.nodes)
    assert any(view is not net.nodes[node_id].knowledge for node_id, view, _ in log.seen)
    log.assert_unchanged()


def test_an_unaware_ack_keeps_the_same_view():
    node = DiscoveryNode(1, frozenset(), variant="generic")
    node.status = "conqueror"
    node._add_unaware(frozenset({2, 3}))
    view = node.knowledge
    assert node._on_more_done(2, MoreDone(has_more=True))
    assert node.knowledge is view and 2 in node.more and 3 in node.unaware
    node._move_more_to_done(2)
    node._move_done_to_more(2)
    assert node.knowledge is view
    assert view == {1, 2, 3}


@pytest.mark.parametrize("id_type", ["int", "string"])
def test_views_compare_hash_and_combine_as_frozensets(id_type):
    a, b, c, d = map(ID_TYPES[id_type], range(4))
    node = DiscoveryNode(a, frozenset(), variant="adhoc")
    node._add_done(b)
    view = node.knowledge
    node._add_unaware(frozenset({c}))  # grows the log past ``view``
    assert isinstance(view, CensusView) and node.knowledge is not view
    same, other = frozenset({a, b}), frozenset({b, d})
    assert view == same and same == view and not view != same
    assert view != other and view != node.knowledge and view != {a}
    assert c not in view and c in node.knowledge and len(view) == 2
    assert hash(view) == hash(same) and {view: 1}[same] == 1
    for result, expected in (
        (view | other, same | other),
        (other | view, same | other),
        (view & other, same & other),
        (other & view, same & other),
        (view - other, same - other),
    ):
        assert type(result) is frozenset and result == expected
    assert view <= node.knowledge and not node.knowledge <= view


def test_views_leave_the_process_as_frozensets():
    node = DiscoveryNode("a", frozenset(), variant="adhoc")
    node._add_done("b")
    view = node.knowledge
    node._add_done("c")
    for copied in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view), copy.copy(view)):
        assert type(copied) is frozenset and copied == view == {"a", "b"}


# ----------------------------------------------------------------------
# A probe reply digests as the frozenset it equals
# ----------------------------------------------------------------------
#: sha256 of ``repr(trace.fingerprint())`` for :func:`traced_churn_run`,
#: recorded when every answer was a ``frozenset``.  A payload that stops
#: rendering as a sorted set changes these (and, for string ids, makes
#: the digest depend on the hash seed).
TRACED_CHURN_DIGESTS = {
    "int": "801726eb5d0256d04b6fce6e3de5f2e3b28137531765a8bab74050433d4e4d86",
    "string": "7db3b3284fc405c258a238d03af90513d7e99efd1e7e70ca1ec694064a05ac9d",
}


def traced_churn_run(make_id):
    """A traced Ad-hoc run with joins, new links and probes while the
    census grows, then one probe from every node."""
    graph = relabel(build_family("sparse-random", 24, 1), make_id)
    net = AdhocNetwork(graph, seed=1, keep_trace=True)
    rng = random.Random(1)
    members = sorted(graph.nodes, key=repr)
    joined = 0
    for turn in range(60_000):
        if turn % 9 == 0 and turn < 1_800:
            roll = rng.random()
            if roll < 0.3:
                new = make_id(100 + joined)
                joined += 1
                net.add_node(new, rng.sample(members, 2))
                members.append(new)
            elif roll < 0.45:
                u, v = rng.sample(members, 2)
                net.add_link(u, v)
            else:
                node = rng.choice(members)
                if net.can_probe(node):
                    net.probe_async(node)
        if not net.sim.step() and turn >= 1_800:
            break
    for node in members:
        net.probe(node)
    return net.sim.trace


@pytest.mark.parametrize("id_type", sorted(TRACED_CHURN_DIGESTS))
def test_traced_probe_replies_keep_their_fingerprint(id_type):
    trace = traced_churn_run(ID_TYPES[id_type])
    replies = [e for e in trace.events if e.msg_type == "probe-reply"]
    assert len(replies) > 200
    assert any(isinstance(e.detail.ids, CensusView) for e in replies)
    digest = hashlib.sha256(repr(trace.fingerprint()).encode()).hexdigest()
    assert digest == TRACED_CHURN_DIGESTS[id_type]
