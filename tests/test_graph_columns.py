"""The graph's way into the columns, and the verifier that reads it back.

``run_graph`` fills ``core.local`` from the graph's successor sets and
labels the graph's weak components before the loop runs; the O(n + E)
verifier (``arraystate._verify_scale``) checks the quiescent columns
against those labels.  This module holds:

* one planted fault per verifier branch, each on a quiescent core with one
  column corrupted, asserting the exact class and text through
  ``_verify_scale`` and through ``verify_discovery`` on the core's
  ``collect_columns`` snapshot, as kept and as interned dicts: the one
  checker, reached every way;
* the C kernels, differentially: ``fill_local`` against ``IdSlab.of``
  over the same successor sets, ``component_labels`` against
  ``weakly_connected_components`` and the breadth-first reference, on
  every graph family, disjoint unions with isolated nodes, n = 1 and the
  hypothesis graphs of ``tests.graph_cases``; ``draw_graph`` against the
  generators' Python loops on an equal ``Random`` (members, their order,
  edge count, the rng state afterwards);
* the run differential that makes a drawn graph's slab order safe to
  hand to the loop as ``core.local``: ``run_graph`` and ``run_discovery``
  on a drawn graph and on its set-built twin agree on everything a caller
  sees, and leave the graph's arrays as they were.

CI runs this file under ASan + UBSan too: a slab buffer one slot short
fails there.
"""

from __future__ import annotations

import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import GRAPH_FAMILIES, build_family
from repro.core import arrayloop, arraystate, runner
from repro.core.arraystate import IS_LEADER, ArrayCore, IdSlab, IdSpace, _verify_scale
from repro.core.node import STATUS_CODES
from repro.core.result import collect_columns
from repro.core.runner import build_simulation, default_step_budget
from repro.graphs.components import weakly_connected_components
from repro.graphs import generators
from repro.graphs.generators import disjoint_union, random_weakly_connected, star
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.trace import MessageStats
from repro.verification.invariants import InvariantViolation, verify_discovery
from tests.graph_cases import bfs_components, built_graphs
from tests.test_column_result import as_dicts


# ----------------------------------------------------------------------
# The verifier's failure paths
# ----------------------------------------------------------------------
def two_components():
    """A star and a random graph side by side: two weak components."""
    return disjoint_union(star(5), random_weakly_connected(9, 12, seed=3))


def quiescent_core(graph, variant):
    """The columns of a reference run at quiescence, read off its nodes
    (so the same with and without a C loop): the status, ``next`` and
    knowledge columns the checker and ``collect_columns`` read."""
    sim, nodes = build_simulation(graph, variant, fast=False)
    sim.run(default_step_budget(graph))
    core = ArrayCore(IdSpace(sim.nodes), sim.id_bits)
    idx = core.idx
    for i, node in enumerate(nodes.values()):
        core.status[i] = STATUS_CODES[node.status]
        core.nxt[i] = idx[node.next]
    for column, field in (
        ("local", "local"), ("more", "more"), ("done", "done"),
        ("unaware", "unaware"), ("unexp", "unexplored"),
    ):
        rows = ([idx[x] for x in getattr(node, field)] for node in nodes.values())
        setattr(core, column, IdSlab.of(rows))
    return core


def layout(core, graph):
    """``(members, leader)``: each component's sorted ints by smallest
    member, and its one leader."""
    members = sorted(sorted(core.idx[x] for x in c) for c in weakly_connected_components(graph))
    leaders = [next(i for i in c if IS_LEADER[core.status[i]]) for c in members]
    return members, leaders


def set_row(core, column, i, row):
    """Replace node ``i``'s members in the ``column`` slab."""
    slab = getattr(core, column)
    rows = [list(row) if j == i else slab[j] for j in range(core.n)]
    setattr(core, column, IdSlab.of(rows))


def knowledge_of(core, leader):
    return {leader}.union(core.more[leader], core.done[leader], core.unaware[leader])


def named(core, ints):
    """The ids of ``ints``, sorted by repr as the texts list them."""
    return sorted((core.ids[i] for i in ints), key=repr)


def fails_with(core, graph, variant, text, error=InvariantViolation):
    """Every entry raises exactly ``error`` with ``text``: ``_verify_scale``
    on the columns, and ``verify_discovery`` on their ``collect_columns``
    snapshot, both as it is (the ints it keeps) and with its views turned
    into dicts (interned, as an object-path result is).  A pointer cycle
    stops the snapshot itself, with the same error: the one chain walk's."""

    def snapshot():
        return collect_columns(graph, core, variant, MessageStats(), core.steps)

    for check in (
        lambda: _verify_scale(core, graph, variant),
        lambda: verify_discovery(snapshot(), graph),
        lambda: verify_discovery(as_dicts(snapshot()), graph),
    ):
        with pytest.raises(Exception) as info:
            check()
        assert type(info.value) is error
        assert str(info.value) == text


def first_cycle(core):
    """The node a naive walk meets twice first, from the smallest int whose
    ``next`` chain never reaches a leader."""
    for i in range(core.n):
        seen, j = set(), i
        while not IS_LEADER[core.status[j]]:
            if j in seen:
                return core.ids[j]
            seen.add(j)
            j = core.nxt[j]
    raise AssertionError("no cycle")


class TestScaleVerifierFailures:
    """One fault per test, planted on a quiescent core; every entry raises
    ``verify_discovery``'s class and text."""

    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    def test_quiescent_core_passes(self, variant):
        graph = two_components()
        core = quiescent_core(graph, variant)
        assert _verify_scale(core, graph, variant) == 2
        result = collect_columns(graph, core, variant, MessageStats(), core.steps)
        assert verify_discovery(result, graph).n_components == 2

    def test_transient_status(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        j = next(i for i in members[1] if i != leaders[1])
        core.status[j] = STATUS_CODES["passive"]
        fails_with(
            core, graph, "generic",
            f"nodes stuck in transient states at quiescence: {{{core.ids[j]!r}: 'passive'}}",
        )

    def test_two_leaders_in_one_component(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        j = next(i for i in members[1] if i != leaders[1])
        core.status[j] = STATUS_CODES["wait"]
        fails_with(
            core, graph, "generic",
            f"component {named(core, members[1])[:8]}... has 2 leaders: "
            f"{named(core, [j, leaders[1]])}",
        )

    def test_component_without_leader(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        # the deposed leader follows the other component's: no chain cycles
        core.status[leaders[1]] = STATUS_CODES["inactive"]
        core.nxt[leaders[1]] = leaders[0]
        fails_with(
            core, graph, "generic",
            f"component {named(core, members[1])[:8]}... has 0 leaders: []",
        )

    def test_leader_knowledge_missing_an_id(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        leader = leaders[1]
        drop = next(i for i in members[1] if i != leader)
        for column in ("more", "done", "unaware"):
            set_row(core, column, leader, [m for m in getattr(core, column)[leader] if m != drop])
        fails_with(
            core, graph, "generic",
            f"leader {core.ids[leader]!r}: knowledge mismatch; "
            f"missing={[core.ids[drop]]} extra=[]",
        )

    def test_leader_knowledge_with_a_foreign_id(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        leader = leaders[0]
        set_row(core, "done", leader, [*core.done[leader], members[1][-1]])
        assert len(knowledge_of(core, leader)) == len(members[0]) + 1
        fails_with(
            core, graph, "generic",
            f"leader {core.ids[leader]!r}: knowledge mismatch; "
            f"missing=[] extra={[core.ids[members[1][-1]]]}",
        )

    def test_bounded_leader_not_terminated(self):
        graph = two_components()
        core = quiescent_core(graph, "bounded")
        _members, leaders = layout(core, graph)
        assert core.status[leaders[0]] == STATUS_CODES["terminated"]
        core.status[leaders[0]] = STATUS_CODES["wait"]
        fails_with(
            core, graph, "bounded",
            f"bounded leaders did not detect termination: {[core.ids[leaders[0]]]}",
        )

    def test_generic_non_leader_off_its_leader(self):
        """A non-leader pointing at itself: its chain meets it twice."""
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        j = next(i for i in members[1] if i != leaders[1])
        core.nxt[j] = j
        fails_with(
            core, graph, "generic", f"next-pointer cycle through {core.ids[j]!r}", RuntimeError
        )

    def test_generic_node_resolving_to_another_components_leader(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        j = next(i for i in members[1] if i != leaders[1])
        core.nxt[j] = leaders[0]
        fails_with(
            core, graph, "generic",
            f"node {core.ids[j]!r} resolves to {core.ids[leaders[0]]!r}, "
            f"component leader is {core.ids[leaders[1]]!r}",
        )

    def test_generic_chain_of_length_two(self):
        graph = two_components()
        core = quiescent_core(graph, "generic")
        members, leaders = layout(core, graph)
        j, k = [i for i in members[1] if i != leaders[1]][:2]
        core.nxt[j] = k
        fails_with(
            core, graph, "generic",
            "generic: non-leaders must point directly at their leader; "
            f"offenders (node: chain length): {{{core.ids[j]!r}: 2}}",
        )

    def test_adhoc_pointer_cycle(self):
        graph = two_components()
        core = quiescent_core(graph, "adhoc")
        members, leaders = layout(core, graph)
        j, k = [i for i in members[1] if i != leaders[1]][:2]
        core.nxt[j], core.nxt[k] = k, j
        fails_with(
            core, graph, "adhoc", f"next-pointer cycle through {first_cycle(core)!r}", RuntimeError
        )

    def test_adhoc_chain_to_the_wrong_leader(self):
        graph = two_components()
        core = quiescent_core(graph, "adhoc")
        members, leaders = layout(core, graph)
        # a non-leader nobody points at: the only node whose chain changes
        pointed = {core.nxt[i] for i in range(core.n) if core.nxt[i] != i}
        j = next(i for i in members[1] if i != leaders[1] and i not in pointed)
        core.nxt[j] = leaders[0]
        fails_with(
            core, graph, "adhoc",
            f"node {core.ids[j]!r} resolves to {core.ids[leaders[0]]!r}, "
            f"component leader is {core.ids[leaders[1]]!r}",
        )


class TestChains:
    """``ArrayCore.chains`` resolves ``next`` chains by pointer doubling and
    falls back to the per-node walk when a chain never ends: on any
    ``next`` column both give the same three columns or the same error."""

    @staticmethod
    def core_over(nxt, leaders):
        core = ArrayCore(IdSpace([f"n{i}" for i in range(len(nxt))]), 8)
        core.nxt[:] = nxt
        for i in leaders:
            core.status[i] = STATUS_CODES["wait"]
        return core

    @staticmethod
    def both(core):
        lead = core.status.translate(IS_LEADER)
        walked = (lambda: core._walk_chains(lead, [i for i in range(core.n) if lead[i]]))
        out = []
        for run in (core.chains, walked):
            try:
                leaders, resolved, lengths = run()
            except RuntimeError as exc:
                out.append(str(exc))
            else:
                out.append((leaders, list(resolved), list(lengths)))
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_doubling_equals_the_walk(self, data):
        n = data.draw(st.integers(1, 80))
        nxt = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        leaders = data.draw(st.sets(st.integers(0, n - 1)))
        doubled, walked = self.both(self.core_over(nxt, leaders))
        assert doubled == walked

    @pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 63, 64, 65, 200])
    def test_one_long_chain(self, length):
        """A path of ``length`` hops to the leader, around each power of
        two the rounds double through: resolved within the round cap."""
        n = length + 1
        doubled, walked = self.both(self.core_over([max(i - 1, 0) for i in range(n)], [0]))
        assert doubled == walked and doubled[2] == list(range(n))

    def test_a_long_tail_into_a_cycle_raises_the_walks_text(self):
        """Chains that resolve beside a 100-node tail ending in a 3-cycle:
        every round runs, then the walk names the node it meets twice."""
        nxt = [0] + [i - 1 for i in range(1, 50)]  # resolves to 0
        tail = list(range(50, 150))
        nxt += [i + 1 for i in tail[:-1]] + [150]
        nxt += [151, 152, 150]  # the cycle 150 -> 151 -> 152 -> 150
        doubled, walked = self.both(self.core_over(nxt, [0]))
        assert doubled == walked == "next-pointer cycle through 'n150'"


# ----------------------------------------------------------------------
# The two kernels, differentially
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def kernels():
    """The C module (the kernels run wherever the C loop runs)."""
    module = arrayloop.load()
    if module is None:
        pytest.skip(f"no C loop: {arrayloop.why_missing()}")
    return module


def reference_local(graph, ids, idx):
    return IdSlab.of(map(idx.__getitem__, graph._succ[x]) for x in ids)


def labels_from(components, idx):
    """Each node's smallest component int, from sets of node ids."""
    labels = [0] * len(idx)
    for component in components:
        ints = [idx[x] for x in component]
        for i in ints:
            labels[i] = min(ints)
    return labels


def check_kernels(graph, ids):
    """``fill_local`` equals ``IdSlab.of`` member for member, and
    ``component_labels`` agrees with both component references."""
    idx = {x: i for i, x in enumerate(ids)}
    # the reference reads the successor sets first, so a drawn graph has
    # them too and the kernel fills from them
    expected = reference_local(graph, ids, idx)
    local = arraystate._fill_local(graph, ids, idx)
    assert (local.off, local.mem) == (expected.off, expected.mem)
    labels, count = arraystate._graph_components(graph, idx, local)
    weak = weakly_connected_components(graph)
    assert list(labels) == labels_from(weak, idx)
    assert list(labels) == labels_from(bfs_components(graph.nodes, graph.edges()), idx)
    assert count == len(weak)
    return local, labels


def shuffled(ids, seed):
    ids = list(ids)
    random.Random(seed).shuffle(ids)
    return ids


class TestKernels:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_family(self, kernels, family, seed):
        graph = build_family(family, 96, seed)
        check_kernels(graph, graph.nodes)
        check_kernels(graph, shuffled(graph.nodes, seed))

    def test_disjoint_unions_with_isolated_nodes(self, kernels):
        lone = KnowledgeGraph([0])
        graph = disjoint_union(
            lone, star(6), lone, random_weakly_connected(12, 20, seed=1), lone, lone
        )
        _local, labels = check_kernels(graph, shuffled(graph.nodes, 2))
        assert len(set(labels)) == 6

    def test_one_node(self, kernels):
        local, labels = check_kernels(KnowledgeGraph(["only"]), ["only"])
        assert (list(local.off), list(local.mem), list(labels)) == ([0, 0], [], [0])

    @settings(max_examples=150, deadline=None)
    @given(built_graphs(), st.randoms(use_true_random=False))
    def test_built_graphs(self, kernels, built, rnd):
        graph, _edges = built
        order = graph.nodes
        rnd.shuffle(order)
        check_kernels(graph, order)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_edge_count_out_of_step_raises(self, kernels, delta):
        graph = random_weakly_connected(20, 30, seed=4)
        graph._n_edges += delta
        ids = graph.nodes
        idx = {x: i for i, x in enumerate(ids)}
        with pytest.raises(ValueError, match="fill_local"):
            arraystate._fill_local(graph, ids, idx)
        with pytest.raises(ValueError, match="fill_local"):
            arraystate.run_graph(graph, "generic")

    def test_member_missing_from_the_index_raises(self, kernels):
        graph = star(5)
        ids = graph.nodes
        idx = {x: i for i, x in enumerate(ids)}
        del idx[ids[-1]]
        with pytest.raises(KeyError):
            arraystate._fill_local(graph, ids, idx)
        idx[ids[-1]] = len(ids)  # an int past the slab
        with pytest.raises(ValueError, match="fill_local member"):
            arraystate._fill_local(graph, ids, idx)

    def test_identity_index_reads_like_the_dict(self, kernels):
        """Over ids ``0..n-1`` the kernel takes ``IdSpace``'s identity
        index: an exact int member is its own index, any other member --
        ``True``, ``2.0``, an int out of range, a string -- is looked up,
        with the dict's answer or the dict's ``KeyError``."""
        graph = KnowledgeGraph(range(5), [(0, True), (1, 2.0), (3, 0), (4, 3)])
        ids = graph.nodes
        index = IdSpace(ids).index
        assert type(index) is arraystate.IdentityIndex
        expected = reference_local(graph, ids, {x: i for i, x in enumerate(ids)})
        local = arraystate._fill_local(graph, ids, index)
        assert (local.off, local.mem) == (expected.off, expected.mem)
        assert list(local.mem) == [1, 2, 0, 3]
        for stray in (-1, 5, 2**70, "x"):
            graph._succ[4] = {stray}
            with pytest.raises(KeyError) as err:
                arraystate._fill_local(graph, ids, index)
            assert err.value.args == (stray,)

    def test_labels_reject_a_malformed_slab(self, kernels):
        labels = array("i", [0]) * 3
        for off, mem in (
            ([0, 1, 1], [2]),  # n + 1 offsets for another n
            ([0, 1, 1, 2], [2]),  # last offset past the members
            ([0, 2, 1, 2], [1, 2]),  # offsets go down
            ([0, 1, 1, 1], [3]),  # a member out of range
        ):
            with pytest.raises(ValueError, match="component_labels"):
                kernels.component_labels(array("i", off), array("i", mem), labels)

    def test_run_graph_counts_components_from_the_labels(self, kernels):
        graph = two_components()
        result = arraystate.run_graph(graph, "bounded", seed=1)
        assert result.n_components == 2
        assert arraystate.run_graph(graph, "adhoc", verify=False).n_components == 2


# ----------------------------------------------------------------------
# draw_graph against the generators' Python loops
# ----------------------------------------------------------------------
def python_drawn(n, extra, seed):
    """The reference: both Python loops on ``Random(seed)``; the graph and
    the rng state they leave."""
    rng = random.Random(seed)
    graph = generators._arborescence(n, rng)
    generators._add_random_edges(graph, rng, extra)
    return graph, rng.getstate()


def native_drawn(n, extra, seed):
    rng = random.Random(seed)
    graph = generators._drawn(n, extra, rng)
    assert graph.slab() is not None  # born as a slab
    return graph, rng.getstate()


def rows_in_order(graph):
    """Each node's successors in the sets' iteration order."""
    return [list(graph._succ[u]) for u in graph.nodes]


def same_draw(n, extra, seed):
    expected, state = python_drawn(n, extra, seed)
    drawn, drawn_state = native_drawn(n, extra, seed)
    assert drawn.n_edges == expected.n_edges
    assert drawn_state == state
    off, mem = drawn.slab()
    assert [set(mem[off[u] : off[u + 1]]) for u in drawn.nodes] == [
        expected._succ[u] for u in expected.nodes
    ]
    assert rows_in_order(drawn) == rows_in_order(expected)
    return drawn


def extras(n):
    """No extra edge, n of them, n * floor(log2 n), and more than fit."""
    return (0, n, n * max(1, n.bit_length() - 1), n * (n - 1) + 3)


#: What the Python loops leave for (1000, 999003, 0) -- eight seconds of
#: draws in Python -- as ``outcome_digest``: the complete digraph.
COMPLETE_1000 = "063f5a039d74d1813ab77152be6f47277c8d50c0df55cef9658e91293ea74125"


def outcome_digest(graph, state):
    """sha256 of the edge count, each node's member order and the rng state."""
    return hashlib.sha256(
        repr((graph.n_edges, rows_in_order(graph), state)).encode()
    ).hexdigest()


def _at_index_zero():
    version, words, gauss = random.Random(7).getstate()
    rng = random.Random()
    rng.setstate((version, words[:-1] + (0,), gauss))
    return rng


def _mid_block():
    rng = random.Random(7)
    rng.getrandbits(32 * 300)
    return rng


def _after_gauss():
    rng = random.Random(7)
    rng.gauss(0.0, 1.0)  # leaves gauss_next set
    return rng


#: generators whose streams stand mid-stream, and the index each stands at:
#: 0, mid-block, just seeded, and after gauss() (two random() calls in,
#: gauss_next set)
STREAMS = {
    "index-0": (_at_index_zero, 0),
    "mid-block": (_mid_block, 300),
    "index-624": (lambda: random.Random(7), 624),
    "after-gauss": (_after_gauss, 4),
}


class TestDrawGraph:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_python_loops(self, kernels, n, seed):
        for extra in extras(n):
            if n == 1000 and extra > n * n // 2:
                continue  # the complete digraph is pinned below
            same_draw(n, extra, seed)

    def test_the_complete_digraph_at_n_1000(self, kernels):
        n = 1000
        drawn, state = native_drawn(n, n * (n - 1) + 3, 0)
        assert drawn.n_edges == n * (n - 1)
        assert outcome_digest(drawn, state) == COMPLETE_1000

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2000), st.integers(0, 2**32))
    def test_small_cases(self, kernels, n, extra, seed):
        same_draw(n, min(extra, n * n), seed)

    def test_bad_sizes_raise_before_any_draw(self, kernels):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(ValueError, match="draw_graph"):
            kernels.draw_graph(rng, 10, -1)
        with pytest.raises(ValueError, match="draw_graph"):
            kernels.draw_graph(rng, 0, 3)
        with pytest.raises(OverflowError, match="int32 slab"):
            kernels.draw_graph(rng, 100_000, 10**10)
        assert rng.getstate() == state
        with pytest.raises(ValueError, match="extra_edges"):
            random_weakly_connected(10, -1, seed=5)

    @pytest.mark.parametrize("stream", list(STREAMS), ids=list(STREAMS))
    @pytest.mark.parametrize("n, extra", [(1, 0), (40, 70), (300, 2000)])
    def test_mid_stream_generators(self, kernels, stream, n, extra):
        """The state is copied out of the generator and back in place from
        wherever its stream stands (the index, and gauss_next left alone):
        getstate() and the slab equal the Python loops' from the same
        state."""
        make, index = STREAMS[stream]
        reference, native = make(), make()
        assert native.getstate() == reference.getstate()
        assert native.getstate()[1][-1] == index
        expected = generators._arborescence(n, reference)
        generators._add_random_edges(expected, reference, extra)
        drawn = generators._drawn(n, extra, native)
        assert native.getstate() == reference.getstate()
        assert drawn.n_edges == expected.n_edges
        assert rows_in_order(drawn) == rows_in_order(expected)
        # and the generator's own draws carry on from there
        assert native.random() == reference.random()

    def test_a_non_random_rng_raises_before_any_draw(self, kernels):
        """Only an exact ``random.Random`` is copied: a subclass may draw
        through its own ``getrandbits``, SystemRandom has no state."""

        class Sub(random.Random):
            pass

        sub = Sub(5)
        state = sub.getstate()
        for rng in (None, object(), random.SystemRandom(), sub):
            with pytest.raises(TypeError, match="must be a random.Random"):
                kernels.draw_graph(rng, 10, 5)
        assert sub.getstate() == state

    def test_generators_return_slab_born_graphs(self, kernels):
        for graph in (random_weakly_connected(50, 80, 1), generators.random_arborescence(50, 1)):
            assert graph.slab() is not None and "_succ" not in vars(graph)


# ----------------------------------------------------------------------
# Runs on a drawn graph against its set-built twin
# ----------------------------------------------------------------------
DRAWN_FAMILIES = ("sparse-random", "dense-random")


def twins(family, n, seed):
    """``(drawn, set_built)``: the family's graph from the C draw, and the
    same graph from the Python loops."""
    drawn = build_family(family, n, seed)
    assert drawn.slab() is not None
    module, arrayloop._module = arrayloop._module, None
    try:
        set_built = build_family(family, n, seed)
    finally:
        arrayloop._module = module
    assert set_built.slab() is None
    return drawn, set_built


def slab_copy(graph):
    off, mem = graph.slab()
    return array("i", off), array("i", mem)


def scale_outcome(graph, variant, seed):
    result = arraystate.run_graph(graph, variant, seed=seed)
    return (
        result.steps,
        list(result.stats.messages_by_type.items()),
        list(result.stats.bits_by_type.items()),
        result.leaders,
        result.n_components,
        result.verified,
    )


def discovery_outcome(graph, variant, seed):
    result = runner.run_discovery(graph, variant, seed=seed)
    return (
        result.steps,
        list(result.stats.messages_by_type.items()),
        list(result.stats.bits_by_type.items()),
        result.leaders,
        result.leader_of,
        result.knowledge,
        result.statuses,
        result.path_lengths,
    )


class TestDrawnRuns:
    @pytest.mark.parametrize("family", DRAWN_FAMILIES)
    @pytest.mark.parametrize("n", [2, 3, 17, 64, 300])
    @pytest.mark.parametrize("seed", [None, 1], ids=["fifo", "seeded"])
    def test_runs_equal_the_set_built_twin(self, kernels, family, n, seed):
        for variant in ("generic", "bounded", "adhoc"):
            drawn, set_built = twins(family, n, 7)
            before = slab_copy(drawn)
            assert scale_outcome(drawn, variant, seed) == scale_outcome(
                set_built, variant, seed
            )
            assert discovery_outcome(drawn, variant, seed) == discovery_outcome(
                set_built, variant, seed
            )
            assert "_succ" not in vars(drawn)  # no run built the sets
            assert slab_copy(drawn) == before

    def test_one_graph_for_three_variants(self, kernels):
        drawn, set_built = twins("dense-random", 120, 3)
        before = slab_copy(drawn)
        for variant in ("generic", "bounded", "adhoc"):
            assert scale_outcome(drawn, variant, 2) == scale_outcome(set_built, variant, 2)
            assert slab_copy(drawn) == before

    def test_run_verify_run(self, kernels):
        """``verify_discovery`` labels the slab without building the sets;
        a run after it, and one after the sets are built, is the run the
        slab gave."""
        drawn = build_family("sparse-random", 90, 4)
        before = slab_copy(drawn)
        first = discovery_outcome(drawn, "adhoc", 5)
        assert slab_copy(drawn) == before
        verify_discovery(runner.run_discovery(drawn, "adhoc", seed=5), drawn)
        assert slab_copy(drawn) == before and "_succ" not in vars(drawn)
        assert discovery_outcome(drawn, "adhoc", 5) == first
        drawn.successors(0)
        assert drawn.slab() is None
        assert discovery_outcome(drawn, "adhoc", 5) == first

    def test_the_loop_reads_the_slab_in_place(self, kernels):
        drawn = build_family("dense-random", 40, 0)
        ids = drawn.nodes
        local = arraystate._fill_local(drawn, ids, {x: x for x in ids})
        off, mem = drawn.slab()
        assert local.off is off and local.mem is mem
