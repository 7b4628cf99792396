"""Unit tests for the knowledge-graph model."""

import pickle
import random
from array import array

import pytest

from repro.core import arrayloop
from repro.graphs.components import weakly_connected_components
from repro.graphs.knowledge_graph import KnowledgeGraph


class TestConstruction:
    def test_empty(self):
        g = KnowledgeGraph([])
        assert g.n == 0
        assert g.n_edges == 0

    def test_nodes_and_edges(self):
        g = KnowledgeGraph([1, 2, 3], [(1, 2), (2, 3)])
        assert g.n == 3
        assert g.n_edges == 2
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeGraph([1, 1])

    def test_edge_to_unknown_node_rejected(self):
        g = KnowledgeGraph([1])
        with pytest.raises(KeyError):
            g.add_edge(1, 2)
        with pytest.raises(KeyError):
            g.add_edge(2, 1)

    def test_self_loops_dropped(self):
        g = KnowledgeGraph([1], [(1, 1)])
        assert g.n_edges == 0
        assert not g.add_edge(1, 1)

    def test_parallel_edge_dropped(self):
        g = KnowledgeGraph([1, 2])
        assert g.add_edge(1, 2)
        assert not g.add_edge(1, 2)
        assert g.n_edges == 1

    def test_add_node(self):
        g = KnowledgeGraph([0])
        g.add_node(1)
        assert 1 in g
        with pytest.raises(ValueError):
            g.add_node(1)


class TestQueries:
    def test_degrees(self):
        g = KnowledgeGraph(range(4), [(0, 1), (0, 2), (3, 0)])
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 1
        assert g.successors(0) == frozenset({1, 2})
        assert g.predecessors(0) == frozenset({3})

    def test_undirected_neighbors(self):
        g = KnowledgeGraph(range(3), [(0, 1), (2, 0)])
        assert g.undirected_neighbors(0) == {1, 2}

    def test_edges_deterministic_order(self):
        g = KnowledgeGraph(range(4), [(0, 3), (0, 1), (2, 0)])
        assert list(g.edges()) == list(g.edges())

    def test_nodes_returns_copy(self):
        g = KnowledgeGraph([0, 1])
        nodes = g.nodes
        nodes.append(99)
        assert g.n == 2

    def test_repr(self):
        g = KnowledgeGraph(range(2), [(0, 1)])
        assert "n=2" in repr(g)
        assert "m=1" in repr(g)


class TestDerived:
    def test_copy_is_independent(self):
        g = KnowledgeGraph(range(3), [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert h.has_edge(1, 2)

    def test_reversed(self):
        g = KnowledgeGraph(range(3), [(0, 1), (1, 2)])
        r = g.reversed()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.n_edges == 2
        assert not r.has_edge(0, 1)

    def test_string_ids(self):
        g = KnowledgeGraph(["a", "b"], [("a", "b")])
        assert g.has_edge("a", "b")
        assert g.successors("a") == frozenset({"b"})


# ----------------------------------------------------------------------
# A slab-born graph (KnowledgeGraph.from_slab) against its set-built twin
# ----------------------------------------------------------------------
#: edges in the order a generator would accept them: no loop, no duplicate
SLAB_EDGES = [(0, 3), (2, 0), (0, 1), (4, 2), (1, 4), (0, 2), (3, 1), (4, 0), (1, 0)]


def slab_twin(n=6, edges=SLAB_EDGES):
    """``(slab_born, set_built)`` over the same edges; each node's members
    in the same order in both, as the native draw keeps them."""
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
    off, mem = array("i", [0]), array("i")
    for row in rows:
        mem.extend(row)
        off.append(len(mem))
    return KnowledgeGraph.from_slab(off, mem), KnowledgeGraph(range(n), edges)


def answers(g):
    """Everything the read-only API says about ``g``, set orders included."""
    nodes = g.nodes
    return (
        nodes, g.n, g.n_edges, repr(g), list(g.edges()),
        [(g.successors(u), list(g._succ[u])) for u in nodes],
        [g.predecessors(u) for u in nodes],
        [(g.out_degree(u), g.in_degree(u)) for u in nodes],
        [g.undirected_neighbors(u) for u in nodes],
        [g.has_edge(u, v) for u in nodes for v in nodes],
        [u in g for u in (*nodes, len(nodes))],
    )


class TestSlabBorn:
    def test_holds_the_slab_until_the_sets_are_asked_for(self):
        slab, _twin = slab_twin()
        assert slab.slab() is not None and "_succ" not in vars(slab)
        assert (slab.n, slab.n_edges, slab.nodes) == (6, len(SLAB_EDGES), list(range(6)))
        slab.successors(0)
        assert slab.slab() is None and "_succ" in vars(slab)

    def test_answers_as_the_set_built_twin(self):
        slab, twin = slab_twin()
        assert answers(slab) == answers(twin)

    @pytest.mark.parametrize("derive", ["copy", "reversed"])
    def test_derived_graphs_equal_the_twins(self, derive):
        slab, twin = slab_twin()
        assert answers(getattr(slab, derive)()) == answers(getattr(twin, derive)())

    def test_pickle_round_trip(self):
        slab, twin = slab_twin()
        assert answers(pickle.loads(pickle.dumps(slab))) == answers(twin)
        slab.successors(1)  # and once the sets exist
        assert answers(pickle.loads(pickle.dumps(slab))) == answers(twin)

    def test_growth_after_birth(self):
        slab, twin = slab_twin()
        for g in (slab, twin):
            g.add_node(6)
            assert g.add_edge(6, 5) and g.add_edge(5, 0)
            assert not g.add_edge(0, 3)  # already known
            assert not g.add_edge(2, 2)
        assert slab.n_edges == len(SLAB_EDGES) + 2
        assert answers(slab) == answers(twin)
        fresh, _twin = slab_twin()
        assert fresh.add_edge(5, 4) and fresh.n_edges == len(SLAB_EDGES) + 1
        with pytest.raises(ValueError):
            slab_twin()[0].add_node(3)

    @pytest.mark.parametrize("seed", range(6))
    def test_components_equal_the_twins(self, seed):
        """Same components, same order, same set orders; with the C module
        the slab is labelled natively and no set gets built."""
        rnd = random.Random(seed)
        pairs = {(rnd.randrange(40), rnd.randrange(40)) for _ in range(25)}
        slab, twin = slab_twin(40, [(u, v) for u, v in pairs if u != v])
        ours = [list(c) for c in weakly_connected_components(slab)]
        assert ours == [list(c) for c in weakly_connected_components(twin)]
        assert ("_succ" in vars(slab)) == (arrayloop.load() is None)

    def test_a_missing_attribute_is_still_an_attribute_error(self):
        slab, _twin = slab_twin()
        with pytest.raises(AttributeError):
            slab.no_such_thing
        assert not hasattr(KnowledgeGraph([0]), "_csr")
