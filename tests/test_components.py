"""Connectivity computations, cross-checked against networkx, and the
union-find and the derived adjacency against the breadth-first search and
brute-force definitions they replaced."""

from typing import Dict, List

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arrayloop
from repro.core.arraystate import _fill_local, _graph_components
from repro.graphs.components import (
    component_of,
    is_strongly_connected,
    is_weakly_connected,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.graphs.generators import (
    complete_binary_tree,
    directed_cycle,
    directed_path,
    disjoint_union,
    random_strongly_connected,
    star,
)
from repro.graphs.knowledge_graph import KnowledgeGraph
from tests.graph_cases import bfs_components, built_graphs


class TestWeak:
    def test_single_node(self):
        g = KnowledgeGraph([0])
        assert weakly_connected_components(g) == [{0}]
        assert is_weakly_connected(g)

    def test_empty_graph(self):
        assert is_weakly_connected(KnowledgeGraph([]))

    def test_direction_ignored(self):
        g = KnowledgeGraph(range(3), [(0, 1), (2, 1)])
        assert is_weakly_connected(g)

    def test_disjoint_union_components(self):
        g = disjoint_union(star(4), directed_path(3), directed_cycle(2))
        comps = weakly_connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 3, 4]

    def test_component_of(self):
        g = disjoint_union(star(3), directed_path(2))
        assert component_of(g, 0) == {0, 1, 2}
        assert component_of(g, 4) == {3, 4}
        with pytest.raises(KeyError):
            component_of(g, 99)


class TestStrong:
    def test_cycle_is_strong(self):
        assert is_strongly_connected(directed_cycle(5))

    def test_path_is_not_strong(self):
        assert not is_strongly_connected(directed_path(4))

    def test_tree_sccs_are_singletons(self):
        g = complete_binary_tree(3)
        assert all(len(c) == 1 for c in strongly_connected_components(g))

    def test_generator_guarantee(self):
        for n in (1, 2, 5, 30):
            assert is_strongly_connected(random_strongly_connected(n, n, seed=n))

    def test_mixed_sccs(self):
        # 0 <-> 1 cycle, 2 dangling.
        g = KnowledgeGraph(range(3), [(0, 1), (1, 0), (1, 2)])
        sizes = sorted(len(c) for c in strongly_connected_components(g))
        assert sizes == [1, 2]


def _graph_strategy():
    return st.builds(
        lambda n, edges: KnowledgeGraph(
            range(n), [(a % n, b % n) for a, b in edges if a % n != b % n]
        ),
        st.integers(min_value=1, max_value=20),
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=80
        ),
    )


class TestAgainstNetworkx:
    @settings(max_examples=80, deadline=None)
    @given(_graph_strategy())
    def test_weak_components_match(self, g):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from(g.edges())
        ours = sorted(sorted(c) for c in weakly_connected_components(g))
        theirs = sorted(sorted(c) for c in nx.weakly_connected_components(nxg))
        assert ours == theirs

    @settings(max_examples=80, deadline=None)
    @given(_graph_strategy())
    def test_strong_components_match(self, g):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(g.nodes)
        nxg.add_edges_from(g.edges())
        ours = sorted(sorted(c) for c in strongly_connected_components(g))
        theirs = sorted(sorted(c) for c in nx.strongly_connected_components(nxg))
        assert ours == theirs


# ----------------------------------------------------------------------
# Union-find and derived adjacency against the code they replaced
# ----------------------------------------------------------------------
def int_components(graph, idx, n) -> List[List[int]]:
    """``arraystate._graph_components`` as it was: its own union-find over
    ``successors()``, components keyed by root in int order."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u in graph.nodes:
        ui = idx[u]
        for v in graph.successors(u):
            ru = find(ui)
            rv = find(idx[v])
            if ru != rv:
                parent[ru] = rv
    components: Dict[int, List[int]] = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    return list(components.values())


def labels_of(components, n):
    """``int_components`` in ``_graph_components``'s form: each node's
    smallest component member, and the component count."""
    labels = [0] * n
    for members in components:
        for m in members:
            labels[m] = min(members)
    return labels, len(components)


def as_lists(labelled):
    labels, count = labelled
    return list(labels), count


class TestUnionFindAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(built_graphs(), st.randoms(use_true_random=False))
    def test_components_match_bfs_and_old_int_view(self, built, rnd):
        graph, edges = built
        assert set(graph.edges()) == edges
        assert weakly_connected_components(graph) == bfs_components(graph.nodes, edges)
        order = graph.nodes
        rnd.shuffle(order)  # int ids need not follow node order
        for ids in (graph.nodes, order):
            idx = {x: i for i, x in enumerate(ids)}
            expected = labels_of(int_components(graph, idx, graph.n), graph.n)
            assert as_lists(_graph_components(graph, idx)) == expected
            if arrayloop.load() is not None:  # the C kernel over the filled slab
                local = _fill_local(graph, ids, idx)
                assert as_lists(_graph_components(graph, idx, local)) == expected

    @settings(max_examples=200, deadline=None)
    @given(built_graphs())
    def test_derived_adjacency_matches_brute_force(self, built):
        graph, edges = built
        for node in graph.nodes:
            preds = frozenset(u for u, v in edges if v == node)
            succs = {v for u, v in edges if u == node}
            assert graph.predecessors(node) == preds
            assert type(graph.predecessors(node)) is frozenset
            assert graph.in_degree(node) == len(preds)
            neighbours = graph.undirected_neighbors(node)
            assert neighbours == succs | preds and type(neighbours) is set
        for query in (graph.predecessors, graph.in_degree, graph.undirected_neighbors):
            with pytest.raises(KeyError):
                query("not-a-node")
