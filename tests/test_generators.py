"""Unit tests for the graph generators."""

import random

import pytest

from repro.graphs import generators
from repro.graphs.components import (
    is_strongly_connected,
    is_weakly_connected,
    weakly_connected_components,
)
from repro.graphs.generators import (
    complete_binary_tree,
    complete_graph,
    dense_layered,
    directed_cycle,
    directed_path,
    disjoint_union,
    erdos_renyi,
    inverted_star,
    preferential_attachment,
    random_arborescence,
    random_strongly_connected,
    random_weakly_connected,
    star,
)


class TestDeterministicFamilies:
    def test_star(self):
        g = star(5)
        assert g.n == 5
        assert g.n_edges == 4
        assert g.out_degree(0) == 4
        assert all(g.in_degree(i) == 1 for i in range(1, 5))
        assert is_weakly_connected(g)

    def test_inverted_star(self):
        g = inverted_star(5)
        assert g.in_degree(0) == 4
        assert all(g.out_degree(i) == 1 for i in range(1, 5))

    def test_path(self):
        g = directed_path(4)
        assert g.n_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(2, 3)
        assert not is_strongly_connected(g)

    def test_cycle(self):
        g = directed_cycle(4)
        assert g.n_edges == 4
        assert is_strongly_connected(g)

    def test_cycle_singleton(self):
        assert directed_cycle(1).n_edges == 0

    def test_complete_binary_tree_structure(self):
        g = complete_binary_tree(3)
        assert g.n == 7
        assert g.n_edges == 6
        assert g.successors(0) == frozenset({1, 2})
        assert g.successors(1) == frozenset({3, 4})
        # All edges away from root; leaves have no successors.
        assert all(not g.successors(k) for k in (3, 4, 5, 6))

    def test_tree_height_validation(self):
        with pytest.raises(ValueError):
            complete_binary_tree(0)

    def test_complete_graph(self):
        g = complete_graph(4)
        assert g.n_edges == 12
        assert is_strongly_connected(g)

    def test_dense_layered(self):
        g = dense_layered(3, 2)
        assert g.n == 6
        assert g.n_edges == 2 * 2 * 2
        assert is_weakly_connected(g)
        with pytest.raises(ValueError):
            dense_layered(0, 2)

    def test_positive_n_required(self):
        for maker in (star, inverted_star, directed_path, directed_cycle, complete_graph):
            with pytest.raises(ValueError):
                maker(0)


class TestRandomFamilies:
    def test_arborescence_is_spanning(self):
        g = random_arborescence(40, seed=1)
        assert g.n_edges == 39
        assert is_weakly_connected(g)

    def test_random_weakly_connected(self):
        g = random_weakly_connected(30, 50, seed=2)
        assert is_weakly_connected(g)
        assert g.n_edges >= 29  # the backbone

    def test_random_weakly_connected_zero_extra(self):
        g = random_weakly_connected(10, 0, seed=0)
        assert g.n_edges == 9

    def test_negative_extra_rejected(self):
        with pytest.raises(ValueError):
            random_weakly_connected(5, -1)

    def test_erdos_renyi_connectivity_overlay(self):
        g = erdos_renyi(25, 0.01, seed=4)
        assert is_weakly_connected(g)

    def test_erdos_renyi_no_overlay_can_disconnect(self):
        g = erdos_renyi(25, 0.0, seed=4, ensure_weakly_connected=False)
        assert g.n_edges == 0
        assert len(weakly_connected_components(g)) == 25

    def test_erdos_renyi_probability_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5)

    def test_preferential_attachment(self):
        g = preferential_attachment(50, 3, seed=5)
        assert is_weakly_connected(g)
        assert all(g.out_degree(i) <= 3 for i in g.nodes)
        with pytest.raises(ValueError):
            preferential_attachment(5, 0)

    def test_seed_determinism(self):
        for maker in (
            lambda s: random_weakly_connected(20, 30, seed=s),
            lambda s: erdos_renyi(15, 0.2, seed=s),
            lambda s: preferential_attachment(20, 2, seed=s),
            lambda s: random_arborescence(20, seed=s),
            lambda s: random_strongly_connected(20, 10, seed=s),
        ):
            a, b = maker(9), maker(9)
            assert list(a.edges()) == list(b.edges())
            c = maker(10)
            # Different seeds should (essentially always) differ.
            assert list(a.edges()) != list(c.edges())


class TestExtraEdgeBudget:
    """The extra-edge loop stops at the edges a graph lacks: asking for
    more than fit must not spend 50 draws per requested edge."""

    @pytest.mark.parametrize(
        "maker,n,backbone",
        [
            (random_strongly_connected, 1, 0),
            (random_strongly_connected, 2, 2),
            (random_strongly_connected, 3, 3),
            (random_weakly_connected, 1, 0),
            (random_weakly_connected, 2, 1),
            (random_weakly_connected, 3, 2),
        ],
    )
    def test_draws_bounded_by_edges_left(self, monkeypatch, maker, n, backbone):
        draws = []

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(generators.random, "Random", CountingRandom)
        g = maker(n, 20000, seed=0)
        left = n * (n - 1) - backbone
        assert len(draws) <= 50 * (left + 1)
        assert g.n_edges == n * (n - 1)  # every missing edge was drawn


class TestDisjointUnion:
    def test_relabelling(self):
        g = disjoint_union(star(3), directed_path(2))
        assert g.n == 5
        assert g.n_edges == 3
        comps = weakly_connected_components(g)
        assert sorted(len(c) for c in comps) == [2, 3]

    def test_empty_union(self):
        assert disjoint_union().n == 0


class TestGrid:
    def test_structure(self):
        from repro.graphs.generators import grid

        g = grid(3, 4)
        assert g.n == 12
        assert g.has_edge(0, 1)  # right
        assert g.has_edge(0, 4)  # down
        assert not g.has_edge(3, 4)  # no wraparound
        assert g.n_edges == 3 * 3 + 2 * 4  # right edges + down edges

    def test_bidirectional(self):
        from repro.graphs.generators import grid

        g = grid(2, 2, bidirectional=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        from repro.graphs.components import is_strongly_connected

        assert is_strongly_connected(g)

    def test_weakly_connected(self):
        from repro.graphs.generators import grid
        from repro.graphs.components import is_weakly_connected

        assert is_weakly_connected(grid(5, 7))

    def test_validation(self):
        from repro.graphs.generators import grid

        with pytest.raises(ValueError):
            grid(0, 3)


class TestCommunityGraph:
    def test_structure_and_connectivity(self):
        from repro.graphs.generators import community_graph
        from repro.graphs.components import is_weakly_connected

        g = community_graph(4, 10, p_internal=0.2, bridges=2, seed=3)
        assert g.n == 40
        assert is_weakly_connected(g)

    def test_single_community(self):
        from repro.graphs.generators import community_graph
        from repro.graphs.components import is_weakly_connected

        g = community_graph(1, 8, seed=1)
        assert g.n == 8
        assert is_weakly_connected(g)

    def test_determinism(self):
        from repro.graphs.generators import community_graph

        a = community_graph(3, 6, seed=9)
        b = community_graph(3, 6, seed=9)
        assert list(a.edges()) == list(b.edges())

    def test_validation(self):
        from repro.graphs.generators import community_graph

        with pytest.raises(ValueError):
            community_graph(0, 5)
        with pytest.raises(ValueError):
            community_graph(2, 5, p_internal=2.0)
        with pytest.raises(ValueError):
            community_graph(2, 5, bridges=0)

    def test_discovery_on_communities(self):
        from repro.graphs.generators import community_graph
        from tests.conftest import run_and_verify

        graph = community_graph(3, 12, p_internal=0.25, seed=4)
        for variant in ("generic", "bounded", "adhoc"):
            run_and_verify(variant, graph, seed=2)
