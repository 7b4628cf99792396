"""Tests for the baseline algorithms."""

import math

import pytest

from repro.baselines import (
    run_flooding,
    run_kpv_style,
    run_law_siu,
    run_name_dropper,
    run_strong_election,
    verify_baseline,
)
from repro.graphs.generators import (
    complete_binary_tree,
    directed_cycle,
    directed_path,
    disjoint_union,
    random_strongly_connected,
    random_weakly_connected,
    star,
)
from repro.graphs.knowledge_graph import KnowledgeGraph

GRAPHS = [
    ("star", lambda: star(20)),
    ("path", lambda: directed_path(20)),
    ("tree", lambda: complete_binary_tree(4)),
    ("random", lambda: random_weakly_connected(25, 50, seed=6)),
    ("multi", lambda: disjoint_union(star(7), directed_path(5))),
    ("single", lambda: KnowledgeGraph([0])),
]

SYNC_BASELINES = [
    ("flooding", lambda g: run_flooding(g)),
    ("name-dropper", lambda g: run_name_dropper(g, seed=4)),
    ("law-siu", lambda g: run_law_siu(g, seed=4)),
    ("kpv-style", lambda g: run_kpv_style(g)),
]


@pytest.mark.parametrize("gname,maker", GRAPHS, ids=[g for g, _ in GRAPHS])
@pytest.mark.parametrize("bname,runner", SYNC_BASELINES, ids=[b for b, _ in SYNC_BASELINES])
def test_baseline_solves_discovery(gname, maker, bname, runner):
    graph = maker()
    result = runner(graph)
    verify_baseline(result, graph)


def test_planted_faults_raise_assertion_errors():
    """A broken baseline outcome fails ``verify_baseline`` with an
    ``AssertionError`` naming the broken property."""
    graph = disjoint_union(star(7), directed_path(5))
    result = run_flooding(graph)
    first, second = result.leaders
    result.leaders = [first]
    with pytest.raises(AssertionError, match="has 0 leaders"):
        verify_baseline(result, graph)
    result.leaders = [first, second]
    result.knowledge[first] = result.knowledge[first] | {second}
    with pytest.raises(AssertionError, match="knowledge mismatch"):
        verify_baseline(result, graph)
    result.knowledge[first] = result.knowledge[first] - {second}
    verify_baseline(result, graph)
    result.leader_of[first] = second
    with pytest.raises(AssertionError, match="resolves to"):
        verify_baseline(result, graph)


class TestFlooding:
    def test_everyone_knows_everyone(self):
        graph = random_weakly_connected(15, 30, seed=1)
        from repro.baselines.flooding import FloodingNode, run_flooding

        result = run_flooding(graph)
        assert result.knowledge[result.leaders[0]] == frozenset(graph.nodes)

    def test_most_expensive_in_bits(self):
        graph = random_weakly_connected(40, 120, seed=2)
        flood = run_flooding(graph)
        kpv = run_kpv_style(graph)
        assert flood.total_bits > 10 * kpv.total_bits


class TestNameDropper:
    def test_rounds_are_polylog(self):
        for n in (32, 128):
            graph = random_weakly_connected(n, 2 * n, seed=n)
            result = run_name_dropper(graph, seed=0)
            assert result.rounds <= 4 * math.log2(n) ** 2

    def test_seed_determinism(self):
        graph = random_weakly_connected(20, 40, seed=3)
        a = run_name_dropper(graph, seed=5)
        b = run_name_dropper(graph, seed=5)
        assert a.total_messages == b.total_messages
        assert a.rounds == b.rounds


class TestLawSiu:
    def test_rounds_are_logarithmic_ish(self):
        for n in (32, 128):
            graph = random_weakly_connected(n, 2 * n, seed=n)
            result = run_law_siu(graph, seed=0)
            assert result.rounds <= 30 * max(1, math.log2(n))

    def test_different_seeds_still_correct(self):
        graph = random_weakly_connected(30, 60, seed=7)
        for seed in range(6):
            verify_baseline(run_law_siu(graph, seed=seed), graph)


class TestKPVStyle:
    def test_fully_deterministic(self):
        graph = random_weakly_connected(30, 60, seed=8)
        a, b = run_kpv_style(graph), run_kpv_style(graph)
        assert a.total_messages == b.total_messages
        assert a.leaders == b.leaders

    def test_message_count_roughly_n_log_n(self):
        ratios = []
        for n in (32, 128, 512):
            graph = random_weakly_connected(n, 2 * n, seed=n)
            result = run_kpv_style(graph)
            ratios.append(result.total_messages / (n * math.log2(n)))
        assert max(ratios) <= 4.0


class TestStrongElection:
    def test_exact_message_count(self):
        """The Section 1 observation: 2(n-1) messages, token + broadcast."""
        for n in (1, 2, 10, 50):
            graph = random_strongly_connected(n, n, seed=n)
            result = run_strong_election(graph)
            verify_baseline(result, graph)
            assert result.total_messages == 2 * (n - 1)

    def test_max_id_elected(self):
        graph = directed_cycle(12)
        result = run_strong_election(graph)
        assert result.leaders == [11]

    def test_rejects_weakly_connected_input(self):
        with pytest.raises(ValueError):
            run_strong_election(directed_path(5))

    def test_custom_initiator(self):
        graph = directed_cycle(6)
        result = run_strong_election(graph, initiator=3)
        verify_baseline(result, graph)
