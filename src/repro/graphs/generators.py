"""Knowledge-graph generators for the experiment suite.

Each generator returns a :class:`~repro.graphs.knowledge_graph.KnowledgeGraph`
whose node ids are the integers ``0..n-1`` (ids double as tie-breakers in the
protocols, so distinct integers are exactly what the model wants).  All
randomized generators take an explicit ``seed`` and are deterministic given
it.

The families cover the regimes the paper's analysis distinguishes:

* sparse weakly connected graphs (``|E0| = O(n)``): stars, paths, trees,
  random arborescences -- where even the trivial algorithm is optimal;
* non-sparse weakly connected graphs (``|E0| = Omega(n log n)``): dense
  Erdős–Rényi and layered graphs -- "the algorithmic challenge" (Section 1);
* the lower-bound topology: complete binary trees with edges directed toward
  the leaves (Theorem 1);
* strongly connected graphs for the Section 1 observation (EXP-13).
"""

from __future__ import annotations

import random
from random import Random as _Random  # the one type the C draw copies
from typing import List, Optional, Tuple

from repro.graphs.knowledge_graph import KnowledgeGraph

__all__ = [
    "grid",
    "community_graph",
    "star",
    "inverted_star",
    "directed_path",
    "directed_cycle",
    "complete_binary_tree",
    "random_arborescence",
    "erdos_renyi",
    "dense_layered",
    "preferential_attachment",
    "random_weakly_connected",
    "random_strongly_connected",
    "complete_graph",
    "disjoint_union",
]


def star(n: int) -> KnowledgeGraph:
    """Node 0 knows everybody: edges ``0 -> i`` for all ``i > 0``."""
    _require_positive(n)
    return KnowledgeGraph(range(n), ((0, i) for i in range(1, n)))


def inverted_star(n: int) -> KnowledgeGraph:
    """Everybody knows node 0: edges ``i -> 0`` for all ``i > 0``."""
    _require_positive(n)
    return KnowledgeGraph(range(n), ((i, 0) for i in range(1, n)))


def directed_path(n: int) -> KnowledgeGraph:
    """A directed path ``0 -> 1 -> ... -> n-1``."""
    _require_positive(n)
    return KnowledgeGraph(range(n), ((i, i + 1) for i in range(n - 1)))


def directed_cycle(n: int) -> KnowledgeGraph:
    """A directed cycle; the smallest strongly connected family."""
    _require_positive(n)
    if n == 1:
        return KnowledgeGraph([0])
    return KnowledgeGraph(range(n), ((i, (i + 1) % n) for i in range(n)))


def complete_binary_tree(height: int) -> KnowledgeGraph:
    """The Theorem 1 topology ``T(i)``: a complete rooted binary tree with
    ``n = 2**height - 1`` nodes and all edges directed toward the leaves.

    Nodes use heap numbering: the root is 0 and node ``k`` has children
    ``2k+1`` and ``2k+2``.
    """
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    n = 2**height - 1
    edges = []
    for k in range(n):
        for child in (2 * k + 1, 2 * k + 2):
            if child < n:
                edges.append((k, child))
    return KnowledgeGraph(range(n), edges)


def random_arborescence(n: int, seed: int = 0) -> KnowledgeGraph:
    """A random tree with every edge directed away from the root (node 0).

    Each node ``i > 0`` attaches under a uniformly random earlier node, so
    the result is sparse (``|E0| = n - 1``) and weakly connected but almost
    never strongly connected.
    """
    _require_positive(n)
    return _drawn(n, 0, random.Random(seed))


def erdos_renyi(
    n: int,
    p: float,
    seed: int = 0,
    *,
    ensure_weakly_connected: bool = True,
) -> KnowledgeGraph:
    """Directed G(n, p).

    With ``ensure_weakly_connected`` (the default), a random arborescence is
    overlaid first so every sample is a single weakly connected component --
    the precondition of the Bounded model -- without distorting the density
    regime for ``p`` above the connectivity threshold.
    """
    _require_positive(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    graph = _arborescence(n, rng) if ensure_weakly_connected else KnowledgeGraph(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                graph.add_edge(u, v)
    return graph


def dense_layered(layers: int, width: int) -> KnowledgeGraph:
    """A dense weakly connected DAG: ``layers`` layers of ``width`` nodes,
    with every node knowing every node of the next layer.

    ``|E0| = (layers - 1) * width**2``, i.e. ``Theta(n * width)`` -- the
    non-sparse regime where resource discovery is interesting.
    """
    if layers < 1 or width < 1:
        raise ValueError("layers and width must be >= 1")
    n = layers * width
    edges = []
    for layer in range(layers - 1):
        for u in range(layer * width, (layer + 1) * width):
            for v in range((layer + 1) * width, (layer + 2) * width):
                edges.append((u, v))
    return KnowledgeGraph(range(n), edges)


def preferential_attachment(n: int, out_degree: int, seed: int = 0) -> KnowledgeGraph:
    """A scale-free-ish digraph: node ``i`` links to ``out_degree`` targets
    chosen among ``0..i-1`` with probability proportional to in-degree + 1.

    Models the peer-to-peer bootstrap graphs of the paper's motivation,
    where new peers know a few well-known peers.
    """
    _require_positive(n)
    if out_degree < 1:
        raise ValueError(f"out_degree must be >= 1, got {out_degree}")
    rng = random.Random(seed)
    graph = KnowledgeGraph(range(n))
    # Repeated-target list realisation of preferential attachment.
    attractor_pool: List[int] = [0]
    for i in range(1, n):
        targets = set()
        wanted = min(out_degree, i)
        while len(targets) < wanted:
            targets.add(rng.choice(attractor_pool))
        for t in sorted(targets):
            graph.add_edge(i, t)
            attractor_pool.append(t)
        attractor_pool.append(i)
    return graph


def random_weakly_connected(n: int, extra_edges: int, seed: int = 0) -> KnowledgeGraph:
    """A random arborescence plus ``extra_edges`` uniform random edges.

    The workhorse family for property-based testing: always one weak
    component, tunable density, arbitrary direction mix.
    """
    _require_positive(n)
    if extra_edges < 0:
        raise ValueError(f"extra_edges must be >= 0, got {extra_edges}")
    return _drawn(n, extra_edges, random.Random(seed))


def random_strongly_connected(n: int, extra_edges: int, seed: int = 0) -> KnowledgeGraph:
    """A directed cycle plus random chords: always strongly connected."""
    graph = directed_cycle(n)
    _add_random_edges(graph, random.Random(seed), extra_edges)
    return graph


def _drawn(n: int, extra_edges: int, rng: random.Random) -> KnowledgeGraph:
    """:func:`_arborescence` plus :func:`_add_random_edges` on ``rng``.

    Where the C module loads and ``rng`` is exactly a ``random.Random``,
    its ``draw_graph`` replays both loops draw for draw on the generator's
    state, copied in place, and the graph is born as the CSR slab the
    array core reads (:meth:`KnowledgeGraph.from_slab`); otherwise -- a
    subclass may replace ``getrandbits`` -- the loops run here, and they
    stay the reference either way.
    """
    from repro.core import arrayloop  # repro.core imports this package

    module = arrayloop.load()
    if module is None or type(rng) is not _Random:
        graph = _arborescence(n, rng)
        _add_random_edges(graph, rng, extra_edges)
        return graph
    # never more than are missing: the same budget, and an int the C call takes
    extra_edges = min(extra_edges, n * (n - 1))
    return KnowledgeGraph.from_slab(*module.draw_graph(rng, n, extra_edges))


def _arborescence(n: int, rng: random.Random) -> KnowledgeGraph:
    """Node ``i > 0`` under ``rng.randrange(i)``, drawn as _add_random_edges draws."""
    graph = KnowledgeGraph(range(n))
    succ = graph._succ
    getrandbits = rng.getrandbits
    for i in range(1, n):
        bits = i.bit_length()
        parent = getrandbits(bits)
        while parent >= i:
            parent = getrandbits(bits)
        succ[parent].add(i)
    graph._n_edges = n - 1
    return graph


def _add_random_edges(graph: KnowledgeGraph, rng: random.Random, extra_edges: int) -> None:
    """Add up to ``extra_edges`` uniform random edges, no more than are missing,
    giving up after ``50 * (budget + 1)`` drawn pairs.  ``rng.randrange(n)``
    is written out as ``Random._randbelow`` draws it: same stream, same graphs."""
    n = graph.n
    succ = graph._succ
    budget = min(extra_edges, n * (n - 1) - graph.n_edges)
    max_attempts = 50 * (budget + 1)
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    added = attempts = 0
    while added < budget and attempts < max_attempts:
        attempts += 1
        u = getrandbits(bits)
        while u >= n:
            u = getrandbits(bits)
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        if u != v:
            known = succ[u]
            if v not in known:
                known.add(v)
                added += 1
    graph._n_edges += added


def complete_graph(n: int) -> KnowledgeGraph:
    """Every node knows every other node (both directions)."""
    _require_positive(n)
    return KnowledgeGraph(
        range(n), ((u, v) for u in range(n) for v in range(n) if u != v)
    )


def disjoint_union(*graphs: KnowledgeGraph) -> KnowledgeGraph:
    """Combine graphs over disjoint relabelled integer ids.

    Used to exercise the per-component semantics of the problem statement
    (one leader per weakly connected component).
    """
    nodes: List[int] = []
    edges: List[Tuple[int, int]] = []
    offset = 0
    for graph in graphs:
        relabel = {node: offset + i for i, node in enumerate(graph.nodes)}
        nodes.extend(relabel[node] for node in graph.nodes)
        edges.extend((relabel[u], relabel[v]) for u, v in graph.edges())
        offset += graph.n
    return KnowledgeGraph(nodes, edges)


def grid(rows: int, cols: int, *, bidirectional: bool = False) -> KnowledgeGraph:
    """A rows x cols grid; each cell knows its right and down neighbours
    (and the reverse directions too when ``bidirectional``).

    Node ``(r, c)`` has id ``r * cols + c``.  Grids model spatial overlays
    (sensor fields, mesh networks) and have Theta(sqrt n) diameter -- the
    slowest-information-spread regime among our families.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            here = r * cols + c
            if c + 1 < cols:
                edges.append((here, here + 1))
            if r + 1 < rows:
                edges.append((here, here + cols))
    graph = KnowledgeGraph(range(n), edges)
    if bidirectional:
        for u, v in list(graph.edges()):
            graph.add_edge(v, u)
    return graph


def community_graph(
    n_communities: int,
    community_size: int,
    *,
    p_internal: float = 0.3,
    bridges: int = 1,
    seed: int = 0,
) -> KnowledgeGraph:
    """A planted-partition digraph: dense random knowledge inside each
    community, ``bridges`` random directed links from each community to the
    next (mod n_communities).

    Models federated peer groups (each data centre's peers know each other
    well, few cross-links) -- the regime where discovery cost is dominated
    by intra-cluster traffic but correctness hinges on the sparse bridges.
    Weak connectivity is guaranteed by a spanning backbone inside each
    community plus the ring of bridges.
    """
    if n_communities < 1 or community_size < 1:
        raise ValueError("n_communities and community_size must be >= 1")
    if not 0.0 <= p_internal <= 1.0:
        raise ValueError(f"p_internal must be in [0, 1], got {p_internal}")
    if bridges < 1:
        raise ValueError(f"bridges must be >= 1, got {bridges}")
    rng = random.Random(seed)
    n = n_communities * community_size
    graph = KnowledgeGraph(range(n))
    for community in range(n_communities):
        base = community * community_size
        members = range(base, base + community_size)
        # Spanning backbone keeps the community weakly connected.
        for offset in range(1, community_size):
            graph.add_edge(base + rng.randrange(offset), base + offset)
        for u in members:
            for v in members:
                if u != v and rng.random() < p_internal:
                    graph.add_edge(u, v)
    if n_communities > 1:
        for community in range(n_communities):
            target_base = ((community + 1) % n_communities) * community_size
            base = community * community_size
            for _ in range(bridges):
                graph.add_edge(
                    base + rng.randrange(community_size),
                    target_base + rng.randrange(community_size),
                )
    return graph


def _require_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
