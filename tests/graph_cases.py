"""Graph cases shared by the connectivity and column tests: the
breadth-first weak-component reference and the hypothesis graph strategy
(no networkx, so the sanitizer suites can import it)."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.graphs.knowledge_graph import KnowledgeGraph


def bfs_components(nodes, edges):
    """The breadth-first weak components the union-find replaced, over
    brute-force undirected neighbours: sets in order of first node seen."""
    neighbours = {node: set() for node in nodes}
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    visited = set()
    components = []
    for start in nodes:
        if start in visited:
            continue
        component = set()
        frontier = [start]
        visited.add(start)
        while frontier:
            node = frontier.pop()
            component.add(node)
            for neighbor in neighbours[node]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        components.append(component)
    return components


ID_KINDS = {
    "int": lambda i: 1000 * i + 7,  # sparse ints: set layouts collide
    "str": lambda i: f"peer-{i}",
    "tuple": lambda i: (i % 3, f"x{i}"),
}


@st.composite
def built_graphs(draw):
    """``(graph, edges)``: ids of one kind in a drawn order, some nodes and
    edges added after construction, self-loop pairs among the inputs;
    ``edges`` is the brute-force edge set."""
    make = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    n = draw(st.integers(0, 16))
    ids = [make(i) for i in draw(st.permutations(range(n)))]
    pairs = (
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=48))
        if n
        else []
    )
    split = draw(st.integers(0, n))
    first = [(ids[a], ids[b]) for a, b in pairs if a < split and b < split]
    graph = KnowledgeGraph(ids[:split], first)
    for node in ids[split:]:
        graph.add_node(node)
    for a, b in pairs:
        graph.add_edge(ids[a], ids[b])
    return graph, {(ids[a], ids[b]) for a, b in pairs if a != b}
