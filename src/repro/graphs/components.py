"""Weak and strong connectivity on knowledge graphs.

Resource Discovery is defined per *weakly connected component* (paths in the
induced undirected graph), while the O(n) leader-election observation of
Section 1 applies to *strongly connected* graphs.  Both component
computations are implemented here from first principles (union-find over
the successor sets -- or the C module's over a drawn graph's slab -- and
Tarjan's SCC algorithm); the test suite cross-checks them against
networkx.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable, Dict, List, Optional, Set

from repro.graphs.knowledge_graph import KnowledgeGraph, NodeId

__all__ = [
    "weakly_connected_components",
    "strongly_connected_components",
    "is_weakly_connected",
    "is_strongly_connected",
    "component_of",
]


def weakly_connected_components(graph: KnowledgeGraph) -> List[Set[NodeId]]:
    """Return the weakly connected components, ordered by first node seen.

    Each node goes under a root, then nodes are grouped by root in node
    order.  A drawn graph's slab is labelled by the C module's
    ``component_labels`` (the root is the component's smallest id), so its
    successor sets are never built here; successor sets get a union-find
    in place: each successor's root goes under its knower's root.
    """
    root_of = _slab_roots(graph) or _set_roots(graph)
    components: Dict[NodeId, Set[NodeId]] = {}
    for node in graph._nodes:
        components.setdefault(root_of(node), set()).add(node)
    return list(components.values())


def _slab_roots(graph: KnowledgeGraph) -> Optional[Callable[[NodeId], NodeId]]:
    """Each node's component label off a drawn graph's CSR slab, or ``None``
    for a set-built graph (and for a slab without the C module)."""
    csr = graph.slab()
    if csr is None:
        return None
    from repro.core import arrayloop  # repro.core imports this package

    module = arrayloop.load()
    if module is None:
        return None
    labels = array("i", bytes(4 * graph.n))
    module.component_labels(*csr, labels)
    return labels.__getitem__


def _set_roots(graph: KnowledgeGraph) -> Callable[[NodeId], NodeId]:
    """Each node's union-find root over the successor sets."""
    succ = graph._succ
    parent = {node: node for node in succ}
    for u, known in succ.items():
        if known:
            root = _root(parent, u)
            for v in known:
                if parent[v] != root:
                    other = _root(parent, v)
                    if other != root:
                        parent[other] = root
                    parent[v] = root
    return partial(_root, parent)


def _root(parent: Dict[NodeId, NodeId], node: NodeId) -> NodeId:
    """``node``'s root, halving the path on the way (O(log n) amortized)."""
    up = parent[node]
    while up != node:
        parent[node] = node = parent[up]
        up = parent[node]
    return node


def component_of(graph: KnowledgeGraph, node: NodeId) -> Set[NodeId]:
    """Return the weakly connected component containing ``node``."""
    for component in weakly_connected_components(graph):
        if node in component:
            return component
    raise KeyError(f"unknown node {node!r}")


def is_weakly_connected(graph: KnowledgeGraph) -> bool:
    """Whether the whole graph is one weakly connected component."""
    return len(weakly_connected_components(graph)) <= 1


def strongly_connected_components(graph: KnowledgeGraph) -> List[Set[NodeId]]:
    """Tarjan's algorithm, iterative to dodge the recursion limit."""
    index_of: Dict[NodeId, int] = {}
    lowlink: Dict[NodeId, int] = {}
    on_stack: Set[NodeId] = set()
    stack: List[NodeId] = []
    components: List[Set[NodeId]] = []
    counter = 0

    for root in graph.nodes:
        if root in index_of:
            continue
        # Each frame is (node, iterator over successors).
        work = [(root, iter(sorted(graph.successors(root), key=repr)))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append(
                        (succ, iter(sorted(graph.successors(succ), key=repr)))
                    )
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set[NodeId] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def is_strongly_connected(graph: KnowledgeGraph) -> bool:
    """Whether the whole graph is one strongly connected component."""
    return len(strongly_connected_components(graph)) <= 1
