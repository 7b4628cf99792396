"""The knowledge-graph model of the paper (Section 1).

A *knowledge graph* is a directed graph ``G = (V, E)`` over nodes with
unique ids, where an edge ``(u -> v)`` records that ``u`` knows ``v``'s id
(think: IP address) and may therefore send it messages.  The edge set only
ever grows: whenever a node receives an id it did not know, the
corresponding edge is added.

This module holds the *initial* graph ``(V, E0)`` handed to the algorithms;
the dynamic knowledge accumulated during a protocol run lives in the
protocol nodes themselves (``local``/``more``/``done``/... sets), not here.

Storage is successor sets only (``_succ[u]`` is ``u``'s initial
``local``); ``predecessors``, ``in_degree`` and ``undirected_neighbors``
scan all of them, O(n) per call.

Node ids may be any hashable, totally orderable values; the algorithms
compare ids to break ties exactly as the paper's ``(phase, id)``
lexicographic rule requires.  Integers are the common case and what the
generators produce.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Set, Tuple

NodeId = Hashable

__all__ = ["KnowledgeGraph", "NodeId"]


class KnowledgeGraph:
    """An immutable-by-convention directed knowledge graph ``(V, E0)``.

    Parameters
    ----------
    nodes:
        Iterable of node ids.  Ids must be unique and mutually orderable.
    edges:
        Iterable of ``(u, v)`` pairs meaning *u initially knows v*.
        Self-loops are ignored (a node trivially knows itself); endpoints
        must be in ``nodes``.
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        edges: Iterable[Tuple[NodeId, NodeId]] = (),
    ) -> None:
        self._nodes: List[NodeId] = []
        self._succ: Dict[NodeId, Set[NodeId]] = {}
        self._n_edges = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (used by the dynamic-additions machinery)."""
        if node in self._succ:
            raise ValueError(f"duplicate node id {node!r}")
        self._nodes.append(node)
        self._succ[node] = set()

    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the knowledge edge ``u -> v``; return ``True`` if new.

        Self-loops are silently dropped, matching the model (every node
        knows its own id; the papers' ``E`` never contains self-loops).
        """
        if u not in self._succ:
            raise KeyError(f"unknown node {u!r}")
        if v not in self._succ:
            raise KeyError(f"unknown node {v!r}")
        if u == v or v in self._succ[u]:
            return False
        self._succ[u].add(v)
        self._n_edges += 1
        return True

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeId]:
        """Node ids in insertion order (a copy)."""
        return list(self._nodes)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        """Number of directed edges in ``E0``."""
        return self._n_edges

    def edges(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate over directed edges in a deterministic order."""
        for u in self._nodes:
            for v in sorted(self._succ[u], key=repr):
                yield (u, v)

    def successors(self, node: NodeId) -> FrozenSet[NodeId]:
        """Ids initially known to ``node`` (its initial ``local`` set)."""
        return frozenset(self._succ[node])

    def predecessors(self, node: NodeId) -> FrozenSet[NodeId]:
        """Nodes that initially know ``node`` (O(n): a scan)."""
        if node not in self._succ:
            raise KeyError(node)
        return frozenset(u for u, known in self._succ.items() if node in known)

    def out_degree(self, node: NodeId) -> int:
        return len(self._succ[node])

    def in_degree(self, node: NodeId) -> int:
        return len(self.predecessors(node))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return u in self._succ and v in self._succ[u]

    def __contains__(self, node: NodeId) -> bool:
        return node in self._succ

    def __repr__(self) -> str:
        return f"KnowledgeGraph(n={self.n}, m={self.n_edges})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "KnowledgeGraph":
        """Return an independent copy."""
        return KnowledgeGraph(self._nodes, ((u, v) for u, v in self.edges()))

    def reversed(self) -> "KnowledgeGraph":
        """Return the graph with every edge direction flipped."""
        return KnowledgeGraph(self._nodes, ((v, u) for u, v in self.edges()))

    def undirected_neighbors(self, node: NodeId) -> Set[NodeId]:
        """Neighbours ignoring edge direction (O(n), like ``predecessors``)."""
        return set(self._succ[node]) | self.predecessors(node)
