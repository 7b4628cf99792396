"""The knowledge-graph model of the paper (Section 1).

A *knowledge graph* is a directed graph ``G = (V, E)`` over nodes with
unique ids, where an edge ``(u -> v)`` records that ``u`` knows ``v``'s id
(think: IP address) and may therefore send it messages.  The edge set only
ever grows: whenever a node receives an id it did not know, the
corresponding edge is added.

This module holds the *initial* graph ``(V, E0)`` handed to the algorithms;
the dynamic knowledge accumulated during a protocol run lives in the
protocol nodes themselves (``local``/``more``/``done``/... sets), not here.

Storage is one representation at a time.  A graph built node by node and
edge by edge holds successor sets (``_succ[u]`` is ``u``'s initial
``local``).  A graph the native generator drew (:meth:`from_slab`) holds
a CSR slab instead, ``(off, mem)`` (:meth:`slab`): node ``u``'s successors are
``mem[off[u]:off[u + 1]]``, ids ``0..n-1``; the array core reads the
slab as its ``local`` column as it is, and
:func:`~repro.graphs.components.weakly_connected_components` labels it
natively.  The sets are built from it on the
first access to ``_succ`` -- any method below that reads them,
``add_node`` and ``add_edge`` included -- each filled in slab order, the
order the Python generator adds them in, so the same sets with the same
iteration order; the slab is dropped then.  ``predecessors``,
``in_degree`` and ``undirected_neighbors`` scan all the sets, O(n) per
call.

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

    @classmethod
    def from_slab(cls, off, mem) -> "KnowledgeGraph":
        """The graph over ids ``0..len(off)-2`` whose node ``u`` knows
        ``mem[off[u]:off[u + 1]]``: a CSR slab (two ``array('i')``) taken
        as it is, holding no loop, no duplicate and no id out of range."""
        graph = cls.__new__(cls)
        graph._nodes = range(len(off) - 1)
        graph._csr = (off, mem)
        graph._n_edges = len(mem)
        return graph

    def slab(self):
        """``(off, mem)`` while the graph is still the slab it was born as
        (:meth:`from_slab`), else ``None``; never builds the sets."""
        return self.__dict__.get("_csr")

    def __getattr__(self, name):
        # Reached only for attributes the instance lacks: a slab-born
        # graph's ``_succ``, built here once (it then shadows this hook).
        csr = self.__dict__.pop("_csr", None) if name == "_succ" else None
        if csr is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        off, mem = csr
        self._succ = {u: set(mem[off[u] : off[u + 1]]) for u in self._nodes}
        self._nodes = list(self._nodes)
        return self._succ

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
