"""Execution results of the discovery algorithms.

A :class:`DiscoveryResult` is the quiescent-state snapshot the problem
definition talks about: who is a leader, who belongs to whom, what the
leaders know, and what the execution cost in messages and bits -- the
quantities every theorem of the paper bounds.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import AbstractSet, Dict, Hashable, List, Set
from weakref import ref

from repro.core.node import STATUS_NAMES, DiscoveryNode
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.network import Simulator
from repro.sim.trace import MessageStats

NodeId = Hashable

__all__ = [
    "DiscoveryResult",
    "collect_columns",
    "collect_result",
    "int_view",
    "resolve_leader",
]


@dataclass
class DiscoveryResult:
    """Quiescent-state snapshot of one discovery execution.

    Attributes
    ----------
    variant:
        ``"generic"``, ``"bounded"`` or ``"adhoc"``.
    leaders:
        Ids of nodes in a leader state, sorted by repr.
    leader_of:
        For every node, the leader its ``next``-pointer chain resolves to
        (itself for leaders).  For generic/bounded this chain has length
        <= 1 at quiescence; for Ad-hoc it may be longer (property 3b).
    knowledge:
        ``{leader: frozen set of ids it gathered}`` including itself: a
        ``frozenset``, or on the object path the leader's
        :class:`~repro.core.node.CensusView`, which compares, hashes and
        pickles as one.
    statuses:
        Final protocol state per node.
    path_lengths:
        ``next``-chain length from each node to its leader.
    stats:
        Message/bit counters for the whole execution.
    steps:
        Scheduler steps executed (wake-ups + deliveries).

    ``leader_of``, ``knowledge``, ``statuses`` and ``path_lengths`` are
    dicts on the object path (:func:`collect_result`) and read-only views
    over the core's ints on the direct entry (:func:`collect_columns`):
    the same keys in the same order, equal to those dicts, and pickled and
    copied as them.
    """

    variant: str
    n: int
    n_edges: int
    leaders: List[NodeId]
    leader_of: Mapping[NodeId, NodeId]
    knowledge: Mapping[NodeId, AbstractSet[NodeId]]
    statuses: Mapping[NodeId, str]
    path_lengths: Mapping[NodeId, int]
    stats: MessageStats
    steps: int

    @property
    def total_messages(self) -> int:
        return self.stats.total_messages

    @property
    def total_bits(self) -> int:
        return self.stats.total_bits

    @property
    def max_path_length(self) -> int:
        return max(self.path_lengths.values(), default=0)

    def leader_for(self, node: NodeId) -> NodeId:
        return self.leader_of[node]

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.variant}: n={self.n} |E0|={self.n_edges} "
            f"leaders={len(self.leaders)} messages={self.total_messages} "
            f"bits={self.total_bits} steps={self.steps}"
        )

    def __getstate__(self):
        # Pickle and copy as collect_result's result: each view as its dict.
        state = self.__dict__.copy()
        for name, value in state.items():
            if type(value) is _ColumnView:
                state[name] = dict(value.items())
        return state


class _ColumnView(Mapping):
    """A read-only ``{id: value}`` over one column of a discovery read off
    the array core: ``x`` maps to ``decode(column[at[x]])``, and the keys
    iterate as ``keys`` (graph order; the leaders' for ``knowledge``),
    ``column`` in the same order.  ``run`` is the one record the four views
    of a result share: the graph they were read on and the ints
    :func:`int_view` hands the checker."""

    __slots__ = ("run", "_keys", "_at", "_column", "_decode")

    def __init__(self, run, keys, at, column, decode) -> None:
        self.run = run
        self._keys = keys
        self._at = at
        self._column = column
        self._decode = decode

    def __getitem__(self, x):
        return self._decode(self._column[self._at[x]])

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __reduce__(self):
        return (dict, (dict(self.items()),))

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def resolve_leader(nodes: Dict[NodeId, DiscoveryNode], start: NodeId) -> NodeId:
    """Follow ``next`` pointers from ``start`` to a leader (cycle-guarded)."""
    seen: Set[NodeId] = set()
    current = start
    while True:
        node = nodes[current]
        if node.is_leader:
            return current
        if node.next == current or current in seen:
            raise RuntimeError(
                f"next-pointer chain from {start!r} stuck at {current!r} "
                f"(status {node.status})"
            )
        seen.add(current)
        current = node.next


def collect_result(
    graph: KnowledgeGraph,
    nodes: Dict[NodeId, DiscoveryNode],
    sim: Simulator,
    variant: str,
) -> DiscoveryResult:
    """Snapshot the quiescent system into a :class:`DiscoveryResult`."""
    leaders = sorted(
        (node_id for node_id, node in nodes.items() if node.is_leader), key=repr
    )
    leader_of: Dict[NodeId, NodeId] = {}
    path_lengths: Dict[NodeId, int] = {}
    for node_id in nodes:
        current, seen = node_id, set()
        while not nodes[current].is_leader:
            if current in seen:
                raise RuntimeError(f"next-pointer cycle through {current!r}")
            seen.add(current)
            current = nodes[current].next
        leader_of[node_id] = current
        path_lengths[node_id] = len(seen)
    knowledge = {
        leader: nodes[leader].knowledge for leader in leaders
    }
    statuses = {node_id: node.status for node_id, node in nodes.items()}
    return DiscoveryResult(
        variant=variant,
        n=graph.n,
        n_edges=graph.n_edges,
        leaders=leaders,
        leader_of=leader_of,
        knowledge=knowledge,
        statuses=statuses,
        path_lengths=path_lengths,
        stats=sim.stats.snapshot(),
        steps=sim.steps,
    )


def collect_columns(
    graph, core, variant: str, stats, steps: int, components=None
) -> DiscoveryResult:
    """:func:`collect_result` read off a quiescent array core's columns:
    the same fields in the same orders, the same error on a leaderless
    chain.  The id-keyed fields are views over the core's ints, which keep
    the index view ``verify_quiescent`` reads (:func:`int_view`);
    ``components`` is the graph's ``arraystate._graph_components``, labelled
    here when the caller has none.
    """
    if components is None:
        from repro.core.arraystate import _graph_components

        components = _graph_components(graph, core.idx)
    ids, idx = core.ids, core.idx
    leaders, resolved, lengths = core.chains()
    leaders.sort(key=core.rrank.__getitem__)
    known = [core.knowledge(i) for i in leaders]
    status = bytes(core.status)
    run = (
        ref(graph),
        (graph.n, graph.n_edges),
        (ids, components, status, leaders, resolved, lengths, dict(zip(leaders, known))),
    )
    heads = [ids[i] for i in leaders]
    return DiscoveryResult(
        variant=variant,
        n=graph.n,
        n_edges=graph.n_edges,
        leaders=heads[:],
        leader_of=_ColumnView(run, ids, idx, resolved, ids.__getitem__),
        knowledge=_ColumnView(
            run, heads, dict(zip(heads, range(len(heads)))), known,
            lambda ints: frozenset(map(ids.__getitem__, ints)),
        ),
        statuses=_ColumnView(run, ids, idx, status, STATUS_NAMES.__getitem__),
        path_lengths=_ColumnView(run, ids, idx, lengths, int),
        stats=stats,
        steps=steps,
    )


def int_view(result: DiscoveryResult, graph):
    """``verify_quiescent``'s arguments after ``variant`` for a result
    :func:`collect_columns` read off a run on ``graph`` -- this very object,
    grown by no node or edge since -- that still holds that run's views
    and leaders; else ``None``."""
    views = (result.leader_of, result.knowledge, result.statuses, result.path_lengths)
    if type(views[0]) is not _ColumnView:
        return None
    run = views[0].run
    if not all(type(v) is _ColumnView and v.run is run for v in views):
        return None
    graph_ref, size, view = run
    if (
        graph_ref() is not graph
        or (graph.n, graph.n_edges) != size
        or result.leaders != result.knowledge._keys
    ):
        return None
    return view
