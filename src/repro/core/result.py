"""Execution results of the discovery algorithms.

A :class:`DiscoveryResult` is the quiescent-state snapshot the problem
definition talks about: who is a leader, who belongs to whom, what the
leaders know, and what the execution cost in messages and bits -- the
quantities every theorem of the paper bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Hashable, List, Set

from repro.core.node import STATUS_NAMES, DiscoveryNode
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.network import Simulator
from repro.sim.trace import MessageStats

NodeId = Hashable

__all__ = ["DiscoveryResult", "collect_columns", "collect_result", "resolve_leader"]


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
    """

    variant: str
    n: int
    n_edges: int
    leaders: List[NodeId]
    leader_of: Dict[NodeId, NodeId]
    knowledge: Dict[NodeId, AbstractSet[NodeId]]
    statuses: Dict[NodeId, str]
    path_lengths: Dict[NodeId, int]
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


def collect_columns(graph, core, variant: str, stats, steps: int) -> DiscoveryResult:
    """:func:`collect_result` read off a quiescent array core's columns:
    the same fields in the same orders, the same error on a leaderless chain.
    """
    ids = core.ids
    leaders, resolved, lengths = core.chains()
    leaders.sort(key=core.rrank.__getitem__)
    return DiscoveryResult(
        variant=variant,
        n=graph.n,
        n_edges=graph.n_edges,
        leaders=[ids[i] for i in leaders],
        leader_of=dict(zip(ids, map(ids.__getitem__, resolved))),
        knowledge={ids[i]: frozenset(map(ids.__getitem__, core.knowledge(i))) for i in leaders},
        statuses={x: STATUS_NAMES[code] for x, code in zip(ids, core.status)},
        path_lengths=dict(zip(ids, lengths)),
        stats=stats,
        steps=steps,
    )
