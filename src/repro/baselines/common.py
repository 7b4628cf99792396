"""Shared plumbing for the baseline resource-discovery algorithms.

All baselines report a :class:`BaselineResult` with the same quantities as
the core algorithms' :class:`~repro.core.result.DiscoveryResult` (messages,
bits, rounds, leaders, completeness), so EXP-11's comparison table can be
assembled uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List

from repro.core.result import DiscoveryResult
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.trace import MessageStats, bits_for_ids
from repro.verification.invariants import verify_discovery

NodeId = Hashable

__all__ = ["BaselineResult", "IdSetMessage", "SmallMessage", "verify_baseline"]


@dataclass(frozen=True)
class IdSetMessage:
    """A message whose payload is a set of node ids (plus the header)."""

    ids: FrozenSet[NodeId]
    msg_type: str = "id-set"

    def bit_size(self, id_bits: int) -> int:
        return bits_for_ids(len(self.ids), id_bits)


@dataclass(frozen=True)
class SmallMessage:
    """A constant-size control message carrying up to a few ids/integers."""

    msg_type: str
    n_ids: int = 1

    def bit_size(self, id_bits: int) -> int:
        return bits_for_ids(self.n_ids, id_bits)


@dataclass
class BaselineResult:
    """Outcome of one baseline execution."""

    name: str
    n: int
    n_edges: int
    rounds: int
    stats: MessageStats
    leaders: List[NodeId]
    leader_of: Dict[NodeId, NodeId]
    knowledge: Dict[NodeId, FrozenSet[NodeId]]

    @property
    def total_messages(self) -> int:
        return self.stats.total_messages

    @property
    def total_bits(self) -> int:
        return self.stats.total_bits

    def summary(self) -> str:
        return (
            f"{self.name}: n={self.n} |E0|={self.n_edges} rounds={self.rounds} "
            f"messages={self.total_messages} bits={self.total_bits} "
            f"leaders={len(self.leaders)}"
        )


def verify_baseline(result: BaselineResult, graph: KnowledgeGraph) -> None:
    """:func:`~repro.verification.invariants.verify_discovery` on a baseline's
    outcome, raising its ``InvariantViolation`` (an ``AssertionError``).  A
    baseline keeps no protocol state or pointer chain: every node reads as
    resting (``inactive``) at chain length 0, which leaves one leader per
    weak component, knowing it whole, with every node resolving to it."""
    nodes = graph.nodes
    verify_discovery(
        DiscoveryResult(
            result.name, result.n, result.n_edges, result.leaders, result.leader_of,
            result.knowledge, statuses=dict.fromkeys(nodes, "inactive"),
            path_lengths=dict.fromkeys(nodes, 0), stats=result.stats, steps=result.rounds,
        ),
        graph,
    )
