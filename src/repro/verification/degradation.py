"""Verification under faults: surviving components and outcome taxonomy.

The problem definition's properties are stated for fault-free executions.
Under a :class:`~repro.faults.FaultPlan` the honest questions become:

* **safety** -- did the stepwise invariants I1-I4 hold at every step, and
  did no run quiesce with a *wrong* answer?  Safety must survive any fault
  plan; a protocol that corrupts silently is broken, one that stalls or
  fails loudly is merely degraded.
* **liveness on survivors** -- restricted to the nodes that did not crash,
  did the system quiesce with properties 1-3 holding per weakly connected
  component *of the surviving subgraph*?

This module supplies the machinery the chaos harness needs for both: an
induced-subgraph builder, a tolerant result collector that reports orphans
instead of raising on dead-end pointer chains, and the five-way outcome
taxonomy every chaos trial is binned into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable

from repro.core.node import DiscoveryNode
from repro.core.result import DiscoveryResult
from repro.graphs.components import weakly_connected_components
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.network import Simulator
from repro.verification.invariants import InvariantViolation, verify_discovery

NodeId = Hashable

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_RECOVERED",
    "OUTCOME_DEGRADED",
    "OUTCOME_STALLED",
    "OUTCOME_DETECTED",
    "OUTCOME_VIOLATED",
    "OUTCOMES",
    "SurvivalReport",
    "induced_subgraph",
    "collect_tolerant",
    "verify_surviving",
]

#: Chaos-trial outcomes, best to worst.  Only ``violated`` is a bug: the
#: others are the documented ways an execution may degrade under faults.
OUTCOME_OK = "ok"  # quiesced, all properties hold on survivors
#: As good as ``ok``, and harder: all properties hold *and* at least one
#: node crashed, restarted, and reconverged mid-run (crash-recovery model).
OUTCOME_RECOVERED = "recovered"
OUTCOME_DEGRADED = "degraded"  # quiesced, but some survivor property failed
OUTCOME_STALLED = "stalled"  # step budget exhausted; liveness lost
OUTCOME_DETECTED = "detected"  # protocol detected an impossible state (loud)
OUTCOME_VIOLATED = "violated"  # stepwise safety broke -- must never happen
OUTCOMES = (
    OUTCOME_OK,
    OUTCOME_RECOVERED,
    OUTCOME_DEGRADED,
    OUTCOME_STALLED,
    OUTCOME_DETECTED,
    OUTCOME_VIOLATED,
)


def induced_subgraph(graph: KnowledgeGraph, keep: FrozenSet[NodeId]) -> KnowledgeGraph:
    """The subgraph on ``keep``: surviving nodes and the edges among them."""
    nodes = [node for node in graph.nodes if node in keep]
    edges = [(u, v) for u, v in graph.edges() if u in keep and v in keep]
    return KnowledgeGraph(nodes, edges)


def collect_tolerant(
    graph: KnowledgeGraph,
    nodes: Dict[NodeId, DiscoveryNode],
    sim: Simulator,
    variant: str,
    *,
    exclude: FrozenSet[NodeId] = frozenset(),
) -> "tuple[DiscoveryResult, int]":
    """Like :func:`repro.core.result.collect_result`, but never raises on
    broken pointer chains.

    A chain that cycles, dead-ends in a crashed/excluded node, or walks
    into a node that never woke marks its origin an *orphan*: the orphan
    resolves to itself with an implausible path length, which downstream
    verification reports as a property failure (liveness degradation)
    rather than an exception.  Returns ``(result, n_orphans)``.
    """
    keep = [node_id for node_id in graph.nodes if node_id not in exclude]
    leaders = [
        node_id for node_id in keep if nodes[node_id].is_leader and nodes[node_id].awake
    ]
    leader_set = set(leaders)
    leader_of: Dict[NodeId, NodeId] = {}
    path_lengths: Dict[NodeId, int] = {}
    orphans = 0
    for node_id in keep:
        current, seen = node_id, set()
        while current not in leader_set:
            if current in seen or current in exclude or not nodes[current].awake:
                break  # cycle, dead leader, or asleep: unresolvable
            if nodes[current].next == current:
                break  # non-leader root: still mid-protocol
            seen.add(current)
            current = nodes[current].next
        if current in leader_set:
            leader_of[node_id], path_lengths[node_id] = current, len(seen)
        else:
            orphans += 1
            leader_of[node_id] = node_id
            path_lengths[node_id] = graph.n + 1  # sentinel: visibly broken
    result = DiscoveryResult(
        variant=variant,
        n=len(keep),
        n_edges=sum(1 for u, v in graph.edges() if u not in exclude and v not in exclude),
        leaders=sorted(leader_set, key=repr),
        leader_of=leader_of,
        knowledge={leader: nodes[leader].knowledge for leader in leader_set},
        statuses={node_id: nodes[node_id].status for node_id in keep},
        path_lengths=path_lengths,
        stats=sim.stats.snapshot(),
        steps=sim.steps,
    )
    return result, orphans


@dataclass
class SurvivalReport:
    """Property verdict on the surviving subgraph of one chaotic run."""

    n_survivors: int
    n_components: int
    n_orphans: int
    properties_ok: bool
    detail: str = ""


def verify_surviving(
    graph: KnowledgeGraph,
    nodes: Dict[NodeId, DiscoveryNode],
    sim: Simulator,
    variant: str,
    crashed: FrozenSet[NodeId],
) -> SurvivalReport:
    """Check problem properties 1-3 per component of the surviving subgraph.

    Crashed nodes are cut out of both the node set and the graph; the
    remaining components are verified exactly as a fault-free run would be.
    Failures are reported, not raised -- under faults a property miss is a
    measured degradation, not a test error.
    """
    survivors = frozenset(graph.nodes) - crashed
    subgraph = induced_subgraph(graph, survivors)
    result, orphans = collect_tolerant(graph, nodes, sim, variant, exclude=crashed)
    try:
        n_components, ok, detail = verify_discovery(result, subgraph).n_components, True, ""
    except InvariantViolation as exc:
        n_components, ok, detail = len(weakly_connected_components(subgraph)), False, str(exc)
    return SurvivalReport(
        n_survivors=len(survivors),
        n_components=n_components,
        n_orphans=orphans,
        properties_ok=ok,
        detail=detail,
    )
