"""Machine-checkable versions of the problem's safety/liveness properties.

Asynchronous Resource Discovery (Section 1.2) requires, at the steady state
(which the simulator observes as quiescence with all nodes awake):

1. exactly one leader per weakly connected component;
2. the leader knows the ids of all the nodes that belong to it -- and since
   at quiescence everything in the component belongs to the leader, the
   leader's knowledge must equal its component exactly;
3. every non-leader knows the id of its leader (Generic/Bounded: the
   ``next`` pointer names the leader directly), or, in the Ad-hoc
   relaxation, 3a/3b: every non-leader's pointer chain is a directed path
   ending at its leader.

:func:`verify_discovery` checks all of them against a
:class:`~repro.core.result.DiscoveryResult` and the originating graph, and
raises :class:`InvariantViolation` with a precise description on failure.
The test-suite calls it after every single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Set

from repro.core.node import TRANSIENT_STATES
from repro.core.result import DiscoveryResult
from repro.graphs.components import weakly_connected_components
from repro.graphs.knowledge_graph import KnowledgeGraph

NodeId = Hashable

__all__ = ["InvariantViolation", "InvariantReport", "verify_discovery"]


class InvariantViolation(AssertionError):
    """A problem-definition property failed at quiescence."""


@dataclass
class InvariantReport:
    """What was checked and the headline numbers."""

    n_components: int
    n_leaders: int
    max_path_length: int
    checks: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        lines = [
            f"components={self.n_components} leaders={self.n_leaders} "
            f"max_path={self.max_path_length}"
        ]
        lines.extend(f"  ok: {check}" for check in self.checks)
        return "\n".join(lines)


def verify_discovery(
    result: DiscoveryResult,
    graph: KnowledgeGraph,
) -> InvariantReport:
    """Check properties (1)-(3)/(3a,3b) of the problem statement.

    Assumes the execution quiesced with every node awake (the setting of
    liveness property 4).  Raises :class:`InvariantViolation` on failure.
    """
    components = weakly_connected_components(graph)
    report = InvariantReport(
        n_components=len(components),
        n_leaders=len(result.leaders),
        max_path_length=result.max_path_length,
    )
    leader_set = set(result.leaders)

    # Property 1: exactly one leader per weakly connected component.
    for component in components:
        leaders_here = sorted(leader_set & component, key=repr)
        if len(leaders_here) != 1:
            raise InvariantViolation(
                f"component {sorted(component, key=repr)[:8]}... has "
                f"{len(leaders_here)} leaders: {leaders_here}"
            )
    report.checks.append("one leader per weakly connected component")

    # Property 2 (+ quiescence): leader knowledge == component, exactly.
    for component in components:
        leader = next(iter(leader_set & component))
        known = result.knowledge[leader]
        if known != frozenset(component):
            missing = sorted(component - known, key=repr)
            extra = sorted(known - component, key=repr)
            raise InvariantViolation(
                f"leader {leader!r}: knowledge mismatch; "
                f"missing={missing[:8]} extra={extra[:8]}"
            )
    report.checks.append("leader knowledge equals its component")

    # Property 3 / 3a+3b: pointer (chains) lead to the right leader.
    for component in components:
        leader = next(iter(leader_set & component))
        for member in component:
            resolved = result.leader_of[member]
            if resolved != leader:
                raise InvariantViolation(
                    f"node {member!r} resolves to {resolved!r}, "
                    f"component leader is {leader!r}"
                )
    report.checks.append("every node resolves to its component leader")

    if result.variant in ("generic", "bounded"):
        # The strict property 3: non-leaders know the leader id *directly*.
        bad = {
            node: length
            for node, length in result.path_lengths.items()
            if length > 1
        }
        if bad:
            raise InvariantViolation(
                f"{result.variant}: non-leaders must point directly at their "
                f"leader; offenders (node: chain length): {dict(list(bad.items())[:8])}"
            )
        report.checks.append("non-leaders point directly at their leader")

    # Steady state: no node stuck in a transient protocol state.
    transient = {
        node: status
        for node, status in result.statuses.items()
        if status in TRANSIENT_STATES
    }
    if transient:
        raise InvariantViolation(
            f"nodes stuck in transient states at quiescence: "
            f"{dict(list(transient.items())[:8])}"
        )
    report.checks.append("no transient states at quiescence")

    if result.variant == "bounded":
        non_terminated = [
            leader
            for leader in result.leaders
            if result.statuses[leader] != "terminated"
        ]
        if non_terminated:
            raise InvariantViolation(
                f"bounded leaders did not detect termination: {non_terminated}"
            )
        report.checks.append("bounded leaders terminated explicitly")

    return report
