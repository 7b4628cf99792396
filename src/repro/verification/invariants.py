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

:func:`verify_quiescent` checks them all, once, over an index view: the
graph's nodes as ints ``0..n-1`` with ``arraystate._graph_components``' weak
component labels, a status code, the end and length of each ``next`` chain,
and the leaders' knowledge as ints.  Four routes build that view:
``result.collect_columns`` keeps it in the ``DiscoveryResult`` of a direct
entry run (``run_generic`` & co.), which :func:`verify_discovery` on that
run's own graph object hands over as it is; :func:`verify_discovery`
interns any other :class:`~repro.core.result.DiscoveryResult` (the object
path's, after every test run and on every chaos trial's survivors, or
one checked on another graph); ``arraystate._verify_scale`` reads a
quiescent array core's columns (no per-node object, up to n = 10^6) and
``baselines.verify_baseline`` an EXP-11 baseline's outcome.  Every route
raises :class:`InvariantViolation` with ``verify_discovery``'s text, naming
ids in the order of the components' first nodes: the chaos goldens and the
degradation tables print it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.arraystate import _graph_components
from repro.core.node import STATUS_CODES, STATUS_NAMES, TRANSIENT_STATES
from repro.core.result import DiscoveryResult, int_view
from repro.graphs.knowledge_graph import KnowledgeGraph

__all__ = ["InvariantViolation", "InvariantReport", "verify_discovery", "verify_quiescent"]

#: status code -> 1 for a transient state (a ``bytes.translate`` table)
_TRANSIENT = bytes(name in TRANSIENT_STATES for name in STATUS_NAMES).ljust(256, b"\0")


class _Interned(dict):
    """``{id: int}`` over a graph's nodes; an id outside the graph gets the
    next int, appended to ``ids`` with the component label -1."""

    def __missing__(self, x):
        self.ids.append(x)
        self.labels.append(-1)
        self[x] = len(self.ids) - 1
        return self[x]


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


def verify_discovery(result: DiscoveryResult, graph: KnowledgeGraph) -> InvariantReport:
    """Check properties (1)-(3)/(3a,3b) of the problem statement.

    Assumes the execution quiesced with every node awake (the setting of
    liveness property 4).  Raises :class:`InvariantViolation` on failure.
    A result read off the columns of a run on ``graph`` itself is checked
    on the ints it holds (:func:`~repro.core.result.int_view`); any other
    is interned here.
    """
    view = int_view(result, graph)
    if view is not None:
        return verify_quiescent(result.variant, *view)
    nodes = graph.nodes
    index = _Interned(zip(nodes, range(len(nodes))))
    labels, count = _graph_components(graph, index)
    index.ids, index.labels = list(nodes), labels
    ints = index.__getitem__
    return verify_quiescent(
        result.variant, index.ids, (labels, count),
        bytes(map(STATUS_CODES.__getitem__, map(result.statuses.__getitem__, nodes))),
        list(map(ints, result.leaders)),
        list(map(ints, map(result.leader_of.__getitem__, nodes))),
        list(map(result.path_lengths.__getitem__, nodes)),
        {ints(x): set(map(ints, known)) for x, known in result.knowledge.items()},
    )


def verify_quiescent(
    variant, ids, components, status, leaders, resolved, lengths, knowledge
) -> InvariantReport:
    """:func:`verify_discovery`'s checks, in its order, over an index view.

    Nodes are ``0..n-1`` (``n = len(status)``, a status code each); an int
    past ``n`` is an id outside the graph that a node knows or resolves to.
    ``ids[i]`` names int ``i``; ``components`` is ``(labels, count)``,
    ``labels[i]`` the smallest int of node ``i``'s component (-1 past
    ``n``); ``resolved[i]`` and ``lengths[i]`` are the end and length of
    node ``i``'s ``next`` chain; ``knowledge`` maps a leader to its ints.
    """
    labels, count = components
    labels, n = labels.tolist(), len(status)  # list lookups beat array ones
    report = InvariantReport(count, len(leaders), max(lengths, default=0))

    def named(ints):
        return sorted((ids[i] for i in ints), key=repr)

    def members(root):
        return [i for i in range(n) if labels[i] == root]

    # Property 1: exactly one leader per weakly connected component.
    here = {}
    for i in set(leaders):
        if i < n:
            here.setdefault(labels[i], []).append(i)
    if len(here) != count or any(len(found) != 1 for found in here.values()):
        for root in sorted(set(labels[:n])):
            found = here.get(root, [])
            if len(found) != 1:
                raise InvariantViolation(
                    f"component {named(members(root))[:8]}... has "
                    f"{len(found)} leaders: {named(found)}"
                )
    leader_of = {root: found[0] for root, found in sorted(here.items())}
    report.checks.append("one leader per weakly connected component")

    # Property 2 (+ quiescence): leader knowledge == component, exactly --
    # at once when each lies within its component and all hold n ids.
    known = {root: knowledge[leader] for root, leader in leader_of.items()}
    if sum(map(len, known.values())) != n or any(
        {*map(labels.__getitem__, k)} != {root} for root, k in known.items()
    ):
        for root, leader in leader_of.items():
            component = set(members(root))
            if known[root] != component:
                raise InvariantViolation(
                    f"leader {ids[leader]!r}: knowledge mismatch; "
                    f"missing={named(component - known[root])[:8]} "
                    f"extra={named(known[root] - component)[:8]}"
                )
    report.checks.append("leader knowledge equals its component")

    # Property 3 / 3a+3b: pointer (chains) lead to the right leader.
    expected = list(map(leader_of.__getitem__, labels[:n]))
    if list(resolved) != expected:
        wrong = [i for i in range(n) if resolved[i] != expected[i]]
        i = min(wrong, key=lambda i: (labels[i], i))  # first by component
        raise InvariantViolation(
            f"node {ids[i]!r} resolves to {ids[resolved[i]]!r}, "
            f"component leader is {ids[expected[i]]!r}"
        )
    report.checks.append("every node resolves to its component leader")

    if variant in ("generic", "bounded"):
        # The strict property 3: non-leaders know the leader id *directly*.
        if report.max_path_length > 1:
            bad = {ids[i]: length for i, length in enumerate(lengths) if length > 1}
            raise InvariantViolation(
                f"{variant}: non-leaders must point directly at their "
                f"leader; offenders (node: chain length): {dict(list(bad.items())[:8])}"
            )
        report.checks.append("non-leaders point directly at their leader")

    # Steady state: no node stuck in a transient protocol state.
    if 1 in status.translate(_TRANSIENT):
        transient = {ids[i]: STATUS_NAMES[c] for i, c in enumerate(status) if _TRANSIENT[c]}
        raise InvariantViolation(
            f"nodes stuck in transient states at quiescence: "
            f"{dict(list(transient.items())[:8])}"
        )
    report.checks.append("no transient states at quiescence")

    if variant == "bounded":
        terminated = STATUS_CODES["terminated"]
        non_terminated = [i for i in leaders if status[i] != terminated]
        if non_terminated:
            raise InvariantViolation(
                f"bounded leaders did not detect termination: {named(non_terminated)}"
            )
        report.checks.append("bounded leaders terminated explicitly")

    return report
