"""Ad-hoc Resource Discovery (Sections 4.5.2 and 6, Theorems 2, 6, 8).

The Ad-hoc relaxation keeps properties (1), (2) and (4) of the problem but
replaces "every node knows its leader's id" with "every non-leader has a
pointer, and the pointers induce a directed path to its leader" (3a/3b).
Leaders therefore never broadcast ``conquer`` messages, which is what drops
the message complexity to the optimal ``Theta(n alpha(n, n))``.

Nodes that want the current id snapshot *probe* their leader: a ``probe``
message follows the ``next`` pointers and the reply path-compresses them,
giving the amortized ``O((m + n) alpha(m, n))`` bound for ``m`` probes.

:class:`AdhocNetwork` is the long-lived handle exposing the Section 6
dynamic operations -- late node arrivals and online link additions -- on a
running system.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.node import DiscoveryNode
from repro.core.result import DiscoveryResult, collect_result
from repro.core.runner import (
    build_simulation,
    default_step_budget,
    run_discovery,
    transport_tuning,
)
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.network import ChannelInterceptor, Simulator
from repro.sim.scheduler import Scheduler
from repro.sim.trace import MessageStats

NodeId = Hashable

__all__ = ["AdhocNetwork", "ProbeHandle", "run_adhoc"]


class ProbeHandle:
    """A probe in flight: :attr:`done` once the answer has landed.

    The non-blocking face of :meth:`AdhocNetwork.probe`: the steady-state
    service driver injects probes without running to quiescence and needs
    to know when each answer landed.  It does not have to watch: the
    initiating node stamps the simulator step of the reply's delivery
    (:attr:`answered_at`), so the driver can run many steps and read the
    latency afterwards.  Leaders answer immediately (zero messages), so a
    handle may be born ``done``.
    """

    __slots__ = ("node", "_index", "_immediate")

    def __init__(self, node, index: int, immediate=None) -> None:
        self.node = node
        self._index = index
        self._immediate = immediate

    @property
    def done(self) -> bool:
        return self._immediate is not None or len(self.node.probe_results) > self._index

    @property
    def immediate(self) -> bool:
        """Whether the probe was answered locally, with zero messages."""
        return self._immediate is not None

    @property
    def answered_at(self) -> Optional[int]:
        """The simulator step whose delivery completed the probe; ``None``
        while it is pending and for immediate answers (no step ran)."""
        steps = self.node.probe_answer_steps or ()
        return steps[self._index] if len(steps) > self._index else None

    @property
    def answer(self) -> Optional[Tuple[NodeId, AbstractSet[NodeId]]]:
        """``(leader_id, ids)`` once :attr:`done`, else ``None``."""
        if self._immediate is not None:
            return self._immediate
        if len(self.node.probe_results) > self._index:
            return self.node.probe_results[self._index]
        return None


class AdhocNetwork:
    """A running Ad-hoc Resource Discovery system.

    Wraps the simulator, the protocol nodes, and the (growing) knowledge
    graph.  All mutating operations leave messages pending; call
    :meth:`run` (or use the convenience methods that do it for you) to
    drive the system back to quiescence.  ``faults`` and ``reliable`` are
    :func:`~repro.core.runner.build_simulation`'s: ``reliable=True`` wraps
    every node, late joiners included, in the selective-repeat transport.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        *,
        seed: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        keep_trace: bool = False,
        wake_order: Optional[Sequence[NodeId]] = None,
        auto_wake: bool = True,
        fast: bool = True,
        faults: Optional[ChannelInterceptor] = None,
        reliable: bool = False,
    ) -> None:
        self.graph = graph.copy()
        self.reliable = reliable
        # Late joiners (add_node) must ride the same transport as the
        # initial population, with the same workload-scaled tuning.
        self._tuning = transport_tuning(self.graph.n) if reliable else None
        self.sim, self.nodes = build_simulation(
            self.graph,
            "adhoc",
            seed=seed,
            scheduler=scheduler,
            keep_trace=keep_trace,
            wake_order=wake_order,
            auto_wake=auto_wake,
            fast=fast,
            faults=faults,
            reliable=reliable,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> int:
        """Run to quiescence; return the number of steps executed."""
        budget = max_steps if max_steps is not None else default_step_budget(self.graph)
        return self.sim.run(budget)

    def wake(self, node_id: NodeId) -> None:
        """Schedule a spontaneous wake-up (used with ``auto_wake=False``)."""
        self.sim.schedule_wake(node_id)

    @property
    def stats(self) -> MessageStats:
        return self.sim.stats

    def result(self) -> DiscoveryResult:
        """Snapshot the current (quiescent) state."""
        return collect_result(self.graph, self.nodes, self.sim, "adhoc")

    # ------------------------------------------------------------------
    # Probes (Section 4.5.2)
    # ------------------------------------------------------------------
    def probe(self, node_id: NodeId) -> Tuple[NodeId, AbstractSet[NodeId]]:
        """Ask ``node_id`` for its component's current id snapshot.

        Returns ``(leader_id, ids)``.  Runs the system to quiescence so the
        probe (and any discovery work still in flight) completes.
        """
        handle = self.probe_async(node_id)
        if handle.done:
            return handle.answer
        self.run()
        if not handle.done:
            raise RuntimeError(f"probe from {node_id!r} produced no reply")
        return handle.answer

    def probe_async(self, node_id: NodeId) -> ProbeHandle:
        """Inject a probe without running the system; returns a handle.

        The open-loop seam: the service driver schedules probes at their
        arrival times, keeps the simulator running, and reads each
        handle's :attr:`~ProbeHandle.answered_at` stamp to measure
        per-probe virtual-time latency.
        Raises :class:`~repro.core.node.ProtocolError` if the node is
        asleep or already has a probe outstanding -- call
        :meth:`can_probe` first to defer instead.
        """
        node = self.nodes[node_id]
        baseline = len(node.probe_results)
        immediate = node.initiate_probe()
        return ProbeHandle(node, baseline, immediate)

    def can_probe(self, node_id: NodeId) -> bool:
        """Whether :meth:`probe_async` would be accepted right now."""
        node = self.nodes.get(node_id)
        if node is None or not node.awake:
            return False
        return node.is_leader or not node.probe_outstanding

    # ------------------------------------------------------------------
    # Dynamic additions (Section 6)
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, known: Iterable[NodeId] = ()) -> None:
        """A new node joins, initially knowing the ids in ``known``.

        Per Section 6 "there is no difference between a node joining the
        system at a certain time and a node that wakes up at that time":
        the node is created asleep with ``known`` as its local set and a
        spontaneous wake-up is scheduled.
        """
        known = list(known)
        for other in known:
            if other not in self.graph:
                raise KeyError(f"new node {node_id!r} cannot know unknown {other!r}")
        self.graph.add_node(node_id)
        for other in known:
            self.graph.add_edge(node_id, other)
        node = DiscoveryNode(node_id, frozenset(known), variant="adhoc")
        self.nodes[node_id] = node
        if self._tuning is not None:
            from repro.faults.reliable import ReliableNode

            self.sim.add_node(ReliableNode(node, **self._tuning))
        else:
            self.sim.add_node(node)
        self.sim.schedule_wake(node_id)

    def add_link(self, u: NodeId, v: NodeId) -> None:
        """A new knowledge edge ``u -> v`` appears at runtime.

        Section 6's two cases are handled inside the node: an unreported
        edge just joins ``u.local``; a node that had already reported
        everything notifies its leader with a phase-0 flagged search.
        """
        if u not in self.graph or v not in self.graph:
            raise KeyError(f"add_link endpoints must exist: {u!r} -> {v!r}")
        if not self.graph.add_edge(u, v):
            return  # already in E (or a self-loop): not a new edge, no event
        self.nodes[u].notify_new_link(v)


def run_adhoc(
    graph: KnowledgeGraph,
    *,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    wake_order: Optional[Sequence[NodeId]] = None,
    max_steps: Optional[int] = None,
    fast: bool = True,
) -> DiscoveryResult:
    """One-shot Ad-hoc run to quiescence (no dynamic operations)."""
    return run_discovery(
        graph, "adhoc", seed=seed, scheduler=scheduler, wake_order=wake_order,
        max_steps=max_steps, fast=fast,
    )
