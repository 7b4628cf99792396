"""Stepwise safety monitoring (the "at any phase" part of Section 1.2).

The problem definition requires its safety properties to hold *throughout*
the execution, not only at quiescence.  :class:`StepwiseMonitor` attaches
to a simulator and, between executed steps, checks the strongest
invariants that are schedule-independent (i.e. hold between any two atomic
steps):

I1  **pointer-forest acyclicity** -- following ``next`` pointers from any
    node terminates at a root (a node whose pointer is itself); roots are
    leaders, or ex-leaders still resolving (passive/conquered).  A cycle
    would orphan entire subtrees (this is the invariant finding F3's phase
    guard protects).

I2  **ownership exclusivity** -- a node id appears in the
    ``more | done | unaware`` sets of at most one node in a leaderish
    state (the merge protocol transfers set ownership wholesale; double
    ownership would double-count and break the accounting lemmas).

I3  **set disjointness** -- within one node, ``more``, ``done`` and
    ``unaware`` are pairwise disjoint, and a leader's own id is in
    ``more | done``.

I4  **root sanity** -- every inactive node's pointer leaves itself (it was
    conquered by someone), and every leaderish node's pointer is itself
    until it merges.

Cost model
----------
:func:`check_safety_now` is the reference check and the only producer of
diagnostics: three passes over all ``n`` nodes, O(n + total set size).
What keeps a monitored run affordable is that the loop runs it only when
it can tell something new: the verdict is a function of
``(awake, next, status, more, done, unaware)`` of the protocol nodes, and
the simulator's :attr:`~repro.sim.network.Simulator.protocol_stamp` moves
on every step that may have touched any of them.  A checkpoint that
reads the stamp of the last passed check is a repeat and is skipped
(:attr:`StepwiseMonitor.checks_skipped`).  So checks are proportional to
the *protocol-entering* steps, not to steps: under the reliable transport
95% of a lossy run's steps are timer ticks, acks and retransmissions that
never reach a protocol node, and at ``every=64`` about two checkpoints in
three fall between two protocol events.  The loop advances with
:meth:`~repro.sim.network.Simulator.run_for`, whose ticks cost one RNG
draw and one list swap -- on a random pool in the C loop's native
``tick``, which draws on the generator's own words and returns to Python
only for a token that does something.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from repro.core.node import DiscoveryNode
from repro.sim.network import Simulator, StepLimitExceeded

NodeId = Hashable

__all__ = ["StepwiseMonitor", "SafetyViolation", "check_safety_now"]

#: States in which a node still owns bookkeeping sets.
_OWNING_STATES = frozenset(
    {"explore", "wait", "conqueror", "terminated", "passive", "conquered"}
)


class SafetyViolation(AssertionError):
    """A stepwise safety invariant failed mid-execution."""


def check_safety_now(nodes: Dict[NodeId, DiscoveryNode], *, step: int = -1) -> None:
    """Check invariants I1-I4 on the current node states; raise on failure."""
    _check_pointer_forest(nodes, step)
    _check_ownership(nodes, step)
    _check_local_consistency(nodes, step)


def _check_pointer_forest(nodes: Dict[NodeId, DiscoveryNode], step: int) -> None:
    resolved: Set[NodeId] = set()
    for start, node in nodes.items():
        if not node.awake or start in resolved:
            continue
        if node.next == start or node.next in resolved:
            resolved.add(start)  # a root, or one hop from a checked path
            continue
        path = []
        current = start
        seen: Set[NodeId] = set()
        while current not in resolved:
            if current in seen:
                raise SafetyViolation(
                    f"step {step}: next-pointer cycle through {current!r} "
                    f"(path {path[-6:]})"
                )
            seen.add(current)
            path.append(current)
            follower = nodes[current]
            if follower.next == current:
                break
            current = follower.next
        resolved.update(path)


def _check_ownership(nodes: Dict[NodeId, DiscoveryNode], step: int) -> None:
    owner_of: Dict[NodeId, NodeId] = {}
    for node_id, node in nodes.items():
        if node.status not in _OWNING_STATES:
            continue
        for member in node.more | node.done | node.unaware:
            if member == node_id:
                continue
            if member in owner_of:
                raise SafetyViolation(
                    f"step {step}: {member!r} owned by both "
                    f"{owner_of[member]!r} and {node_id!r}"
                )
            owner_of[member] = node_id


def _check_local_consistency(nodes: Dict[NodeId, DiscoveryNode], step: int) -> None:
    for node_id, node in nodes.items():
        more, done = node.more, node.done
        if not more.isdisjoint(done):
            raise SafetyViolation(
                f"step {step}: {node_id!r} has more/done overlap "
                f"{sorted(more & done, key=repr)[:4]}"
            )
        unaware = node.unaware
        if unaware and not (unaware.isdisjoint(more) and unaware.isdisjoint(done)):
            raise SafetyViolation(
                f"step {step}: {node_id!r} has unaware overlap"
            )
        if (
            node.status in _OWNING_STATES
            and node_id not in more
            and node_id not in done
        ):
            raise SafetyViolation(
                f"step {step}: {node_id!r} ({node.status}) lost its own entry"
            )
        if node.status == "inactive" and node.next == node_id:
            raise SafetyViolation(
                f"step {step}: inactive {node_id!r} points at itself"
            )


class StepwiseMonitor:
    """Drives a simulator with a safety checkpoint every ``every`` steps.

    Usage::

        sim, nodes = build_simulation(graph, "generic")
        monitor = StepwiseMonitor(sim, nodes)
        monitor.run()          # like sim.run(), but checked every step
        print(monitor.steps_checked, monitor.checks_skipped)

    :attr:`steps_checked` counts the checkpoints reached;
    :attr:`checks_skipped` how many of them read the
    :attr:`~repro.sim.network.Simulator.protocol_stamp` of the last passed
    check and so did not re-run it (see the module's cost model).
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Dict[NodeId, DiscoveryNode],
        *,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.sim = sim
        self.nodes = nodes
        self.every = every
        self.steps_checked = 0
        self.checks_skipped = 0
        self._passed_stamp: Optional[int] = None

    def _checkpoint(self) -> None:
        """Run :func:`check_safety_now` unless no step since the last
        passed check can have changed its verdict."""
        stamp = self.sim.protocol_stamp
        if stamp == self._passed_stamp:
            self.checks_skipped += 1
        else:
            check_safety_now(self.nodes, step=self.sim.steps)
            self._passed_stamp = stamp
        self.steps_checked += 1

    def advance(self, budget: int) -> Tuple[int, bool]:
        """Run to quiescence or ``budget`` steps, whichever comes first.

        Returns ``(steps executed, budget exhausted)``; exhausted means
        the budget ran out with work still pending -- an outcome, not an
        error (the chaos harness bins it as a stall).  Raises
        :class:`SafetyViolation` from the first failing checkpoint.
        """
        run_for, every = self.sim.run_for, self.every
        # A handler that raised out of an earlier call moved state without
        # moving the stamp: never trust a check from before this call.
        self._passed_stamp = None
        executed = 0
        while executed < budget:
            to_checkpoint = every - executed % every
            want = min(to_checkpoint, budget - executed)
            ran = run_for(want)
            executed += ran
            if ran < want:
                return executed, False
            if ran == to_checkpoint:
                self._checkpoint()
        return executed, not self.sim.is_quiescent

    def run(self, max_steps: int = 10**7) -> int:
        """Monitored :meth:`Simulator.run`: at most ``max_steps`` steps,
        :class:`StepLimitExceeded` if that was not enough to quiesce."""
        executed, exhausted = self.advance(max_steps)
        if exhausted:
            raise StepLimitExceeded(f"no quiescence within {max_steps} steps")
        self._checkpoint()
        return executed
