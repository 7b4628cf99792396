"""Crash-recovery: durable checkpoints, incarnation epochs, and rejoin.

PR 3's fault model is crash-*stop*: a crashed node is gone forever and
chaos outcomes measure how gracefully the survivors degrade.  This module
adds the crash-*recovery* model -- nodes that come back, the setting of the
paper's Section 6 dynamic additions and of the self-stabilising discovery
line (Kniesburges et al., arXiv:1306.1692).  A
:class:`~repro.faults.plan.RecoverySpec` in a fault plan crashes a node for
a step window and then restarts it from durable state:

* a :class:`CheckpointStore` snapshots each protected node's **durable
  fields** -- exactly the Figure 2 data structure (status, next, phase,
  local/more/done/unaware/unexplored) -- on a checkpoint-every-k-events
  policy, plus a *forced* snapshot on every status change.  The forced
  snapshot is a safety requirement, not an optimisation: cluster-ownership
  transfers coincide with status transitions (a leader hands its members
  over exactly when it turns conquered/inactive), so the latest checkpoint
  never predates an ownership transfer and a restart can never resurrect a
  cluster someone else now owns (the I2 invariant);
* the :class:`RecoveryManager` schedules the crash/recover lifecycle
  events, bumps the node's **incarnation epoch** (durable: it survives
  amnesia -- losing the epoch would let pre-crash traffic impersonate the
  new incarnation), restarts the transport via
  :meth:`~repro.faults.reliable.ReliableNode.begin_epoch`, restores the
  snapshot (``amnesia=True`` restores the *baseline* taken at attach time:
  the node's initial knowledge), and calls
  :meth:`~repro.core.node.DiscoveryNode.rejoin` so the node re-attaches to
  its component's leader.

Everything volatile -- inbox, deferred messages, in-flight conversations,
transport seqnums -- is deliberately *not* checkpointed: it is the state a
real crash destroys, and epoch fencing in :mod:`repro.faults.reliable`
guarantees its loss is symmetric (peers discard their half too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional

from repro.core.node import EMPTY_QUEUE, DiscoveryNode
from repro.faults.plan import FaultInjector, RecoverySpec
from repro.faults.reliable import ReliableNode
from repro.sim.network import Simulator

NodeId = Hashable

__all__ = [
    "Checkpoint",
    "CheckpointStore",
    "RecoveryManager",
    "attach_recovery",
]


@dataclass(frozen=True)
class Checkpoint:
    """One durable snapshot of a node's Figure 2 fields at virtual time
    ``step``.  Frozen + frozensets: a checkpoint written to "disk" must not
    alias live mutable state, or post-snapshot mutations would time-travel
    into the restart."""

    step: int
    status: str
    next: NodeId
    phase: int
    local: FrozenSet[NodeId]
    more: FrozenSet[NodeId]
    done: FrozenSet[NodeId]
    unaware: FrozenSet[NodeId]
    unexplored: FrozenSet[NodeId]


def _snapshot(inner: DiscoveryNode, step: int) -> Checkpoint:
    return Checkpoint(
        step=step,
        status=inner.status,
        next=inner.next,
        phase=inner.phase,
        local=frozenset(inner.local),
        more=frozenset(inner.more),
        done=frozenset(inner.done),
        unaware=frozenset(inner.unaware),
        unexplored=frozenset(inner.unexplored),
    )


class CheckpointStore:
    """Durable checkpoints for the nodes under a recovery plan.

    ``every`` is the checkpoint cadence in *observed events* (deliveries
    and wake-ups of the protected node -- the moments its durable state can
    change).  Status changes force a snapshot regardless of cadence; see
    the module docstring for why that is load-bearing.
    """

    def __init__(self, every: int = 8) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.every = every
        self._baseline: Dict[NodeId, Checkpoint] = {}
        self._latest: Dict[NodeId, Checkpoint] = {}
        self._events: Dict[NodeId, int] = {}
        #: snapshots written per node (baseline included) -- cadence telemetry.
        self.taken: Dict[NodeId, int] = {}

    def register(self, inner: DiscoveryNode, step: int = 0) -> None:
        """Record the node's initial knowledge -- the amnesia restart point."""
        ckpt = _snapshot(inner, step)
        self._baseline[inner.node_id] = ckpt
        self._latest[inner.node_id] = ckpt
        self._events[inner.node_id] = 0
        self.taken[inner.node_id] = 1

    def observe(self, inner: DiscoveryNode, step: int) -> None:
        """One event happened to ``inner``; snapshot if the policy says so."""
        node_id = inner.node_id
        count = self._events[node_id] + 1
        self._events[node_id] = count
        if inner.status != self._latest[node_id].status or count % self.every == 0:
            self._latest[node_id] = _snapshot(inner, step)
            self.taken[node_id] += 1

    def latest(self, node_id: NodeId) -> Checkpoint:
        return self._latest[node_id]

    def baseline(self, node_id: NodeId) -> Checkpoint:
        return self._baseline[node_id]


class RecoveryManager:
    """Executes the recovery half of a fault plan against one simulation.

    One manager drives one run: it owns the checkpoint store, the per-node
    incarnation epochs (monotone, durable -- they survive amnesia), and the
    recovery telemetry the chaos harness reports.  Wire it with
    :func:`attach_recovery`; the transport wrappers call back through the
    ``recovery`` hook that :meth:`attach` installs on the victims.
    """

    def __init__(
        self,
        recoveries: tuple,
        *,
        checkpoint_every: int = 8,
    ) -> None:
        self.specs: Dict[NodeId, RecoverySpec] = {
            spec.node: spec for spec in recoveries
        }
        if not self.specs:
            raise ValueError("recovery manager needs at least one RecoverySpec")
        self.store = CheckpointStore(every=checkpoint_every)
        self.epochs: Dict[NodeId, int] = {node: 0 for node in self.specs}
        self.crashes = 0
        self.n_recovered = 0
        self.recovered_at: Dict[NodeId, int] = {}

    def attach(self, sim: Simulator) -> "RecoveryManager":
        """Install the manager on ``sim``: baseline checkpoints + lifecycle
        events for every victim.  Returns self for chaining."""
        for node_id in sorted(self.specs, key=repr):
            spec = self.specs[node_id]
            wrapper = sim.nodes.get(node_id)
            if wrapper is None:
                raise KeyError(f"recovery spec for unknown node {node_id!r}")
            if not isinstance(wrapper, ReliableNode):
                raise ValueError(
                    f"crash-recovery requires the reliable transport; node "
                    f"{node_id!r} is a bare {type(wrapper).__name__} (epoch "
                    "fencing lives in ReliableNode)"
                )
            wrapper.recovery = self
            self.store.register(wrapper.inner, step=sim.steps)
            sim.schedule_lifecycle(node_id, spec.crash_step, "crash")
            sim.schedule_lifecycle(node_id, spec.recover_step, "recover")
        return self

    # -- callbacks from the transport wrapper ---------------------------
    def observe(self, wrapper: ReliableNode) -> None:
        self.store.observe(wrapper.inner, wrapper.sim.steps)

    def on_crash(self, wrapper: ReliableNode) -> None:
        self.crashes += 1

    def restore(self, wrapper: ReliableNode) -> None:
        """Bring ``wrapper`` back: new epoch, restored durable state, rejoin."""
        node_id = wrapper.node_id
        spec = self.specs[node_id]
        epoch = self.epochs[node_id] + 1
        self.epochs[node_id] = epoch
        wrapper.begin_epoch(epoch)
        ckpt = (
            self.store.baseline(node_id)
            if spec.amnesia
            else self.store.latest(node_id)
        )
        self._restore_fields(wrapper.inner, ckpt)
        # Durable and sticky: the transport re-queues crashed-out peers'
        # half-open conversations to the new incarnation, so replies to the
        # dead incarnation can arrive here at any later point.  The flag
        # relaxes exactly those handler checks (see DiscoveryNode).
        wrapper.inner._restarted = True
        self.n_recovered += 1
        self.recovered_at[node_id] = wrapper.sim.steps
        if ckpt.status == "asleep":
            # Crashed before it ever woke: rejoin the way it would have
            # joined -- the simulator schedules a fresh spontaneous wake.
            wrapper.awake = False
            wrapper.inner.awake = False
        else:
            wrapper.awake = True
            wrapper.inner.awake = True
            wrapper.inner.rejoin()

    @staticmethod
    def _restore_fields(inner: DiscoveryNode, ckpt: Checkpoint) -> None:
        """Overwrite ``inner``'s state with the checkpoint.

        Durable fields come from the snapshot; everything volatile is reset
        to its constructor state -- a restart has an empty inbox, no
        half-open conversations, and no pending probe routing.  Only
        ``probe_results`` survives: it models answers already handed to the
        application layer, which a node crash does not un-deliver.
        """
        inner.status = ckpt.status
        inner.next = ckpt.next
        inner.phase = ckpt.phase
        inner.local = set(ckpt.local)
        inner.done = set(ckpt.done)
        inner.unaware = set(ckpt.unaware)
        inner._drop_census()  # census replaced wholesale
        # The choice heaps must mirror the sets exactly; rebuild them in
        # the same deterministic repr order the live path uses.
        inner.more = set()
        inner._more_heap = []
        for w in sorted(ckpt.more, key=repr):
            inner._add_more(w)
        inner.unexplored = set()
        inner._unexplored_heap = []
        for u in sorted(ckpt.unexplored, key=repr):
            inner._add_unexplored(u)
        inner.previous = EMPTY_QUEUE
        inner._inbox = EMPTY_QUEUE
        inner._deferred.clear()
        inner.probe_previous = EMPTY_QUEUE
        inner._processing = False
        inner._awaiting_release = False
        inner._awaiting_query_from = None
        inner._awaiting_info = False
        inner._expect_stale_release = False
        inner._probe_outstanding = False
        inner._rejoining = False


def attach_recovery(
    sim: Simulator,
    injector: FaultInjector,
    *,
    checkpoint_every: int = 8,
) -> Optional[RecoveryManager]:
    """Wire ``injector``'s recovery specs into ``sim``; ``None`` if it has
    none (the common fault-free / crash-stop case costs one predicate)."""
    if not injector.plan.recoveries:
        return None
    manager = RecoveryManager(
        injector.plan.recoveries, checkpoint_every=checkpoint_every
    )
    return manager.attach(sim)
