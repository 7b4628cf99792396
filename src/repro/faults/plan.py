"""Declarative, seeded, composable fault plans.

The paper's model (Section 1.2) assumes reliable exactly-once FIFO channels
and nodes that never fail.  A :class:`FaultPlan` names the ways one
execution departs from that model:

* **message loss** -- each sent message is independently dropped with
  probability ``loss``;
* **duplication** -- each sent message is independently delivered twice
  with probability ``duplicate`` (finding F7's fault);
* **crash-stop nodes** -- a :class:`CrashSpec` silences a node from a given
  virtual time on: no wake-up, no deliveries, no timers, and (since its
  handlers never run) no sends.  Crash-stop is the classic benign failure
  model; there is no recovery and no Byzantine behaviour;
* **transient partitions** -- a :class:`PartitionSpec` isolates an island
  of nodes from the rest of the system for a step window; messages sent
  across the cut during the window are lost, and the link heals afterwards;
* **adversarial delay bursts** -- a :class:`DelayBurst` defers (a fraction
  of) pending deliveries during a step window.  Delay never violates the
  asynchronous model (delays are finite), so it degrades nothing a correct
  protocol relies on -- it exists to stress timeout tuning in the recovery
  layer.

The plan is pure data; all randomness comes from the seed handed to the
:class:`FaultInjector`, so every chaotic execution is exactly replayable.
Virtual time is the simulator's executed-step counter -- the only clock an
asynchronous system has.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Dict, FrozenSet, Hashable, List, Tuple

from repro.sim.events import DeliverToken, TimerToken
from repro.sim.network import DEFER, DELIVER, DROP, ChannelInterceptor, Simulator

NodeId = Hashable

__all__ = [
    "CrashSpec",
    "RecoverySpec",
    "PartitionSpec",
    "DelayBurst",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class CrashSpec:
    """Crash-stop ``node`` at virtual time ``at_step`` (0 = never ran)."""

    node: NodeId
    at_step: int = 0

    def __post_init__(self) -> None:
        if self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")


@dataclass(frozen=True)
class RecoverySpec:
    """Crash ``node`` at ``crash_step`` and bring it back at
    ``recover_step`` under a new incarnation epoch.

    During the down window ``[crash_step, recover_step)`` the node behaves
    exactly like a crash-stop node: no wake-ups, no deliveries, no timers.
    At ``recover_step`` it restarts from its latest durable
    :class:`~repro.faults.recovery.CheckpointStore` snapshot -- or, with
    ``amnesia=True``, from its initial knowledge (the classic "disk was
    lost" restart) -- and re-probes for its component's leader.  Epoch
    fencing in :mod:`repro.faults.reliable` discards the node's pre-crash
    transport state and any stale in-flight traffic addressed to the old
    incarnation.
    """

    node: NodeId
    crash_step: int
    recover_step: int
    amnesia: bool = False

    def __post_init__(self) -> None:
        if not 1 <= self.crash_step < self.recover_step:
            raise ValueError(
                "need 1 <= crash_step < recover_step, got "
                f"crash_step={self.crash_step} recover_step={self.recover_step}"
            )


@dataclass(frozen=True)
class PartitionSpec:
    """Isolate ``island`` from the rest of the system during
    ``[start, heal)``.  Traffic inside the island and inside the mainland
    still flows; only cut-crossing messages are lost.  ``heal`` is the heal
    time: from that step on the link carries messages again."""

    island: FrozenSet[NodeId]
    start: int = 0
    heal: int = 10**9

    def __post_init__(self) -> None:
        object.__setattr__(self, "island", frozenset(self.island))
        if not self.island:
            raise ValueError("partition island must be non-empty")
        if not 0 <= self.start < self.heal:
            raise ValueError(
                f"need 0 <= start < heal, got start={self.start} heal={self.heal}"
            )

    def severs(self, src: NodeId, dst: NodeId, step: int) -> bool:
        return (
            self.start <= step < self.heal
            and (src in self.island) != (dst in self.island)
        )


@dataclass(frozen=True)
class DelayBurst:
    """Defer each pending delivery with probability ``fraction`` during
    ``[start, start + duration)``.  Deferring charges a step, so the window
    always expires; a burst can stretch deliveries, never prevent them."""

    start: int
    duration: int
    fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration < 1:
            raise ValueError(
                f"need start >= 0 and duration >= 1, got {self.start}/{self.duration}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def active(self, step: int) -> bool:
        return self.start <= step < self.start + self.duration


@dataclass(frozen=True)
class FaultPlan:
    """A composition of channel and node faults (see module docstring).

    The default instance is the paper's fault-free model; every field adds
    one departure.  Plans are immutable and picklable, so they travel into
    sweep worker processes as part of a job spec.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    crashes: Tuple[CrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    delays: Tuple[DelayBurst, ...] = ()
    recoveries: Tuple[RecoverySpec, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1], got {self.duplicate}")
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "delays", tuple(self.delays))
        object.__setattr__(self, "recoveries", tuple(self.recoveries))
        crashed = [spec.node for spec in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise ValueError(f"duplicate crash specs: {crashed}")
        recovering = [spec.node for spec in self.recoveries]
        if len(recovering) != len(set(recovering)):
            raise ValueError(f"duplicate recovery specs: {recovering}")
        both = set(crashed) & set(recovering)
        if both:
            raise ValueError(
                f"nodes {sorted(both, key=repr)} have both a crash-stop and a "
                "recovery spec; a node either stays down or comes back"
            )

    @property
    def is_fault_free(self) -> bool:
        return (
            self.loss == 0.0
            and self.duplicate == 0.0
            and not self.crashes
            and not self.partitions
            and not self.delays
            and not self.recoveries
        )

    def shifted(self, offset: int) -> "FaultPlan":
        """This plan with every time-anchored fault pushed ``offset`` steps
        later.  Rate faults (loss, duplication) are time-free and carry
        over unchanged.

        The composition seam for long-lived hosts: a service driver that
        warms up before opening the measurement window can take a plan
        written in *relative* time ("crash at step 500") and anchor it to
        the window's actual start, without the plan's author knowing when
        warm-up ends.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if offset == 0:
            return self
        return FaultPlan(
            loss=self.loss,
            duplicate=self.duplicate,
            crashes=tuple(
                CrashSpec(spec.node, spec.at_step + offset) for spec in self.crashes
            ),
            partitions=tuple(
                PartitionSpec(spec.island, spec.start + offset, spec.heal + offset)
                for spec in self.partitions
            ),
            delays=tuple(
                DelayBurst(spec.start + offset, spec.duration, spec.fraction)
                for spec in self.delays
            ),
            recoveries=tuple(
                RecoverySpec(
                    spec.node,
                    spec.crash_step + offset,
                    spec.recover_step + offset,
                    spec.amnesia,
                )
                for spec in self.recoveries
            ),
        )

    def describe(self) -> str:
        parts: List[str] = []
        if self.loss:
            parts.append(f"loss={self.loss:g}")
        if self.duplicate:
            parts.append(f"dup={self.duplicate:g}")
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)}")
        if self.partitions:
            parts.append(f"partitions={len(self.partitions)}")
        if self.delays:
            parts.append(f"delay-bursts={len(self.delays)}")
        if self.recoveries:
            parts.append(f"recoveries={len(self.recoveries)}")
        return "+".join(parts) if parts else "fault-free"


class FaultInjector(ChannelInterceptor):
    """Executes a :class:`FaultPlan` against one simulator run.

    One injector drives one execution: it owns the RNG stream (seeded, so
    the chaos is replayable) and the per-kind fault counters.  Attach it
    via ``Simulator(faults=...)``; the simulator consults it through the
    :class:`~repro.sim.network.ChannelInterceptor` hooks and records each
    fault as a ``drop`` / ``fault-action`` event on its ``Recorder``.

    The RNG is consulted in a fixed order (loss roll, then duplication
    roll, per transmit; one roll per deferrable delivery), so identical
    ``(plan, seed)`` pairs inject identical faults given an identical
    schedule.
    """

    def __init__(self, plan: FaultPlan, *, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = Random(seed)
        self._crash_at: Dict[NodeId, int] = {
            spec.node: spec.at_step for spec in plan.crashes
        }
        self._down: Dict[NodeId, Tuple[int, int]] = {
            spec.node: (spec.crash_step, spec.recover_step)
            for spec in plan.recoveries
        }
        self.counts: Dict[str, int] = {
            "loss": 0,
            "duplicate": 0,
            "partition-drop": 0,
            "crash-drop": 0,
            "defer": 0,
            "wake-suppressed": 0,
            "timer-suppressed": 0,
        }

    # -- crash bookkeeping ---------------------------------------------
    def crashed(self, node: NodeId, step: int) -> bool:
        at = self._crash_at.get(node)
        if at is not None and step >= at:
            return True
        window = self._down.get(node)
        return window is not None and window[0] <= step < window[1]

    def crashed_nodes(self, step: int) -> FrozenSet[NodeId]:
        down = {n for n, at in self._crash_at.items() if step >= at}
        down.update(
            n for n, (crash, recover) in self._down.items() if crash <= step < recover
        )
        return frozenset(down)

    # -- ChannelInterceptor hooks --------------------------------------
    def copies(self, sim: Simulator, src: NodeId, dst: NodeId, message: Any) -> int:
        step = sim.steps
        if self.crashed(src, step):
            # Defensive: a crashed node's handlers never run, so this only
            # triggers if a handler was mid-flight when the crash step hit.
            self.counts["crash-drop"] += 1
            return 0
        for partition in self.plan.partitions:
            if partition.severs(src, dst, step):
                self.counts["partition-drop"] += 1
                return 0
        if self.plan.loss > 0.0 and self._rng.random() < self.plan.loss:
            self.counts["loss"] += 1
            return 0
        if self.plan.duplicate > 0.0 and self._rng.random() < self.plan.duplicate:
            self.counts["duplicate"] += 1
            return 2
        return 1

    def deliver_action(self, sim: Simulator, token: DeliverToken) -> str:
        step = sim.steps
        if self.crashed(token.dst, step):
            self.counts["crash-drop"] += 1
            return DROP
        for burst in self.plan.delays:
            if burst.active(step):
                if burst.fraction >= 1.0 or self._rng.random() < burst.fraction:
                    self.counts["defer"] += 1
                    return DEFER
                break  # rolled and passed; don't re-roll for later bursts
        return DELIVER

    def wake_allowed(self, sim: Simulator, node: NodeId) -> bool:
        if self.crashed(node, sim.steps):
            self.counts["wake-suppressed"] += 1
            return False
        return True

    def timer_allowed(self, sim: Simulator, token: TimerToken) -> bool:
        if self.crashed(token.node, sim.steps):
            self.counts["timer-suppressed"] += 1
            return False
        return True

    # -- reporting ------------------------------------------------------
    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())
