"""Schedulable actions of the asynchronous simulator.

An execution of the asynchronous model is a sequence of atomic steps, each
either a *wake-up* of a node or the *delivery* of the oldest in-flight
message on some FIFO channel.  The scheduler (see
:mod:`repro.sim.scheduler`) decides the order; the adversaries of the
lower-bound experiments are just scheduling policies.

All token classes are ``slots=True`` dataclasses: one token exists per
pending step, so at n=10^5 scale the per-instance ``__dict__`` of a plain
dataclass is pure allocator churn.  (The array core,
:mod:`repro.core.arraystate`, goes further and does not materialize tokens
at all -- its pool holds interned channel and node ints instead.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple, Union

__all__ = ["WakeToken", "DeliverToken", "TimerToken", "LifecycleToken", "Token"]


@dataclass(frozen=True, slots=True)
class WakeToken:
    """Spontaneously wake ``node`` (no-op if already awake)."""

    node: Hashable

    @property
    def channel(self) -> None:
        return None


@dataclass(frozen=True, slots=True)
class DeliverToken:
    """Deliver the head-of-line message on channel ``(src, dst)``.

    One token is enqueued per sent message, so executing every token
    delivers every message exactly once while per-channel FIFO order is
    preserved automatically (a token always delivers the *oldest* message on
    its channel, whichever send created it).
    """

    src: Hashable
    dst: Hashable

    @property
    def channel(self) -> Tuple[Hashable, Hashable]:
        return (self.src, self.dst)


@dataclass(eq=False, slots=True)
class TimerToken:
    """Fire ``node``'s :meth:`~repro.sim.network.SimNode.on_timer` at virtual
    time ``due`` (a simulator step count).

    The asynchronous model has no clocks, so a timer is *approximate* by
    design: a popped token whose due step has not arrived is re-enqueued, and
    since every pop advances the step counter the due step is always reached.
    Timers exist for the benefit of *transport-layer* machinery (the
    ack/retransmit recovery layer of :mod:`repro.faults.reliable`); protocol
    nodes must not rely on them -- the paper's model gives them no clocks.

    Unlike the frozen message/wake tokens, a timer is mutable: cancelling it
    (``cancelled = True``) turns the eventual fire into a no-op that is
    dropped without charging a step, so quiescence is not delayed by
    already-acknowledged retransmit timers.
    """

    node: Hashable
    due: int
    tag: Hashable = None
    cancelled: bool = False

    @property
    def channel(self) -> None:
        return None

    def cancel(self) -> None:
        self.cancelled = True


@dataclass(frozen=True, slots=True)
class LifecycleToken:
    """Crash or recover ``node`` at virtual time ``due`` (a step count).

    The crash-recovery fault model (:mod:`repro.faults.recovery`) schedules
    one of these per :class:`~repro.faults.plan.RecoverySpec` endpoint.  Like
    a timer, a popped token whose due step has not arrived is re-enqueued --
    and since each pop charges a step, the due step is always reached.  The
    token lives in the scheduler until it fires, which deliberately holds
    quiescence open: a system with a recovery pending is not at rest.
    """

    node: Hashable
    due: int
    action: str  # "crash" | "recover"

    @property
    def channel(self) -> None:
        return None


Token = Union[WakeToken, DeliverToken, TimerToken, LifecycleToken]
