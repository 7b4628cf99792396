"""The asynchronous message-passing simulator.

This is the paper's execution model made executable:

* reliable point-to-point channels with **FIFO order per ordered pair**
  (Section 1.2's assumption);
* **finite but unbounded delays**: any pending delivery or wake-up may be
  scheduled next, under the control of a :class:`~repro.sim.scheduler.Scheduler`;
* **no global start**: nodes sleep until either their spontaneous wake-up
  token fires or a message reaches them (messages wake sleeping nodes, the
  "wake-up nearby neighbors" rule);
* **exact accounting** of messages and bits by type, which is what all the
  theorems bound.

Protocol nodes subclass :class:`SimNode` and implement ``on_wake`` and
``on_message``.  Handlers run atomically: they may send any number of
messages, which become pending deliveries.  The simulator runs until
*quiescence* -- no pending wake-ups and no in-flight messages -- which is
precisely the steady state of the problem definition's liveness requirement
(property 4), so "run to quiescence, then check properties" is the faithful
evaluation procedure.
"""

from __future__ import annotations

import random as _random
import weakref
from collections import deque
from sys import maxsize
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.obs.events import Recorder, RunEvent
from repro.sim.events import DeliverToken, LifecycleToken, TimerToken, Token, WakeToken
from repro.sim.scheduler import (
    _FIFO,
    _RANDOM,
    GlobalFifoScheduler,
    Scheduler,
    native_draws,
    stock_pool,
)
from repro.sim.trace import ExecutionTrace, MessageStats, TraceEvent

__all__ = [
    "SimNode",
    "Simulator",
    "ChannelInterceptor",
    "DELIVER",
    "DROP",
    "DEFER",
    "TRANSPORT_ONLY",
    "SimulationError",
    "StuckExecutionError",
    "StepLimitExceeded",
]

#: Verdicts a :class:`ChannelInterceptor` may return for a pending delivery.
DELIVER, DROP, DEFER = "deliver", "drop", "defer"


#: What a transport wrapper's ``on_message``/``on_timer`` returns when the
#: step never reached the protocol node it wraps (an ack, a nack, a parked
#: or duplicate frame, a retransmit timer).  Any other return value --
#: including the ``None`` of every ordinary handler -- moves
#: :attr:`Simulator.protocol_stamp`.
TRANSPORT_ONLY = object()

#: Methods ``run_for`` inlines and the array core replaces.  If any of them
#: has been shadowed by an *instance* attribute -- the obs Profiler wraps
#: ``step``/``_execute_*`` that way, and tests monkeypatch ``transmit`` --
#: every call must go through the attribute so the wrapper sees it.
_WRAPPABLE = frozenset(
    {
        "step",
        "transmit",
        "_execute_wake",
        "_execute_deliver",
        "_execute_timer",
        "_execute_lifecycle",
    }
)


class ChannelInterceptor:
    """Interception points the simulator offers to a fault layer.

    The simulator consults the interceptor (its ``faults`` parameter) at
    every transport decision; the default implementation is a transparent
    pass-through, so the class doubles as the specification of fault-free
    behaviour.  :class:`repro.faults.FaultInjector` is the real
    implementation; keeping the interface here lets the sim layer stay
    ignorant of fault *policies* while owning the mechanics.

    All hooks receive the simulator so they can read virtual time
    (``sim.steps``) -- fault windows are expressed in executed steps, the
    only clock the asynchronous model has.
    """

    def copies(self, sim: "Simulator", src: Hashable, dst: Hashable, message: Any) -> int:
        """How many copies of a just-sent message enter the channel.

        ``1`` is faithful delivery, ``0`` loses the message, ``k >= 2``
        duplicates it.  The sender is charged for exactly one send either
        way (it *did* send; the network misbehaved).
        """
        return 1

    def deliver_action(self, sim: "Simulator", token: DeliverToken) -> str:
        """Fate of a pending delivery: :data:`DELIVER` it now, :data:`DROP`
        it (consume the message, never run the handler -- e.g. the receiver
        crashed), or :data:`DEFER` it (re-enqueue the token; an adversarial
        delay burst)."""
        return DELIVER

    def wake_allowed(self, sim: "Simulator", node: Hashable) -> bool:
        """Whether a spontaneous wake-up may run (``False`` for crashed nodes)."""
        return True

    def timer_allowed(self, sim: "Simulator", token: TimerToken) -> bool:
        """Whether a due timer may fire (``False`` for crashed nodes)."""
        return True


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class StuckExecutionError(SimulationError):
    """Pending steps exist but the scheduler refuses to run any of them."""


class StepLimitExceeded(SimulationError):
    """The execution did not quiesce within the step budget."""


def _unbound() -> None:
    """A never-bound node's ``_sim``: answers like a dead reference."""
    return None


class SimNode:
    """Base class for protocol participants.

    Subclasses implement :meth:`on_wake` (local initialization + first
    actions) and :meth:`on_message`.  The :meth:`send` helper hands messages
    to the simulator; sending to oneself is a protocol bug (the paper's
    algorithms short-circuit self-interactions locally) and raises.

    The simulator owns its nodes; a node points back up only weakly
    (``_sim`` is a :func:`weakref.ref`), so a run's object graph has no
    reference cycle and is freed the moment its last owner drops it.  A
    node whose simulator is gone is unbound again.
    """

    def __init__(self, node_id: Hashable) -> None:
        self.node_id = node_id
        self.awake = False
        #: weak reference to what :meth:`send` transmits through -- the
        #: simulator, or a transport wrapper's port; calling it answers
        #: ``None`` while unbound or once that owner is gone.
        self._sim: Callable[[], Optional["Simulator"]] = _unbound

    # -- wiring ---------------------------------------------------------
    def bind(self, sim: "Simulator") -> None:
        bound = self._sim()
        if bound is not None and bound is not sim:
            raise SimulationError(f"node {self.node_id!r} already bound")
        self._sim = weakref.ref(sim)

    @property
    def sim(self) -> "Simulator":
        sim = self._sim()
        if sim is None:
            raise SimulationError(f"node {self.node_id!r} is not bound to a simulator")
        return sim

    # -- actions --------------------------------------------------------
    def send(self, dst: Hashable, message: Any) -> None:
        """Send ``message`` to ``dst`` over the FIFO channel (self, dst)."""
        if dst == self.node_id:
            raise SimulationError(
                f"node {self.node_id!r} tried to message itself with "
                f"{getattr(message, 'msg_type', message)!r}; self-interactions "
                "must be simulated internally (Section 4.1)"
            )
        # The weak reference called here instead of through the ``sim``
        # property: send is the hottest node->simulator edge and the
        # property costs a call per message.  Same error contract.
        sim = self._sim()
        if sim is None:
            raise SimulationError(
                f"node {self.node_id!r} is not bound to a simulator"
            )
        sim.transmit(self.node_id, dst, message)

    # -- handlers -------------------------------------------------------
    def on_wake(self) -> None:  # pragma: no cover - interface default
        """Called exactly once, before the node's first action."""

    def on_message(self, sender: Hashable, message: Any) -> None:
        """Handle one delivered message.  The return value is ignored
        unless it is :data:`TRANSPORT_ONLY`, which only a wrapper around
        a protocol node has reason to return."""
        raise NotImplementedError

    def on_timer(self, tag: Hashable) -> None:  # pragma: no cover - default
        """Called when a timer armed via :meth:`Simulator.schedule_timer`
        fires.  Only transport-layer wrappers (``repro.faults.reliable``)
        use timers; the paper's protocol nodes have no clocks.  Return
        value as for :meth:`on_message`."""

    def on_crash(self) -> None:  # pragma: no cover - interface default
        """Called when a :class:`~repro.sim.events.LifecycleToken` crashes
        this node.  The node keeps its in-memory state (what it loses, and
        when, is the recovery layer's policy); the fault interceptor is what
        silences its wake-ups, deliveries and timers during the outage."""

    def on_recover(self) -> None:  # pragma: no cover - interface default
        """Called when a :class:`~repro.sim.events.LifecycleToken` recovers
        this node.  Transport wrappers restore state here; afterwards the
        simulator re-schedules a wake-up if the node came back asleep."""


class Simulator:
    """Asynchronous reliable-FIFO message-passing system.

    Parameters
    ----------
    scheduler:
        Delivery-order policy; defaults to :class:`GlobalFifoScheduler`.
    id_bits:
        Bits charged per node id in bit accounting (``ceil(log2 n)`` for an
        ``n``-node system; runners compute this from the graph).
    keep_trace:
        Record every executed step in :attr:`trace` (costs memory; default
        off).
    faults:
        A :class:`ChannelInterceptor` (typically a
        :class:`repro.faults.FaultInjector`) consulted at every transport
        decision; ``None`` is the paper's reliable exactly-once model.
    obs:
        A :class:`~repro.obs.events.Recorder` receiving the typed run
        events (send/deliver/drop/wake/timer/state-transition/
        phase-change/fault-action); ``None`` (the default) disables
        observability at the cost of one predicate check per emit site.
    fast:
        Allow :meth:`run` to be offered to the array core
        (:func:`repro.core.arraystate.maybe_run_array`).  The gate there
        engages only on a system that has not run yet and when nothing
        requires node objects or per-message hooks, and is
        differentially tested to produce bit-identical traces, stats and
        step counts.  ``fast=False`` forces the object loop (the
        reference of the benchmarks and the equivalence suite).
    """

    def __init__(
        self,
        scheduler: Optional[Scheduler] = None,
        *,
        id_bits: int = 32,
        keep_trace: bool = False,
        channel_discipline: str = "fifo",
        channel_seed: int = 0,
        faults: Optional[ChannelInterceptor] = None,
        obs: Optional[Recorder] = None,
        fast: bool = True,
    ) -> None:
        if id_bits < 1:
            raise ValueError(f"id_bits must be >= 1, got {id_bits}")
        if channel_discipline not in ("fifo", "random"):
            raise ValueError(
                f"channel_discipline must be 'fifo' or 'random', "
                f"got {channel_discipline!r}"
            )
        # Explicit None check: schedulers define __len__, so an empty one is
        # falsy and ``scheduler or default`` would silently discard it.
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else GlobalFifoScheduler()
        )
        self.id_bits = id_bits
        self.nodes: Dict[Hashable, SimNode] = {}
        #: the pending messages of each ordered channel that holds any: a
        #: channel enters with its first pending message (``transmit``) and
        #: leaves with its last (``_pop_channel_message``), so every value
        #: is a non-empty deque and an idle pair costs nothing.
        self._channels: Dict[Tuple[Hashable, Hashable], Deque[Any]] = {}
        #: sent-but-undelivered messages over all channels, kept current by
        #: ``transmit``/``_pop_channel_message``; the array core bypasses
        #: both and re-establishes it on every exit.
        self._in_flight = 0
        self.stats = MessageStats()
        self.steps = 0
        #: moves on every executed step that may have changed protocol
        #: state: a wake-up, a due timer or delivery whose handler did not
        #: answer :data:`TRANSPORT_ONLY`, a crash or recovery, a message
        #: consumed undelivered, a compiled run that executed anything.
        #: Not-due ticks, deferred deliveries and transport-only steps
        #: leave it alone, so two checkpoints that read the same value
        #: saw the same protocol state (``verification.monitor`` skips the
        #: second).  A handler that raises may leave it unmoved: a loop
        #: that compares stamps must not carry one across an exception.
        self.protocol_stamp = 0
        self.trace: Optional[ExecutionTrace] = ExecutionTrace() if keep_trace else None
        #: "fifo" is the paper's model (Section 1.2); "random" is the ABL-3
        #: ablation -- each delivery takes a uniformly random pending
        #: message from the channel instead of the oldest.
        self.channel_discipline = channel_discipline
        self._channel_rng = _random.Random(channel_seed)
        self._cancelled_timers = 0
        #: the Recorder seam; ``None`` keeps every emit site at one check.
        self.obs = obs
        self.fast = fast
        #: which engine executed the most recent :meth:`run` -- ``"array"``
        #: (repro.core.arraystate) or ``"legacy"`` (:meth:`run_for`), ``None``
        #: before any run -- and, when the array core declined it, the
        #: ``arraystate.DECLINE_REASONS`` name of the first check that failed
        #: (``"handed-back"`` when it ran and left the rest to ``run_for``).
        self._last_run_path: Optional[str] = None
        self._last_decline: Optional[str] = None
        self.faults = faults

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: SimNode) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.bind(self)
        self.nodes[node.node_id] = node

    def schedule_wake(self, node_id: Hashable) -> None:
        """Make a spontaneous wake-up of ``node_id`` a pending step."""
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        self.scheduler.push(WakeToken(node_id))

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def transmit(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Enqueue a message; charged to stats immediately (it was *sent*).

        With a fault interceptor attached, the network may enqueue zero
        copies (loss, partition) or several (duplication); the sender is
        charged exactly once regardless.
        """
        if dst not in self.nodes:
            raise KeyError(f"message to unknown node {dst!r} from {src!r}")
        msg_type = getattr(message, "msg_type", None)
        if msg_type is None:
            raise TypeError(f"message {message!r} lacks a msg_type")
        bits = message.bit_size(self.id_bits)
        self.stats.record(msg_type, bits)
        copies = 1 if self.faults is None else self.faults.copies(self, src, dst, message)
        if copies > 0:
            channel = self._channels.get((src, dst))
            if channel is None:
                channel = self._channels[(src, dst)] = deque()
            for _ in range(copies):
                channel.append(message)
                self.scheduler.push(DeliverToken(src, dst))
            self._in_flight += copies
        if self.obs is not None:
            self.obs.emit(
                RunEvent(self.steps, "send", node=src, peer=dst, msg_type=msg_type)
            )
            if copies == 0:
                self.obs.emit(
                    RunEvent(
                        self.steps,
                        "drop",
                        node=dst,
                        peer=src,
                        msg_type=msg_type,
                        value="channel",
                    )
                )
            elif copies > 1:
                self.obs.emit(
                    RunEvent(
                        self.steps,
                        "fault-action",
                        node=dst,
                        peer=src,
                        msg_type=msg_type,
                        value=f"duplicate x{copies}",
                    )
                )

    def in_flight(self) -> int:
        """Number of sent-but-undelivered messages (O(1): a maintained
        count, exact between steps and after every ``run`` exit)."""
        return self._in_flight

    def channel_backlog(self, src: Hashable, dst: Hashable) -> int:
        """Pending messages on one ordered channel (diagnostics)."""
        return len(self._channels.get((src, dst), ()))

    def schedule_timer(
        self, node_id: Hashable, delay: int, tag: Hashable = None
    ) -> TimerToken:
        """Arm a timer firing ``node_id.on_timer(tag)`` after ``delay`` steps.

        Virtual time is the executed-step counter, so ``delay`` means "after
        at least this many further atomic steps" -- the only meaningful
        notion of a timeout in the asynchronous model.  Returns the token;
        callers keep it to :meth:`~repro.sim.events.TimerToken.cancel`.
        """
        if node_id not in self.nodes:
            raise KeyError(f"timer for unknown node {node_id!r}")
        if delay < 1:
            raise ValueError(f"timer delay must be >= 1 step, got {delay}")
        token = TimerToken(node_id, self.steps + delay, tag)
        self.scheduler.push(token)
        return token

    def schedule_lifecycle(
        self, node_id: Hashable, at_step: int, action: str
    ) -> LifecycleToken:
        """Schedule a crash or recovery of ``node_id`` at virtual time
        ``at_step`` (an absolute executed-step count, >= 1).

        The token stays pending until its due step, so a scheduled recovery
        keeps the simulator from quiescing early -- the system is not at
        rest while a node is still due to come back.
        """
        if node_id not in self.nodes:
            raise KeyError(f"lifecycle event for unknown node {node_id!r}")
        if action not in ("crash", "recover"):
            raise ValueError(f"lifecycle action must be 'crash' or 'recover', got {action!r}")
        if at_step < 1:
            raise ValueError(f"lifecycle steps start at 1, got {at_step}")
        token = LifecycleToken(node_id, at_step, action)
        self.scheduler.push(token)
        return token

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        return len(self.scheduler) - self._cancelled_timers <= 0

    def step(self) -> bool:
        """Execute one pending step; return ``False`` when quiescent."""
        while True:
            token = self.scheduler.pop(self)
            if token is None:
                if len(self.scheduler) > 0:
                    raise StuckExecutionError(
                        f"{len(self.scheduler)} pending steps but none eligible"
                    )
                return False
            if isinstance(token, TimerToken) and token.cancelled:
                # Cancelled timers are garbage-collected for free: no step
                # charged, so a retransmit timer acked in time leaves no
                # trace in the accounting.
                self._cancelled_timers = max(0, self._cancelled_timers - 1)
                continue
            break
        self.steps += 1
        if isinstance(token, WakeToken):
            self._execute_wake(token)
        elif isinstance(token, TimerToken):
            self._execute_timer(token)
        elif isinstance(token, LifecycleToken):
            self._execute_lifecycle(token)
        else:
            self._execute_deliver(token)
        return True

    def cancel_timer(self, token: TimerToken) -> None:
        """Cancel a pending timer; the eventual pop is dropped for free."""
        if not token.cancelled:
            token.cancel()
            self._cancelled_timers += 1

    def run(self, max_steps: Optional[int] = None) -> int:
        """Run to quiescence; return the number of steps executed.

        Raises :class:`StepLimitExceeded` if quiescence needs more than
        ``max_steps`` steps -- the guard that turns a protocol livelock into
        a test failure instead of a hang.  At most ``max_steps`` steps
        execute before the limit trips (a budget of zero has always bought
        one step; a negative one is a :class:`ValueError`).

        The run is first offered to the array core, whose gate
        (:func:`repro.core.arraystate.maybe_run_array`) holds every
        eligibility condition -- among them a just-built system: a run
        resumed after a cut, a probe or an added node is the object
        loop's -- and leaves the reason on ``_last_decline`` when it says
        no; a declined run is :meth:`run_for` plus the limit check, with
        identical observable results.  So is the rest of a run the array
        core handed back part-way (``"handed-back"``: the reference
        executed the step the C loop would not).
        """
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        # Imported here: repro.core.arraystate imports this module.
        from repro.core.arraystate import maybe_run_array

        executed = maybe_run_array(self, max_steps)
        if self._last_decline is None:
            return executed
        executed = executed or 0  # ``None``: declined before any step
        if max_steps is None:
            return executed + self.run_for(maxsize)
        executed += self.run_for(max(1, max_steps) - executed)
        if executed >= max_steps:
            if not self.is_quiescent:
                raise StepLimitExceeded(
                    f"no quiescence within {max_steps} steps; "
                    f"{self.in_flight()} messages still in flight"
                )
            self.step()  # quiescent: only cancelled timers left, collect them
        return executed

    def run_for(self, max_steps: int) -> int:
        """Execute at most ``max_steps`` pending steps; return the count.

        The open-ended companion to :meth:`run`: a steady-state service
        has no terminal quiescence, so exhausting the budget here is a
        normal outcome rather than a :class:`StepLimitExceeded` failure.
        Stops early (returning fewer steps) if the system quiesces; call
        again after injecting more work.  This is *the* object stepping
        loop: :meth:`run` is this plus a limit check, and callers that
        interleave injections with execution use it directly.

        With a stock scheduler this is :meth:`step` written out in place:
        the same pop (same RNG draw), the same ``_execute_*`` call for
        every token that does anything.  What it saves is the tick -- a
        timer or lifecycle token popped before its due step, which
        ``step`` carries through four calls only to push it back.  Here
        that is one draw, one swap and ``steps += 1``, and on a random
        pool the C loop's ``tick`` (:mod:`repro.core.arrayloop`) runs the
        draws and ticks natively, on the generator's own words, and
        hands back the first drawn token that is no tick; the Python
        lane below is its reference and runs where there is no C loop,
        where the generator is not exactly ``random.Random`` or shadows
        ``getrandbits`` on the instance, and on FIFO and LIFO pools.  A
        wrapper that must see every ``step``/``_execute_*`` call (an
        instance attribute named in ``_WRAPPABLE``, a ``step`` replaced
        on the class) or a scheduler with selection state of its own gets
        the plain ``while self.step()`` loop instead.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        mode, pool = stock_pool(self.scheduler)
        if (
            mode is None
            or type(self).step is not _STEP
            or not _WRAPPABLE.isdisjoint(self.__dict__)
        ):
            executed = 0
            while executed < max_steps and self.step():
                executed += 1
            return executed

        tick = None
        if mode == _RANDOM:
            rng = self.scheduler._rng
            if native_draws(rng):
                tick = _tick if _tick is not _UNSET else _native_tick()
            getrandbits = rng.getrandbits
            sized = bits = 0
        steps = self.steps
        executed = 0
        try:
            while executed < max_steps:
                if tick is not None:
                    ticks, index = tick(pool, rng, steps, max_steps - executed)
                    steps += ticks
                    executed += ticks
                    if index < 0:
                        if pool:
                            continue  # a budget spent, or a slice of ticks
                        break
                    token = pool[index]
                elif mode == _RANDOM:
                    size = len(pool)
                    if not size:
                        break
                    # ``rng.randrange(size)``, i.e. ``_randbelow(size)``,
                    # written out: draw size.bit_length() bits until the
                    # value is in range.
                    if size != sized:
                        sized, bits = size, size.bit_length()
                    index = getrandbits(bits)
                    while index >= size:
                        index = getrandbits(bits)
                    token = pool[index]
                elif not pool:
                    break
                elif mode == _FIFO:
                    token = pool[0]
                else:
                    token = pool[-1]
                kind = type(token)
                if (
                    kind is TimerToken and not token.cancelled or kind is LifecycleToken
                ) and steps + 1 < token.due:
                    # The tick: pop + push leaves the token at the tail
                    # (LIFO: on top, where it already is).
                    steps += 1
                    executed += 1
                    if mode == _RANDOM:
                        pool[index] = pool[-1]
                        pool[-1] = token
                    elif mode == _FIFO:
                        pool.rotate(-1)
                    continue
                if mode == _RANDOM:
                    pool[index] = pool[-1]
                    pool.pop()
                elif mode == _FIFO:
                    pool.popleft()
                else:
                    pool.pop()
                if kind is TimerToken and token.cancelled:
                    self._cancelled_timers = max(0, self._cancelled_timers - 1)
                    continue
                steps += 1
                executed += 1
                self.steps = steps
                if isinstance(token, WakeToken):
                    self._execute_wake(token)
                elif isinstance(token, TimerToken):
                    self._execute_timer(token)
                elif isinstance(token, LifecycleToken):
                    self._execute_lifecycle(token)
                else:
                    self._execute_deliver(token)
        finally:
            self.steps = steps
        return executed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute_wake(self, token: WakeToken) -> None:
        if self.faults is not None and not self.faults.wake_allowed(self, token.node):
            if self.trace is not None:
                self.trace.append(
                    TraceEvent(self.steps, "wake-noop", None, token.node, None)
                )
            if self.obs is not None:
                self.obs.emit(
                    RunEvent(
                        self.steps,
                        "fault-action",
                        node=token.node,
                        value="wake-suppressed",
                    )
                )
            return
        node = self.nodes[token.node]
        if node.awake:
            if self.trace is not None:
                self.trace.append(
                    TraceEvent(self.steps, "wake-noop", None, token.node, None)
                )
            return
        node.awake = True
        self.protocol_stamp += 1
        if self.trace is not None:
            self.trace.append(TraceEvent(self.steps, "wake", None, token.node, None))
        before = self._observed_state(node) if self.obs is not None else None
        if self.obs is not None:
            self.obs.emit(RunEvent(self.steps, "wake", node=token.node))
        node.on_wake()
        if before is not None:
            self._emit_state_changes(token.node, node, before)

    def _execute_timer(self, token: TimerToken) -> None:
        if self.steps < token.due:
            # Not due yet: re-enqueue.  The step just charged guarantees the
            # virtual clock advances, so the due step is always reached.
            self.scheduler.push(token)
            return
        if self.faults is not None and not self.faults.timer_allowed(self, token):
            if self.obs is not None:
                self.obs.emit(
                    RunEvent(
                        self.steps,
                        "fault-action",
                        node=token.node,
                        value="timer-suppressed",
                    )
                )
            return
        if self.obs is not None:
            self.obs.emit(RunEvent(self.steps, "timer", node=token.node))
        if self.nodes[token.node].on_timer(token.tag) is not TRANSPORT_ONLY:
            self.protocol_stamp += 1

    def _execute_lifecycle(self, token: LifecycleToken) -> None:
        if self.steps < token.due:
            # Same approximate-time contract as timers: re-enqueue until the
            # step counter (which the pop just advanced) catches up.
            self.scheduler.push(token)
            return
        node = self.nodes[token.node]
        self.protocol_stamp += 1
        if self.trace is not None:
            self.trace.append(
                TraceEvent(self.steps, token.action, None, token.node, None)
            )
        if self.obs is not None:
            self.obs.emit(RunEvent(self.steps, token.action, node=token.node))
        if token.action == "crash":
            node.on_crash()
        else:
            node.on_recover()
            if not node.awake:
                # A node restored from an "asleep" checkpoint rejoins the
                # way it originally joined: via a fresh spontaneous wake-up.
                self.scheduler.push(WakeToken(token.node))

    def _execute_deliver(self, token: DeliverToken) -> None:
        key = (token.src, token.dst)
        channel = self._channels.get(key)
        if channel is None:
            raise SimulationError(
                f"deliver token for empty channel {token.src!r} -> {token.dst!r}"
            )
        if self.faults is not None:
            action = self.faults.deliver_action(self, token)
            if action == DEFER:
                # Adversarial delay: hold the delivery, keep the message in
                # the channel.  The charged step advances virtual time, so
                # every delay window expires.
                self.scheduler.push(token)
                if self.obs is not None:
                    self.obs.emit(
                        RunEvent(
                            self.steps,
                            "fault-action",
                            node=token.dst,
                            peer=token.src,
                            value="defer",
                        )
                    )
                return
            if action == DROP:
                # Crash-stop receiver: the message is consumed by the
                # network but no handler runs.
                dropped = self._pop_channel_message(key, channel)
                self.protocol_stamp += 1
                if self.obs is not None:
                    self.obs.emit(
                        RunEvent(
                            self.steps,
                            "drop",
                            node=token.dst,
                            peer=token.src,
                            msg_type=getattr(dropped, "msg_type", None),
                            value="crashed-receiver",
                        )
                    )
                return
            if action != DELIVER:
                raise SimulationError(f"bad interceptor verdict {action!r}")
        message = self._pop_channel_message(key, channel)
        node = self.nodes[token.dst]
        before = self._observed_state(node) if self.obs is not None else None
        if not node.awake:
            # Messages wake sleeping nodes (Section 1.2): initialize first.
            node.awake = True
            self.protocol_stamp += 1
            if self.trace is not None:
                self.trace.append(
                    TraceEvent(self.steps, "wake", None, token.dst, None)
                )
            if self.obs is not None:
                self.obs.emit(RunEvent(self.steps, "wake", node=token.dst))
            node.on_wake()
        if self.trace is not None:
            self.trace.append(
                TraceEvent(
                    self.steps,
                    "deliver",
                    token.src,
                    token.dst,
                    getattr(message, "msg_type", None),
                    detail=message,
                )
            )
        if self.obs is not None:
            self.obs.emit(
                RunEvent(
                    self.steps,
                    "deliver",
                    node=token.dst,
                    peer=token.src,
                    msg_type=getattr(message, "msg_type", None),
                )
            )
        if node.on_message(token.src, message) is not TRANSPORT_ONLY:
            self.protocol_stamp += 1
        if before is not None:
            self._emit_state_changes(token.dst, node, before)

    def _pop_channel_message(
        self, key: Tuple[Hashable, Hashable], channel: Deque[Any]
    ) -> Any:
        """Take the next message off channel ``key`` per the delivery
        discipline; the channel leaves ``_channels`` with its last message
        (one message takes no draw under either discipline)."""
        self._in_flight -= 1
        if len(channel) == 1:
            del self._channels[key]
            return channel[0]
        if self.channel_discipline == "fifo":
            return channel.popleft()
        index = self._channel_rng.randrange(len(channel))
        message = channel[index]
        del channel[index]
        return message

    # ------------------------------------------------------------------
    # Observability (only reached with a recorder attached)
    # ------------------------------------------------------------------
    @staticmethod
    def _observed_state(node: SimNode) -> Tuple[Optional[str], Optional[int]]:
        """Protocol-visible (status, phase) of a node, looking through
        transport wrappers (``ReliableNode.inner``)."""
        target = getattr(node, "inner", node)
        return (getattr(target, "status", None), getattr(target, "phase", None))

    def _emit_state_changes(
        self,
        node_id: Hashable,
        node: SimNode,
        before: Tuple[Optional[str], Optional[int]],
    ) -> None:
        """Diff a node's observable state around a handler and emit
        ``state-transition`` / ``phase-change`` events for what moved."""
        status, phase = self._observed_state(node)
        old_status, old_phase = before
        if status != old_status:
            self.obs.emit(
                RunEvent(
                    self.steps,
                    "state-transition",
                    node=node_id,
                    value=f"{old_status}->{status}",
                )
            )
        if phase != old_phase:
            self.obs.emit(
                RunEvent(self.steps, "phase-change", node=node_id, value=phase)
            )


#: The C loop's ``tick`` (``None``: no C loop in this process), looked
#: up by the first ``run_for`` that can use it; ``_UNSET`` until then.
_UNSET = object()
_tick = _UNSET


def _native_tick():
    """Look the C loop's ``tick`` up, once: ``run_for`` on a monitor's
    cadence of one is called per step, so it reads :data:`_tick` and calls
    nothing more."""
    global _tick
    # Imported here: repro.core.arrayloop imports this module.
    from repro.core.arrayloop import load

    module = load()
    _tick = None if module is None else module.tick
    return _tick


#: ``Simulator.step`` as defined here; ``run_for`` inlines it only while
#: the class still carries this one (tests replace it to exhaust budgets).
_STEP = Simulator.step
