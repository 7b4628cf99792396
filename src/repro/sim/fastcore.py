"""Compiled fast path for the simulator's run-to-quiescence loop.

The legacy :meth:`Simulator.step` path is built from small virtuous
abstractions -- token dataclasses, scheduler method calls, per-message
stats recording, interceptor/recorder predicates -- and at n=10^5 those
abstractions *are* the cost: roughly a dozen function calls and two
allocations per delivered message.  This module replaces the loop (not the
model) with a specialized interpreter that is engaged automatically by
:meth:`Simulator.run` when nothing requires the object path::

    no fault interceptor, no recorder, no send observers,
    FIFO channel discipline, and a stock scheduler
    (GlobalFifo / Lifo / Random).

Anything else -- adversaries, recording/replay/timed schedulers, fault
plans, obs recorders -- transparently falls back to the legacy loop, so
``Simulator(fast=True)`` (the default) is always safe to leave on.

How it stays bit-identical
--------------------------
* **Interned channels (the token arena).**  Each ordered channel
  ``(src, dst)`` is assigned a small integer index on first use.  A send
  pushes that *int* into the scheduler's underlying pool instead of
  allocating a :class:`DeliverToken`; channel metadata lives in flat
  parallel lists indexed by the int (``chan_queues[cid]`` is the *same*
  deque object as ``sim._channels[(src, dst)]``, so ``channel_backlog``
  and ``channel_peek`` keep working mid-run).  Delivery order per channel
  is a deque pop either way, so int tokens and pre-existing object tokens
  can even be interleaved on one channel without reordering anything.
* **Inlined scheduler pops.**  FIFO/LIFO pops are direct deque/list ops on
  the scheduler's pool; the random pop replays the exact legacy sequence
  (``rng.randrange(len(pool))`` + swap-with-tail) against the exact same
  pool ordering, so seeded runs make identical random choices and produce
  identical traces.
* **Lazy accounting.**  Per-message stats become two dict bumps into local
  ``{msg_type: count/bits}`` aggregates, folded into ``sim.stats`` once on
  every exit path (:meth:`MessageStats.record_bulk`), including
  :class:`StepLimitExceeded` and handler exceptions -- so post-mortem
  readers see exactly what the legacy path would have recorded.  The
  simulator's O(1) ``in_flight()`` count is folded the same way (sends
  minus interned deliveries), so it is exact after every exit but is
  *not* current while a handler is running inside the loop.
* **Timers, lifecycle and stray object tokens** are executed inline via
  the simulator's own ``_execute_*`` methods with ``sim.steps`` kept
  current every iteration, so ``schedule_timer`` arithmetic inside
  handlers is unaffected.  Cancelled timers are dropped without charging a
  step, exactly like the legacy loop.
* **Deopt on exit.**  If the loop ends with int tokens still pending (an
  exception mid-run), they are materialized back into real
  :class:`DeliverToken` objects *in place*, preserving pool order -- the
  scheduler is always in a legal object-path state when anyone else can
  look at it, and a subsequent ``run()`` (fast or legacy) continues the
  execution unchanged.

Execution traces (``keep_trace=True``) are supported directly: the loop
emits the same :class:`TraceEvent` objects in the same order as the legacy
path, which is what the differential suite (``tests/test_fastcore_equivalence.py``)
pins across schedulers, seeds and workloads.

Array-core delegation
---------------------
When the pending pool is large relative to ``n`` (an actual discovery run,
not a post-quiescence touch-up), :func:`run_fast` first offers the run to
the array-backed protocol core (:mod:`repro.core.arraystate`), which
executes the same state machine over interned int ids and columnar state
-- no node objects, no message dataclasses, no token objects in the hot
loop.  The array core applies its own stricter eligibility checks (stock
``DiscoveryNode`` instances only, internable ids, wake/deliver tokens
only) and returns ``None`` to decline, in which case the object loop below
runs unchanged.  ``sim._last_run_path`` records which engine ran
(``"array"``/``"fast"``/``"legacy"``) for tests and diagnostics.
"""

from __future__ import annotations

from collections import deque
from sys import maxsize
from typing import Optional

from repro.sim.events import DeliverToken, LifecycleToken, TimerToken, WakeToken
from repro.sim.scheduler import (
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)
from repro.sim.trace import TraceEvent

__all__ = ["eligible", "run_fast"]

#: Schedulers whose pool layout the fast loop understands.  Exact-type
#: match on purpose: a subclass may override selection behaviour.
_FIFO, _LIFO, _RANDOM = 0, 1, 2
_STOCK_MODES = {
    GlobalFifoScheduler: _FIFO,
    LifoScheduler: _LIFO,
    RandomScheduler: _RANDOM,
}

#: Methods the fast loop inlines (or calls back into).  If any of them has
#: been shadowed by an *instance* attribute -- the obs Profiler wraps
#: ``step``/``_execute_*`` that way, and tests monkeypatch ``transmit`` --
#: the object path must run so the wrappers see every call.
#: ``Simulator.run_for`` holds its inlined ``step`` to the same rule.
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


def eligible(sim) -> bool:
    """Whether ``sim`` can run on the fast path with identical results.

    The conditions mirror the seams the object path exists to serve: a
    fault interceptor or recorder must see per-message hooks, send
    observers must fire per transmit, non-FIFO channels need the channel
    RNG, and a non-stock scheduler owns its own selection state.
    """
    return (
        sim.faults is None
        and sim.obs is None
        and not sim._send_observers
        and sim.channel_discipline == "fifo"
        and type(sim.scheduler) in _STOCK_MODES
        and _WRAPPABLE.isdisjoint(vars(sim))
    )


def _channel_state(sim):
    """The per-simulator interned channel registry (built lazily).

    ``chan_queues[cid]``/``chan_meta[cid]`` are parallel arrays over
    channel ids; ``out_by_src[src][dst] -> cid`` is the interning map.
    Persisted on the simulator across ``run()`` calls: channel ids are
    stable for the lifetime of the system (channels are never removed).
    """
    state = sim._fast_channels
    if state is None:
        state = sim._fast_channels = ([], [], {})
    return state


def run_fast(sim, max_steps: Optional[int] = None) -> int:
    """Drop-in replacement for the body of :meth:`Simulator.run`.

    Caller guarantees :func:`eligible` holds.  Returns the number of steps
    executed, exactly like the legacy loop, and raises the same
    :class:`~repro.sim.network.StepLimitExceeded` at the same step.
    """
    from repro.core import arraystate
    from repro.sim.network import StepLimitExceeded

    scheduler = sim.scheduler
    mode = _STOCK_MODES[type(scheduler)]
    randrange = None
    if mode == _FIFO:
        pool = scheduler._queue
    elif mode == _LIFO:
        pool = scheduler._stack
    else:
        pool = scheduler._pool
        # Random.randrange(n) is documented to delegate to _randbelow(n);
        # calling it directly skips the range-normalization wrapper while
        # drawing the *identical* value sequence (the differential suite
        # pins this).  Fall back to randrange if the internal ever moves.
        rng = scheduler._rng
        randrange = getattr(rng, "_randbelow", None) or rng.randrange

    # Offer the run to the array-backed core first; ``None`` means it
    # declined (small pool, non-stock nodes, uninternable state) and the
    # object loop below proceeds with the simulator untouched.
    result = arraystate.maybe_run_array(sim, max_steps, pool, mode, randrange)
    if result is not None:
        return result
    sim._last_run_path = "fast"

    chan_queues, chan_meta, out_by_src = _channel_state(sim)
    nodes = sim.nodes
    channels = sim._channels
    id_bits = sim.id_bits
    trace = sim.trace
    trace_append = trace.events.append if trace is not None else None
    push = pool.append

    # Lazy accounting: aggregate here, fold into sim.stats on exit.
    counts: dict = {}
    bits_acc: dict = {}

    def fast_transmit(src, dst, message):
        # Interned-channel send: one dict hit on (src already interned ->
        # small dst map), no tuple hashing, no DeliverToken allocation.
        # Raises match Simulator.transmit exactly -- and, like it, leave
        # channel dicts, interning maps and accounting untouched when they
        # raise, so error-path state is identical to the legacy path (a
        # raising send must not leak a half-created channel).
        dmap = out_by_src.get(src)
        cid = dmap.get(dst) if dmap is not None else None
        if cid is None and dst not in nodes:
            raise KeyError(f"message to unknown node {dst!r} from {src!r}")
        msg_type = getattr(message, "msg_type", None)
        if msg_type is None:
            raise TypeError(f"message {message!r} lacks a msg_type")
        bits = message.bit_size(id_bits)
        if cid is None:
            if dmap is None:
                dmap = out_by_src[src] = {}
            queue = channels.get((src, dst))
            if queue is None:
                queue = channels[(src, dst)] = deque()
            cid = len(chan_meta)
            chan_queues.append(queue)
            chan_meta.append((queue, nodes[dst], src, dst))
            dmap[dst] = cid
        counts[msg_type] = counts.get(msg_type, 0) + 1
        bits_acc[msg_type] = bits_acc.get(msg_type, 0) + bits
        chan_queues[cid].append(message)
        push(cid)

    executed = 0
    #: steps that were not interned-channel deliveries (wakes, timers,
    #: lifecycle, object tokens -- the last count themselves in
    #: sim._execute_deliver); kept off the hot branch so the in-flight
    #: fold, sends minus ``executed - other``, costs a delivery nothing.
    other = 0
    steps = sim.steps
    limit = maxsize if max_steps is None else max_steps
    sim.transmit = fast_transmit
    try:
        while True:
            # -- inlined scheduler pop ---------------------------------
            if mode == _FIFO:
                if not pool:
                    break
                token = pool.popleft()
            elif mode == _LIFO:
                if not pool:
                    break
                token = pool.pop()
            else:
                size = len(pool)
                if not size:
                    break
                index = randrange(size)
                token = pool[index]
                pool[index] = pool[-1]
                pool.pop()

            # -- dispatch ----------------------------------------------
            tcls = type(token)
            if tcls is int:
                meta = chan_meta[token]
                message = meta[0].popleft()
                dst_node = meta[1]
                steps += 1
                sim.steps = steps
                executed += 1
                if not dst_node.awake:
                    dst_node.awake = True
                    if trace_append is not None:
                        trace_append(TraceEvent(steps, "wake", None, meta[3], None))
                    dst_node.on_wake()
                if trace_append is not None:
                    trace_append(
                        TraceEvent(
                            steps, "deliver", meta[2], meta[3],
                            message.msg_type, message,
                        )
                    )
                dst_node.on_message(meta[2], message)
            elif tcls is WakeToken:
                steps += 1
                sim.steps = steps
                executed += 1
                other += 1
                node = nodes[token.node]
                if node.awake:
                    if trace_append is not None:
                        trace_append(
                            TraceEvent(steps, "wake-noop", None, token.node, None)
                        )
                else:
                    node.awake = True
                    if trace_append is not None:
                        trace_append(
                            TraceEvent(steps, "wake", None, token.node, None)
                        )
                    node.on_wake()
            elif tcls is TimerToken:
                if token.cancelled:
                    # Dropped for free, no step charged (legacy parity).
                    sim._cancelled_timers = max(0, sim._cancelled_timers - 1)
                    continue
                steps += 1
                sim.steps = steps
                executed += 1
                other += 1
                sim._execute_timer(token)
            elif tcls is LifecycleToken:
                steps += 1
                sim.steps = steps
                executed += 1
                other += 1
                sim._execute_lifecycle(token)
            else:
                # A pre-existing DeliverToken (pushed by a legacy-path
                # transmit before this run) or an unknown token type; the
                # legacy step() treats both as deliveries.
                steps += 1
                sim.steps = steps
                executed += 1
                other += 1
                sim._execute_deliver(token)

            # Same source of truth as the legacy loop's boundary check:
            # ``is_quiescent`` reads the scheduler length minus cancelled
            # timers, so the raise/no-raise decision at exactly
            # ``max_steps`` cannot drift between the two paths (pinned by
            # tests/test_fastcore_regressions.py).
            if executed >= limit and not sim.is_quiescent:
                pending = sim._in_flight + sum(counts.values()) - (executed - other)
                raise StepLimitExceeded(
                    f"no quiescence within {max_steps} steps; "
                    f"{pending} messages still in flight"
                )
    finally:
        del sim.transmit  # restore the class method
        sim.steps = steps
        sim._in_flight += sum(counts.values()) - (executed - other)
        sim.stats.record_bulk(counts, bits_acc)
        if pool:
            _materialize(pool, chan_meta, mode)
    return executed


def _materialize(pool, chan_meta, mode) -> None:
    """Turn any interned int tokens still pending back into real
    :class:`DeliverToken` objects, preserving pool order.

    Only reachable on exceptional exits (step-limit, handler error): at
    quiescence the pool is empty.  Afterwards the scheduler is
    indistinguishable from one the legacy loop left behind, so replays,
    diagnostics and resumed ``run()`` calls behave identically.
    """
    if mode == _FIFO:
        items = [
            DeliverToken(chan_meta[tok][2], chan_meta[tok][3])
            if type(tok) is int
            else tok
            for tok in pool
        ]
        pool.clear()
        pool.extend(items)
    else:
        for index, tok in enumerate(pool):
            if type(tok) is int:
                meta = chan_meta[tok]
                pool[index] = DeliverToken(meta[2], meta[3])
