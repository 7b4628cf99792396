"""The step-limit boundary and the transmit error contract, per engine.

Two surfaces where an engine can drift from the reference without any
differential run noticing:

* **Step-limit boundary**: the raise/no-raise decision at exactly
  ``max_steps`` reads :attr:`Simulator.is_quiescent` -- the single
  definition, which discounts cancelled timers still in the pool -- on
  the object loop and in the array core alike.  The matrix tests pin
  (raise/no-raise, ``sim.steps``, stats, channels) across the whole range
  of budgets including the exact boundary, and a negative budget is a
  ``ValueError`` before any engine is chosen.

* **``transmit`` error paths**: a send validates first and mutates last,
  so a missing-``msg_type`` ``TypeError`` or an unknown destination leaves
  no half-created channel, no stats and no token behind, and the
  surviving traffic drains normally afterwards.

Custom ``SimNode`` subclasses are declined by the array core's gate
(``node-type``), so those tests hold ``fast=True`` to the object loop's
behaviour; the stock-node tests run the array core against it.  (The
module keeps its historical file name; the suite's floor list pins the
test ids in it.)
"""

import pytest

from repro.analysis.experiments import build_family
from repro.core.arraystate import run_graph
from repro.core.runner import build_simulation
from repro.sim.network import SimNode, Simulator, StepLimitExceeded
from repro.sim.scheduler import (
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)
from repro.sim.trace import bits_for_ids
from tests.conftest import array_engaged, gate_says

SCHEDULERS = {
    "fifo": GlobalFifoScheduler,
    "lifo": LifoScheduler,
    "random": lambda: RandomScheduler(seed=11),
}


class Ping:
    msg_type = "ping"

    def __init__(self, tag=0):
        self.tag = tag

    def bit_size(self, id_bits):
        return bits_for_ids(1, id_bits)


class Relay(SimNode):
    """Forwards a ping around a ring ``hops`` times; optionally arms and
    cancels timers on wake so cancelled TimerTokens sit in the pool."""

    def __init__(self, node_id, peer, hops, timers=0, cancel=0):
        super().__init__(node_id)
        self.peer = peer
        self.hops = hops
        self.timers = timers
        self.cancel = cancel
        self.fired = 0
        self.received = 0

    def on_wake(self):
        tokens = [
            self.sim.schedule_timer(self.node_id, delay=1)
            for _ in range(self.timers)
        ]
        for token in tokens[: self.cancel]:
            self.sim.cancel_timer(token)
        self.send(self.peer, Ping())

    def on_message(self, sender, message):
        self.received += 1
        if message.tag + 1 < self.hops:
            self.send(self.peer, Ping(message.tag + 1))

    def on_timer(self, tag):
        self.fired += 1


def _ring(scheduler_factory, *, hops=6, timers=0, cancel=0, fast=True):
    sim = Simulator(scheduler_factory(), fast=fast)
    sim.add_node(Relay("a", "b", hops, timers=timers, cancel=cancel))
    sim.add_node(Relay("b", "a", hops, timers=timers, cancel=cancel))
    sim.schedule_wake("a")
    sim.schedule_wake("b")
    return sim


def _outcome(sim, max_steps):
    """(raised, steps, folded stats, channel keys) -- everything the
    boundary decision can observably change."""
    raised = False
    try:
        sim.run(max_steps)
    except StepLimitExceeded:
        raised = True
    return (
        raised,
        sim.steps,
        dict(sim.stats.messages_by_type),
        dict(sim.stats.bits_by_type),
        sorted(sim._channels.keys()),
    )


def _discovery(sched, fast):
    graph = build_family("sparse-random", 24, 2)
    return build_simulation(graph, "generic", scheduler=SCHEDULERS[sched](), fast=fast)[0]


class TestStepLimitBoundary:
    """The raise/no-raise decision at exactly ``max_steps``."""

    @pytest.mark.parametrize("sched", sorted(SCHEDULERS))
    @pytest.mark.parametrize("timers,cancel", [(0, 0), (3, 3), (4, 2)])
    def test_boundary_matrix(self, sched, timers, cancel):
        # Total step count of the quiesced run, measured once; then sweep
        # max_steps across the whole range including the exact boundary.
        probe = _ring(SCHEDULERS[sched], timers=timers, cancel=cancel, fast=True)
        probe.run()
        total = probe.steps
        for limit in [1, 2, total - 1, total, total + 1]:
            if limit < 1:
                continue
            fast = _outcome(
                _ring(SCHEDULERS[sched], timers=timers, cancel=cancel, fast=True),
                limit,
            )
            legacy = _outcome(
                _ring(SCHEDULERS[sched], timers=timers, cancel=cancel, fast=False),
                limit,
            )
            assert fast == legacy, f"boundary divergence at max_steps={limit}"
            assert fast[:2] == (limit < total, min(limit, total))

    @pytest.mark.parametrize("sched", sorted(SCHEDULERS))
    def test_boundary_matrix_array_core(self, sched):
        total = _discovery(sched, fast=False).run()
        for limit in [0, 1, 2, total - 1, total, total + 1]:
            array, legacy = _discovery(sched, fast=True), _discovery(sched, fast=False)
            assert _outcome(array, limit) == _outcome(legacy, limit), limit
            assert (array._last_run_path, array._last_decline) == array_engaged()
            assert legacy._last_decline == "fast-off"
            assert array.steps == max(1, min(limit, total))  # zero buys one step

    @pytest.mark.parametrize("fast", [True, False], ids=["array", "object"])
    def test_negative_budget_is_a_value_error(self, fast):
        # Failing-pre-fix: run(-1) executed one step and then raised "no
        # quiescence within -1 steps" on both engines.
        sim = _discovery("fifo", fast)
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            sim.run(-1)
        assert sim.steps == 0 and sim._last_run_path is None
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            run_graph(build_family("sparse-random", 24, 2), max_steps=-1)

    def test_exact_limit_with_cancelled_timers_no_raise(self):
        # Cancelled timers still in the pool after the limit-th step must
        # not count as pending work: both paths finish without raising.
        sim = _ring(GlobalFifoScheduler, timers=2, cancel=2, fast=True)
        probe = _ring(GlobalFifoScheduler, timers=2, cancel=2, fast=False)
        probe.run()
        sim.run(probe.steps)  # exactly the boundary; raise would fail this
        assert sim.steps == probe.steps
        assert (sim._last_decline, probe._last_decline) == (gate_says("node-type"), "fast-off")

    def test_fast_loop_consults_is_quiescent(self, monkeypatch):
        # Quiescence is one simulator-defined predicate.  Refining it
        # (e.g. "external work still pending") must steer the array
        # core's boundary decision exactly like the object loop's; a loop
        # that re-derives it from its local pool binding runs to
        # completion without raising.
        total = _discovery("fifo", fast=False).run()
        monkeypatch.setattr(Simulator, "is_quiescent", property(lambda self: False))
        array, legacy = _discovery("fifo", fast=True), _discovery("fifo", fast=False)
        for sim in (array, legacy):
            with pytest.raises(StepLimitExceeded):
                sim.run(total)
        assert (array._last_run_path, array._last_decline) == array_engaged()
        assert legacy._last_decline == "fast-off"
        assert array.steps == legacy.steps == total


class Bogus:
    """No ``msg_type`` attribute: transmit must reject before mutating."""

    def bit_size(self, id_bits):  # pragma: no cover - never reached
        return 1


class ErrNode(SimNode):
    """Sends a good ping to ``peer``, then one configurable bad send.

    The bad send targets ``bad_dst`` ("c" by default -- a *known* node
    with no pre-existing channel, so a leaked half-created channel is
    distinguishable from the good ping's legitimate one).
    """

    def __init__(self, node_id, peer, bad_dst=None, bad_msg=None):
        super().__init__(node_id)
        self.peer = peer
        self.bad_dst = bad_dst
        self.bad_msg = bad_msg
        self.received = 0

    def on_wake(self):
        self.send(self.peer, Ping())
        if self.bad_dst is not None or self.bad_msg is not None:
            self.send(
                self.bad_dst if self.bad_dst is not None else "c",
                self.bad_msg if self.bad_msg is not None else Ping(),
            )

    def on_message(self, sender, message):
        self.received += 1


def _err_sim(fast, **kwargs):
    sim = Simulator(GlobalFifoScheduler(), fast=fast)
    sim.add_node(ErrNode("a", "b", **kwargs))
    sim.add_node(SilentNode("b"))
    sim.add_node(SilentNode("c"))
    sim.schedule_wake("a")
    return sim


class SilentNode(SimNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.received = 0

    def on_wake(self):
        pass

    def on_message(self, sender, message):
        self.received += 1


def _post_raise_state(sim):
    return (
        sorted(sim._channels.keys()),
        {k: len(q) for k, q in sim._channels.items()},
        dict(sim.stats.messages_by_type),
        dict(sim.stats.bits_by_type),
        sim.steps,
        len(sim.scheduler),
    )


class TestTransmitErrorPaths:
    """Raising sends leave nothing behind, ``fast=`` on or off."""

    def test_unknown_destination_parity(self):
        fast = _err_sim(True, bad_dst="ghost")
        legacy = _err_sim(False, bad_dst="ghost")
        with pytest.raises(KeyError, match="unknown node 'ghost'"):
            fast.run()
        with pytest.raises(KeyError, match="unknown node 'ghost'"):
            legacy.run()
        assert _post_raise_state(fast) == _post_raise_state(legacy)

    def test_missing_msg_type_leaves_no_channel(self):
        # transmit validates before it creates the channel: a send that
        # discovers the message has no msg_type must not have registered
        # the ('a','c') deque on ``sim._channels`` first.
        fast = _err_sim(True, bad_msg=Bogus())
        legacy = _err_sim(False, bad_msg=Bogus())
        with pytest.raises(TypeError, match="lacks a msg_type"):
            fast.run()
        with pytest.raises(TypeError, match="lacks a msg_type"):
            legacy.run()
        # The good ping's ('a','b') channel is the only one allowed to
        # exist; the raising send to 'c' must leave no trace.
        assert ("a", "c") not in fast._channels
        assert _post_raise_state(fast) == _post_raise_state(legacy)

    def test_keyerror_precedence_over_typeerror(self):
        # Unknown destination *and* malformed message: the destination
        # check fires first on both paths.
        for fast_flag in (True, False):
            sim = _err_sim(fast_flag, bad_dst="ghost", bad_msg=Bogus())
            with pytest.raises(KeyError, match="unknown node 'ghost'"):
                sim.run()

    @pytest.mark.parametrize("bad", ["dst", "msg"])
    def test_resumed_run_equivalence(self, bad):
        # After the raise, drop the faulty send and resume: both paths
        # must drain the surviving traffic to the same final state.
        kwargs = {"bad_dst": "ghost"} if bad == "dst" else {"bad_msg": Bogus()}
        exc = KeyError if bad == "dst" else TypeError

        def drive(fast_flag):
            sim = _err_sim(fast_flag, **kwargs)
            with pytest.raises(exc):
                sim.run()
            a = sim.nodes["a"]
            a.bad_dst = a.bad_msg = None
            sim.run()
            return (
                _post_raise_state(sim),
                sim.nodes["b"].received,
                sim.is_quiescent,
            )

        assert drive(True) == drive(False)
