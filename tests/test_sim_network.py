"""Unit tests for the asynchronous simulator core."""

import pytest

from repro.sim.events import DeliverToken, WakeToken
from repro.sim.network import (
    SimNode,
    SimulationError,
    Simulator,
    StepLimitExceeded,
    StuckExecutionError,
)
from repro.sim.scheduler import AdversarialScheduler, Adversary, GlobalFifoScheduler
from repro.sim.trace import bits_for_ids


class Ping:
    msg_type = "ping"

    def __init__(self, tag=0):
        self.tag = tag

    def bit_size(self, id_bits):
        return bits_for_ids(1, id_bits)


class Recorder(SimNode):
    """Records deliveries; can forward on wake or receipt."""

    def __init__(self, node_id, forward_to=None, send_on_wake=None):
        super().__init__(node_id)
        self.received = []
        self.woken = False
        self.forward_to = forward_to
        self.send_on_wake = send_on_wake

    def on_wake(self):
        self.woken = True
        if self.send_on_wake is not None:
            self.send(self.send_on_wake, Ping())

    def on_message(self, sender, message):
        self.received.append((sender, message.tag))
        if self.forward_to is not None:
            self.send(self.forward_to, Ping(message.tag))


def make_pair():
    sim = Simulator()
    a, b = Recorder("a"), Recorder("b")
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


class TestBasics:
    def test_wake_then_quiesce(self):
        sim, a, b = make_pair()
        sim.schedule_wake("a")
        sim.run()
        assert a.woken and not b.woken
        assert sim.is_quiescent

    def test_message_wakes_sleeping_node(self):
        sim = Simulator()
        a = Recorder("a", send_on_wake="b")
        b = Recorder("b")
        sim.add_node(a)
        sim.add_node(b)
        sim.schedule_wake("a")
        sim.run()
        assert b.woken
        assert b.received == [("a", 0)]

    def test_wake_is_idempotent(self):
        sim, a, _ = make_pair()
        sim.schedule_wake("a")
        sim.schedule_wake("a")
        sim.run()
        assert a.woken

    def test_duplicate_node_rejected(self):
        sim, _, _ = make_pair()
        with pytest.raises(ValueError):
            sim.add_node(Recorder("a"))

    def test_unknown_wake_rejected(self):
        sim, _, _ = make_pair()
        with pytest.raises(KeyError):
            sim.schedule_wake("zzz")

    def test_self_send_rejected(self):
        sim = Simulator()
        node = Recorder("a", send_on_wake="a")
        sim.add_node(node)
        sim.schedule_wake("a")
        with pytest.raises(SimulationError):
            sim.run()

    def test_send_to_unknown_rejected(self):
        sim, a, _ = make_pair()
        a.bind(sim)
        with pytest.raises(KeyError):
            a.send("nope", Ping())

    def test_message_without_type_rejected(self):
        sim, a, _ = make_pair()
        with pytest.raises(TypeError):
            sim.transmit("a", "b", object())

    def test_stats_accounting(self):
        sim, a, b = make_pair()
        a.awake = b.awake = True
        a.send("b", Ping())
        a.send("b", Ping())
        sim.run()
        assert sim.stats.total_messages == 2
        assert sim.stats.messages_by_type == {"ping": 2}
        assert sim.stats.total_bits == 2 * bits_for_ids(1, sim.id_bits)


class TestFifo:
    def test_per_channel_fifo_order(self):
        sim, a, b = make_pair()
        a.awake = b.awake = True
        for tag in range(10):
            a.send("b", Ping(tag))
        sim.run()
        assert [tag for _, tag in b.received] == list(range(10))

    def test_fifo_preserved_under_interleaving(self):
        """Messages on one channel stay ordered even when another channel's
        deliveries interleave."""
        from repro.sim.scheduler import RandomScheduler

        for seed in range(5):
            sim = Simulator(RandomScheduler(seed))
            a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
            for node in (a, b, c):
                sim.add_node(node)
                node.awake = True
            for tag in range(8):
                a.send("c", Ping(tag))
                b.send("c", Ping(100 + tag))
            sim.run()
            from_a = [t for s, t in c.received if s == "a"]
            from_b = [t for s, t in c.received if s == "b"]
            assert from_a == list(range(8))
            assert from_b == [100 + t for t in range(8)]


class TestRunFor:
    def test_budget_exhaustion_is_not_an_error(self):
        sim = Simulator()
        a = Recorder("a", forward_to="b")
        b = Recorder("b", forward_to="a")
        sim.add_node(a)
        sim.add_node(b)
        a.awake = b.awake = True
        a.send("b", Ping())  # infinite ping-pong
        assert sim.run_for(50) == 50
        assert sim.run_for(7) == 7  # resumable: the backlog is still live

    def test_stops_early_at_quiescence(self):
        sim, a, b = make_pair()
        sim.schedule_wake("a")
        executed = sim.run_for(10_000)
        assert 0 < executed < 10_000
        assert sim.run_for(10_000) == 0  # already quiescent

    def test_zero_budget_executes_nothing(self):
        sim, a, b = make_pair()
        sim.schedule_wake("a")
        assert sim.run_for(0) == 0
        assert a.woken is False

    def test_negative_budget_rejected(self):
        sim, _a, _b = make_pair()
        with pytest.raises(ValueError, match="max_steps"):
            sim.run_for(-1)


class TestLimitsAndErrors:
    def test_step_limit(self):
        sim = Simulator()
        a = Recorder("a", forward_to="b")
        b = Recorder("b", forward_to="a")
        sim.add_node(a)
        sim.add_node(b)
        a.awake = b.awake = True
        a.send("b", Ping())
        with pytest.raises(StepLimitExceeded):
            sim.run(max_steps=50)

    def test_stuck_adversary_raises(self):
        class BlockEverything(Adversary):
            def blocks(self, token, sim):
                return isinstance(token, DeliverToken)

            def on_stall(self, sim):
                return False

        sim = Simulator(AdversarialScheduler(BlockEverything()))
        a = Recorder("a", send_on_wake="b")
        b = Recorder("b")
        sim.add_node(a)
        sim.add_node(b)
        sim.schedule_wake("a")
        with pytest.raises(StuckExecutionError):
            sim.run()

    def test_rebind_to_other_sim_rejected(self):
        sim1, a, _ = make_pair()
        sim2 = Simulator()
        with pytest.raises(SimulationError):
            sim2.add_node(a)

    def test_unbound_node_cannot_send(self):
        node = Recorder("x")
        with pytest.raises(SimulationError):
            node.send("y", Ping())


class TestTraceAndObservers:
    def test_trace_records_steps(self):
        sim = Simulator(keep_trace=True)
        a = Recorder("a", send_on_wake="b")
        b = Recorder("b")
        sim.add_node(a)
        sim.add_node(b)
        sim.schedule_wake("a")
        sim.run()
        kinds = [event.kind for event in sim.trace]
        assert kinds == ["wake", "wake", "deliver"]
        assert sim.trace.fingerprint() == sim.trace.fingerprint()

    def test_in_flight_and_backlog(self):
        sim, a, b = make_pair()
        a.awake = b.awake = True
        a.send("b", Ping())
        a.send("b", Ping())
        assert sim.in_flight() == 2
        assert sim.channel_backlog("a", "b") == 2
        assert sim.channel_backlog("b", "a") == 0
        sim.run()
        assert sim.in_flight() == 0

    def test_id_bits_validation(self):
        with pytest.raises(ValueError):
            Simulator(id_bits=0)


class TimerRecorder(SimNode):
    """Records timer firings with the step they fired at."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.fired = []

    def on_wake(self):
        pass

    def on_timer(self, tag):
        self.fired.append((self.sim.steps, tag))


class TestStepBudget:
    def test_budget_equal_to_run_length_is_enough(self):
        """Pin the off-by-one: ``max_steps=k`` must admit a k-step run."""
        sim, a, b = make_pair()
        sim.schedule_wake("a")
        needed = sim.run()
        sim2, a2, b2 = make_pair()
        sim2.schedule_wake("a")
        assert sim2.run(max_steps=needed) == needed

    def test_budget_is_never_overrun(self):
        """The limit is the number of steps actually executed, exactly."""
        sim = Simulator()
        a = Recorder("a", forward_to="b")
        b = Recorder("b", forward_to="a")
        sim.add_node(a)
        sim.add_node(b)
        a.awake = b.awake = True
        a.send("b", Ping())
        with pytest.raises(StepLimitExceeded):
            sim.run(max_steps=50)
        assert sim.steps == 50


class TestTimers:
    def test_timer_fires_at_or_after_due_step(self):
        sim = Simulator()
        node = TimerRecorder("t")
        sim.add_node(node)
        token = sim.schedule_timer("t", 5, tag="tick")
        sim.run()
        assert node.fired and node.fired[0][1] == "tick"
        assert node.fired[0][0] >= token.due

    def test_not_yet_due_timer_charges_steps_until_due(self):
        # A timer is the only pending token: popping it early must still
        # advance the clock, so the due step is always reached (no livelock).
        sim = Simulator()
        node = TimerRecorder("t")
        sim.add_node(node)
        sim.schedule_timer("t", 7)
        executed = sim.run()
        assert executed >= 7
        assert len(node.fired) == 1

    def test_cancelled_timer_never_fires_and_quiesces(self):
        sim = Simulator()
        node = TimerRecorder("t")
        sim.add_node(node)
        token = sim.schedule_timer("t", 5)
        sim.cancel_timer(token)
        assert sim.is_quiescent
        sim.run()
        assert node.fired == []
        assert sim.is_quiescent

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        node = TimerRecorder("t")
        sim.add_node(node)
        token = sim.schedule_timer("t", 5)
        sim.cancel_timer(token)
        sim.cancel_timer(token)
        assert sim.is_quiescent

    def test_timer_validation(self):
        sim = Simulator()
        sim.add_node(TimerRecorder("t"))
        with pytest.raises(ValueError):
            sim.schedule_timer("t", 0)
        with pytest.raises(KeyError):
            sim.schedule_timer("ghost", 1)
