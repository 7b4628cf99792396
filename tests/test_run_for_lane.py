"""``Simulator.run_for`` is ``step()`` written out in place.

With a stock scheduler ``run_for`` inlines the pop and handles a not-due
timer or lifecycle token without leaving the loop.  That is only an
optimisation if nothing can tell: these tests drive twin systems, one
through ``run_for`` in drawn chunks and one through single ``step()``
calls, and compare everything an observer could read after every chunk.
The pinned cases at the bottom hold the gate in place -- which
configurations take the inlined loop and which must not.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import arrayloop
from repro.lowerbounds.tree_adversary import TreeAdversary
from repro.obs.events import Recorder
from repro.obs.profile import Profiler
from repro.sim import network
from repro.sim.events import LifecycleToken, TimerToken, WakeToken
from repro.sim.network import SimNode, Simulator
from repro.sim.scheduler import (
    AdversarialScheduler,
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
)


class Ping:
    msg_type = "ping"

    def __init__(self, hops):
        self.hops = hops

    def bit_size(self, id_bits):
        return id_bits

    def __repr__(self):
        return f"Ping({self.hops})"


class Busy(SimNode):
    """Pings its ring neighbour, arms timers, cancels some, re-arms from
    inside ``on_timer`` -- every kind of token a handler can create."""

    def __init__(self, node_id, peer, plan):
        super().__init__(node_id)
        self.peer = peer
        self.plan = plan  # delays armed on wake; every third is cancelled
        self.fired = []
        self.lifecycle = []

    def on_wake(self):
        self.send(self.peer, Ping(3))
        for index, delay in enumerate(self.plan):
            token = self.sim.schedule_timer(self.node_id, delay, tag=("t", index))
            if index % 3 == 2:
                self.sim.cancel_timer(token)

    def on_message(self, sender, message):
        if message.hops:
            self.send(self.peer, Ping(message.hops - 1))

    def on_timer(self, tag):
        self.fired.append((self.sim.steps, tag))
        if tag[0] == "t" and tag[1] % 2 == 0:
            # a timer armed mid-run, from inside a handler
            self.sim.schedule_timer(self.node_id, 2 + tag[1], tag=("again", tag[1]))

    def on_crash(self):
        self.lifecycle.append((self.sim.steps, "crash"))

    def on_recover(self):
        self.lifecycle.append((self.sim.steps, "recover"))


SCHEDULERS = {
    "fifo": lambda seed: GlobalFifoScheduler(),
    "lifo": lambda seed: LifoScheduler(),
    "random": lambda seed: RandomScheduler(seed),
}


def build(kind, seed, plans, lifecycle, *, obs=None):
    sim = Simulator(SCHEDULERS[kind](seed), keep_trace=True, obs=obs, fast=False)
    ids = list(range(len(plans)))
    for node_id, plan in zip(ids, plans):
        sim.add_node(Busy(node_id, ids[(node_id + 1) % len(ids)], plan))
    for node_id in ids:
        sim.schedule_wake(node_id)
    for node_id, crash_at, down_for in lifecycle:
        sim.schedule_lifecycle(node_id % len(ids), crash_at, "crash")
        sim.schedule_lifecycle(node_id % len(ids), crash_at + down_for, "recover")
    return sim


def token_key(token):
    if isinstance(token, TimerToken):
        return ("timer", token.node, token.due, token.tag, token.cancelled)
    return token


def observe(sim):
    rng = getattr(sim.scheduler, "_rng", None)
    return {
        "steps": sim.steps,
        "trace": sim.trace.fingerprint(),
        "rng": rng.getstate() if rng is not None else None,
        "pool": [token_key(token) for token in sim.scheduler.pending()],
        "cancelled": sim._cancelled_timers,
        "quiescent": sim.is_quiescent,
        "in_flight": sim.in_flight(),
        "stamp": sim.protocol_stamp,
        "fired": [node.fired for node in sim.nodes.values()],
        "lifecycle": [node.lifecycle for node in sim.nodes.values()],
    }


def step_many(sim, count):
    executed = 0
    while executed < count and sim.step():
        executed += 1
    return executed


plans_st = st.lists(
    st.lists(st.integers(1, 60), max_size=5), min_size=2, max_size=5
)
lifecycle_st = st.lists(
    st.tuples(st.integers(0, 4), st.integers(1, 80), st.integers(1, 40)), max_size=3
)
chunks_st = st.lists(st.integers(0, 40), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(0, 1000),
    plans=plans_st,
    lifecycle=lifecycle_st,
    chunks=chunks_st,
)
def test_run_for_equals_repeated_step(kind, seed, plans, lifecycle, chunks):
    lane = build(kind, seed, plans, lifecycle)
    ref = build(kind, seed, plans, lifecycle)
    for chunk in chunks + [10_000]:  # the last one runs both to quiescence
        assert lane.run_for(chunk) == step_many(ref, chunk)
        assert observe(lane) == observe(ref)
    assert lane.is_quiescent


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
def test_the_comparison_sees_every_kind_of_token(kind):
    """The property is vacuous unless its systems really hold live,
    cancelled, not-due and due timers, not-due lifecycle tokens and a
    timer armed from inside a handler; pin one that has them all."""
    plans = [[5, 40, 9, 1], [30, 2, 7], [12]]
    lifecycle = [(1, 50, 30)]
    lane, ref = build(kind, 7, plans, lifecycle), build(kind, 7, plans, lifecycle)
    pops = count_pops(lane)
    ticks = 0
    while True:
        traced = len(lane.trace)
        ran = lane.run_for(1)
        assert ran == step_many(ref, 1)
        assert observe(lane) == observe(ref)
        if not ran:
            break
        # a step that left no trace event and fired nothing was a tick
        ticks += len(lane.trace) == traced and not any(
            at == lane.steps for node in lane.nodes.values() for at, _ in node.fired
        )
    assert pops["n"] == 0  # never left the inlined loop
    assert ticks > 20
    fired = [tag for node in lane.nodes.values() for _, tag in node.fired]
    assert ("t", 0) in fired and ("again", 0) in fired  # due + armed mid-run
    assert ("t", 2) not in fired  # cancelled
    # (LIFO ticks on the later token until it is due, so recover comes first)
    assert sorted(action for _, action in lane.nodes[1].lifecycle) == ["crash", "recover"]
    assert lane._cancelled_timers == 0 and lane.is_quiescent


# ----------------------------------------------------------------------
# The gate: who takes the inlined loop
# ----------------------------------------------------------------------
def count_pops(sim):
    """``scheduler.pop`` is what ``step()`` calls and the inlined loop never
    does; shadowing it on the *instance* leaves ``type(scheduler)`` stock."""
    calls = {"n": 0}
    pop = sim.scheduler.pop

    def counting_pop(simulator):
        calls["n"] += 1
        return pop(simulator)

    sim.scheduler.pop = counting_pop
    return calls


PLANS = [[5, 40, 9, 1], [30, 2, 7], [12]]


def test_recorder_attached_still_inlines_and_emits_the_same_events():
    lane_obs, ref_obs = Recorder(), Recorder()
    lane = build("random", 3, PLANS, [(0, 20, 15)], obs=lane_obs)
    ref = build("random", 3, PLANS, [(0, 20, 15)], obs=ref_obs)
    pops = count_pops(lane)
    assert lane.run_for(10_000) == step_many(ref, 10_000)
    assert pops["n"] == 0
    assert lane_obs.events == ref_obs.events and len(lane_obs.events) > 20
    assert observe(lane) == observe(ref)


def test_profiled_instance_is_stepped_so_the_wrappers_see_every_call():
    sim = build("random", 3, PLANS, [])
    profiler = Profiler()
    profiler.instrument(sim)
    executed = sim.run_for(10_000)
    assert profiler.buckets["step"].calls == executed + 1  # + the quiescent one
    # ticks included: far more timer dispatches than timers ever armed
    assert profiler.buckets["dispatch.timer"].calls > 3 * sum(map(len, PLANS))


def test_class_patched_step_is_honoured(monkeypatch):
    calls = {"n": 0}
    original = Simulator.step

    def counted(self):
        calls["n"] += 1
        return original(self)

    monkeypatch.setattr(Simulator, "step", counted)
    sim = build("fifo", 0, PLANS, [])
    assert sim.run_for(25) == 25
    assert calls["n"] == 25


def test_scheduler_subclass_is_stepped():
    class Tweaked(RandomScheduler):
        pass

    sim = Simulator(Tweaked(3), fast=False)
    sim.add_node(Busy(0, 1, [4, 9]))
    sim.add_node(Busy(1, 0, [2]))
    sim.schedule_wake(0)
    pops = count_pops(sim)
    executed = sim.run_for(10_000)
    assert pops["n"] == executed + 1


def test_adversarial_scheduler_is_stepped():
    sim = Simulator(AdversarialScheduler(TreeAdversary(height=2)), fast=False)
    sim.add_node(Busy(0, 1, [4]))
    sim.add_node(Busy(1, 0, []))
    sim.schedule_wake(0)
    pops = count_pops(sim)
    executed = sim.run_for(10_000)
    assert executed > 0 and pops["n"] == executed + 1


def test_run_shares_the_inlined_loop_and_keeps_its_limit_contract():
    """The legacy branch of ``run`` is ``run_for`` plus the limit check:
    at most ``max_steps`` steps, no raise when that step quiesced."""
    from repro.sim.network import StepLimitExceeded

    probe = build("random", 5, PLANS, [])
    total = probe.run()
    assert probe._last_run_path == "legacy"

    exact = build("random", 5, PLANS, [])
    assert exact.run(total) == total and exact.is_quiescent
    assert observe(exact) == observe(probe)

    short = build("random", 5, PLANS, [])
    with pytest.raises(StepLimitExceeded):
        short.run(total - 1)
    assert short.steps == total - 1


# ----------------------------------------------------------------------
# The native tick lane: every exit of the C loop's ``tick``
# ----------------------------------------------------------------------
@pytest.fixture
def exits(monkeypatch):
    """Every native ``tick`` call ``run_for`` makes, as ``(steps, ticks,
    index, drawn token, pool size)``; ``None`` with no C loop."""
    module = arrayloop.load()
    if module is None:
        yield None
        return
    seen = []

    def spy(pool, rng, steps, budget):
        ticks, index = module.tick(pool, rng, steps, budget)
        drawn = pool[index] if index >= 0 else None
        seen.append((steps, ticks, index, drawn, len(pool)))
        return ticks, index

    monkeypatch.setattr(network, "_tick", spy)
    yield seen


def timed(seed, *arm):
    """A builder of a random-pool system of two quiet nodes (nothing
    woken) whose pool holds what the ``arm`` callables push."""

    def build():
        sim = Simulator(RandomScheduler(seed), fast=False)
        for node_id in (0, 1):
            sim.add_node(Busy(node_id, 1 - node_id, []))
        for push in arm:
            push(sim)
        return sim

    return build


def timer(node, delay, cancel=False):
    def push(sim):
        token = sim.schedule_timer(node, delay, tag=("x", delay))
        if cancel:
            sim.cancel_timer(token)

    return push


def lifecycle(node, at, action):
    return lambda sim: sim.schedule_lifecycle(node, at, action)


def wake(node):
    return lambda sim: sim.schedule_wake(node)


def lane_view(sim):
    return {
        "rng": sim.scheduler._rng.getstate(),
        "pool": [token_key(token) for token in sim.scheduler.pending()],
        "steps": sim.steps,
        "cancelled": sim._cancelled_timers,
        "fired": [node.fired for node in sim.nodes.values()],
        "lifecycle": [node.lifecycle for node in sim.nodes.values()],
    }


def held_to_step(build, chunks):
    """``run_for`` chunk by chunk against as many single ``step()``s."""
    lane, ref = build(), build()
    for chunk in chunks:
        assert lane.run_for(chunk) == step_many(ref, chunk)
        assert lane_view(lane) == lane_view(ref)
    return lane


#: name -> (system, run_for chunks, what one native exit must show)
TICK_CASES = {
    "cancelled-timer-drawn": (
        timed(1, timer(0, 40), timer(1, 3, cancel=True), timer(0, 9, cancel=True)),
        [10_000],
        lambda steps, ticks, index, drawn, size: isinstance(drawn, TimerToken)
        and drawn.cancelled,
    ),
    "lifecycle": (
        timed(2, lifecycle(0, 30, "crash"), lifecycle(0, 55, "recover")),
        [7, 10_000],
        lambda steps, ticks, index, drawn, size: ticks
        and isinstance(drawn, LifecycleToken)
        and drawn.due == steps + ticks + 1,
    ),
    "due-at-next-step": (
        # alone in the pool, so the draw that stops the ticks is the
        # first one at which it is due
        timed(3, timer(0, 25)),
        [10_000],
        lambda steps, ticks, index, drawn, size: ticks
        and isinstance(drawn, TimerToken)
        and drawn.due == steps + ticks + 1,
    ),
    "budget-spent-mid-ticks": (
        timed(4, timer(0, 90), lifecycle(1, 120, "crash")),
        [13, 1, 30, 10_000],
        lambda steps, ticks, index, drawn, size: ticks in (13, 30)
        and index == -1
        and size == 2,
    ),
    "pool-of-one": (
        timed(5, lifecycle(1, 60, "crash")),
        [25, 10_000],
        lambda steps, ticks, index, drawn, size: size == 1 and ticks and index == 0,
    ),
    "empty-pool": (
        timed(6, wake(0)),
        [1, 10_000],
        lambda steps, ticks, index, drawn, size: size == 0 and (ticks, index) == (0, -1),
    ),
    "no-exact-int-due": (
        # a float delay: the kernel cannot tell, the interpreter ticks it
        timed(7, timer(0, 6.5), wake(1)),
        [10_000],
        lambda steps, ticks, index, drawn, size: isinstance(drawn, TimerToken)
        and isinstance(drawn.due, float),
    ),
}


@pytest.mark.parametrize("case", sorted(TICK_CASES))
def test_each_exit_of_the_native_tick_equals_repeated_step(case, exits):
    build, chunks, shows = TICK_CASES[case]
    lane = held_to_step(build, chunks)
    assert lane.is_quiescent
    if exits is not None:
        assert any(shows(*exit) for exit in exits), exits


def test_a_slice_of_ticks_returns_to_the_loop_head(exits, monkeypatch):
    """A due step past 2**20 ticks away: the kernel returns after a slice
    of them and is called again; the Python lane agrees to the draw."""
    build = timed(8, lifecycle(0, (1 << 20) + 40, "crash"))
    lane = build()
    assert lane.run_for(1 << 21) == (1 << 20) + 40
    monkeypatch.setattr(network, "_tick", None)
    python_lane = build()
    assert python_lane.run_for(1 << 21) == (1 << 20) + 40
    assert lane_view(lane) == lane_view(python_lane)
    if exits is not None:
        assert exits[0] == (0, 1 << 20, -1, None, 1)


def test_a_generator_subclass_takes_the_python_lane(exits):
    class Subclassed(random.Random):
        pass

    def build():
        sim = timed(9, timer(0, 30), lifecycle(1, 50, "crash"), wake(0))()
        sim.scheduler._rng = Subclassed(9)
        return sim

    held_to_step(build, [5, 10_000])
    assert not exits


def test_the_kernel_takes_only_a_list_and_an_exact_generator():
    module = arrayloop.load()
    if module is None:
        pytest.skip(arrayloop.why_missing())

    class Subclassed(random.Random):
        pass

    rng = random.Random(3)
    before = rng.getstate()
    for pool, generator in (
        (deque([WakeToken(0)]), rng),
        ([WakeToken(0)], Subclassed(3)),
        ([WakeToken(0)], random.SystemRandom()),
    ):
        with pytest.raises(TypeError, match="tick wants a list and a random.Random"):
            module.tick(pool, generator, 0, 10)
    assert rng.getstate() == before
    assert module.tick([], rng, 0, 10) == (0, -1)
    assert module.tick([WakeToken(0)], rng, 0, 0) == (0, -1)
    assert rng.getstate() == before  # nothing drawn
