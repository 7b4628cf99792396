"""Differential equivalence of the engines.

One execution model, two ways to run it: the object loop
(``Simulator.run_for`` over node objects, the reference) and the array
core on the compiled C loop.  The promise is *bit-identical* executions
-- same per-type message/bit accounting, same step count, same
verification outcome, and the same trace wherever one is kept (a traced
run is an object-loop run: the gate declines it as ``trace``) -- across
every stock scheduler, plus the transparent-fallback contract: any
configuration the array core cannot serve (fault plans, recorders,
profilers, adversaries, monkeypatched seams, a process without a C loop)
is declined by its gate with a named reason, takes the object loop, and
still produces identical results under ``fast=True`` and ``fast=False``.

(The module keeps its historical file name; the suite's floor list pins
the test ids in it.)
"""

import pytest

from repro.analysis.experiments import build_family
from repro.core import arraystate
from repro.core.result import collect_result
from repro.core.runner import build_simulation, default_step_budget
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Recorder
from repro.sim.events import DeliverToken
from repro.sim.network import StepLimitExceeded
from repro.sim.scheduler import (
    Adversary,
    AdversarialScheduler,
    GlobalFifoScheduler,
    LifoScheduler,
    RandomScheduler,
    stock_pool,
)
from repro.verification.invariants import verify_discovery
from tests.conftest import array_engaged, gate_says

SCHEDULERS = {
    "fifo": GlobalFifoScheduler,
    "lifo": LifoScheduler,
    "random": lambda: RandomScheduler(seed=7),
}

#: engine -> (``fast=``, ``keep_trace=``): the reference, the traced offer
#: the gate declines as ``trace``, and the untraced one the C loop runs --
#: equal to the other two on everything but the trace it does not keep.
ENGINES = {"obj": (False, True), "traced": (True, True), "c": (True, False)}


def _outcome(graph, sim, nodes, variant):
    """Everything a finished execution can be compared on."""
    result = collect_result(graph, nodes, sim, variant)
    report = verify_discovery(result, graph)  # raises on violation
    return {
        "trace": sim.trace and [event.as_tuple() for event in sim.trace.events],
        "messages": dict(sim.stats.messages_by_type),
        "bits": dict(sim.stats.bits_by_type),
        "steps": sim.steps,
        "leaders": result.leaders,
        "verified": (report.n_leaders, report.checks),
    }


def _execute(variant, scheduler_factory, engine, *, n=48, seed=3, **kwargs):
    """One full run on ``engine``; ``kwargs`` go to ``build_simulation``."""
    fast, keep_trace = ENGINES[engine]
    graph = build_family("sparse-random", n, seed)
    sim, nodes = build_simulation(
        graph,
        variant,
        scheduler=scheduler_factory(),
        keep_trace=keep_trace,
        fast=fast,
        **kwargs,
    )
    sim.run(default_step_budget(graph))
    return _outcome(graph, sim, nodes, variant), sim._last_decline


def _assert_engines_agree(variant, factory, **kwargs):
    reference, declined = _execute(variant, factory, "obj", **kwargs)
    assert declined == "fast-off" and reference["trace"]
    traced, declined = _execute(variant, factory, "traced", **kwargs)
    assert declined == "trace" and traced == reference
    compiled, declined = _execute(variant, factory, "c", **kwargs)
    assert declined == array_engaged()[1]
    assert compiled == dict(reference, trace=None)


class TestDifferentialEquivalence:
    """The engines must be indistinguishable, bit for bit."""

    @pytest.mark.parametrize("variant", ["generic", "bounded", "adhoc"])
    @pytest.mark.parametrize("policy", sorted(SCHEDULERS))
    def test_identical_executions(self, variant, policy):
        _assert_engines_agree(variant, SCHEDULERS[policy])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules_across_seeds(self, seed):
        """The array core's random pop replays the scheduler's RNG draws."""
        factory = lambda: RandomScheduler(seed=seed)  # noqa: E731
        _assert_engines_agree("generic", factory, n=64, seed=seed)

    def test_reliable_transport_timers(self):
        """ReliableNode wrappers schedule (and cancel) timers: the gate
        declines them by node type and ``fast=True`` changes nothing."""
        legacy, _ = _execute("generic", GlobalFifoScheduler, "obj", reliable=True)
        traced, declined = _execute(
            "generic", GlobalFifoScheduler, "traced", reliable=True
        )
        assert declined == "trace" and traced == legacy
        fast, declined = _execute("generic", GlobalFifoScheduler, "c", reliable=True)
        assert declined == gate_says("node-type")
        assert fast == dict(legacy, trace=None)

    @pytest.mark.parametrize("order", ["fast_then_legacy", "legacy_then_fast"])
    def test_interrupted_run_resumes_on_either_path(self, order, monkeypatch):
        """A step-limited run leaves the scheduler in a legal object-path
        state (int tokens materialized back to token objects), stats
        folded; the execution can then *continue* with ``fast`` flipped
        and still match an uninterrupted object-loop run.  The array core
        takes only a just-built system, so the resumed leg is the object
        loop's either way: declined as ``node-state`` when ``fast``."""
        first_fast = order == "fast_then_legacy"
        reference, _ = _execute("generic", GlobalFifoScheduler, "obj")
        reference["trace"] = None  # an array leg keeps none
        # The resumed pool is below the engagement threshold; offer it.
        monkeypatch.setattr(arraystate, "_MIN_POOL_FACTOR", 1 << 30)

        graph = build_family("sparse-random", 48, 3)
        sim, nodes = build_simulation(
            graph, "generic", scheduler=GlobalFifoScheduler(), fast=first_fast
        )
        with pytest.raises(StepLimitExceeded):
            sim.run(max_steps=60)
        # Mid-run observables are already equivalent: pending tokens are
        # real objects, message stats include everything sent so far.
        assert all(
            not isinstance(token, int) for token in sim.scheduler.pending()
        )
        assert sim.steps == 60
        assert sim.in_flight() > 0
        first = (sim._last_run_path, sim._last_decline)

        sim.fast = not first_fast
        sim.run(default_step_budget(graph))
        then = (sim._last_run_path, sim._last_decline)
        if first_fast:
            assert (first, then) == (array_engaged(), ("legacy", "fast-off"))
        else:
            assert (first, then) == (("legacy", "fast-off"), ("legacy", gate_says("node-state")))
        assert _outcome(graph, sim, nodes, "generic") == reference


class _BlockNothing(Adversary):
    def blocks(self, token, sim):
        return False

    def on_stall(self, sim):  # pragma: no cover - never stalls
        return True


class TestTransparentFallback:
    """Configurations the array core cannot serve are declined by name
    and run on the object loop."""

    def _fresh_sim(self, **kwargs):
        graph = build_family("sparse-random", 32, 1)
        sim, nodes = build_simulation(graph, "generic", **kwargs)
        return graph, sim, nodes

    def test_plain_sim_is_eligible(self):
        _graph, sim, _nodes = self._fresh_sim()
        sim.run()
        assert (sim._last_run_path, sim._last_decline) == array_engaged()

    def test_fault_plan_disables_fast_path_and_matches_legacy(self):
        runs = {}
        for fast in (False, True):
            graph, sim, nodes = self._fresh_sim(
                faults=FaultInjector(FaultPlan(loss=0.2), seed=5),
                reliable=True,
                seed=9,
                fast=fast,
            )
            sim.run(default_step_budget(graph))
            assert sim._last_decline == ("faults" if fast else "fast-off")
            result = collect_result(graph, nodes, sim, "generic")
            verify_discovery(result, graph)
            runs[fast] = (
                sim.steps,
                dict(sim.stats.messages_by_type),
                result.leaders,
            )
        assert runs[True] == runs[False]

    def test_recorder_disables_fast_path_and_sees_every_event(self):
        runs = {}
        for fast in (False, True):
            recorder = Recorder()
            graph, sim, _nodes = self._fresh_sim(obs=recorder, fast=fast)
            sim.run(default_step_budget(graph))
            assert sim._last_decline == ("recorder" if fast else "fast-off")
            runs[fast] = (sim.steps, len(recorder.events))
            assert len(recorder.events) > 0
        assert runs[True] == runs[False]

    def test_profiler_instrumentation_disables_fast_path(self):
        from repro.obs.profile import Profiler

        _graph, sim, _nodes = self._fresh_sim()
        profiler = Profiler()
        profiler.instrument(sim)
        sim.run()
        assert sim._last_decline == "patched"

    def test_monkeypatched_transmit_disables_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim()
        seen = []
        original = sim.transmit

        def spy(src, dst, message):
            seen.append((src, dst))
            return original(src, dst, message)

        sim.transmit = spy
        sim.run()
        assert sim._last_decline == "patched"
        assert len(seen) == sim.stats.total_messages  # the spy saw every send

    def test_adversarial_scheduler_disables_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim(
            scheduler=AdversarialScheduler(_BlockNothing())
        )
        sim.run()
        assert sim._last_decline == "scheduler"

    def test_scheduler_subclass_disables_fast_path(self):
        pops = []

        class RecordingFifo(GlobalFifoScheduler):
            def pop(self, sim):
                pops.append(sim.steps)
                return super().pop(sim)

        _graph, sim, _nodes = self._fresh_sim(scheduler=RecordingFifo())
        sim.run()
        assert sim._last_decline == "scheduler"
        assert len(pops) > sim.steps  # every step went through the override

    def test_non_fifo_channels_disable_fast_path(self):
        _graph, sim, _nodes = self._fresh_sim(
            channel_discipline="random", channel_seed=2
        )
        sim.run()
        assert sim._last_decline == "channel-discipline"


class TestSchedulerSeam:
    """The documented-internal pool seam ``run_for`` and the array core
    rely on (``repro.sim.scheduler.stock_pool``)."""

    def test_stock_pools_exist(self):
        pools = {
            GlobalFifoScheduler: "_queue",
            LifoScheduler: "_stack",
            RandomScheduler: "_pool",
        }
        modes = set()
        for cls, attr in pools.items():
            scheduler = cls()
            mode, pool = stock_pool(scheduler)
            assert pool is getattr(scheduler, attr)
            modes.add(mode)
        assert modes == {0, 1, 2}  # the codes _arrayloop.c hardcodes
        assert hasattr(RandomScheduler(seed=0), "_rng")
        assert stock_pool(AdversarialScheduler(_BlockNothing())) == (None, None)

    def test_len_counts_interned_tokens(self):
        """Quiescence detection reads len(scheduler); the int tokens the
        array core keeps in the pool must count exactly like objects."""
        scheduler = GlobalFifoScheduler()
        scheduler._queue.append(3)
        scheduler.push(DeliverToken("a", "b"))
        assert len(scheduler) == 2
        assert list(scheduler.pending()) == [3, DeliverToken("a", "b")]

    def test_pending_is_lazy(self):
        scheduler = GlobalFifoScheduler()
        scheduler.push(DeliverToken("a", "b"))
        view = scheduler.pending()
        assert iter(view) is view  # an iterator, not a fresh tuple
