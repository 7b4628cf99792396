"""BENCH: the price of reliability -- retransmission overhead vs loss rate.

Runs the Generic algorithm under the selective-repeat transport while the
fault layer drops an increasing fraction of messages, and records what the
recovery costs: overhead messages/bits (``rt-retrans`` + ``rt-ack`` +
``rt-nack``) as a share of total traffic, retransmission counts, and the
step-count price.  Each run appends its rows to ``BENCH_faults.json``
``entries``; the ``"gbn"`` rows there are the go-back-N transport that
preceded selective repeat, kept as history.  Safety is asserted on every
run (zero stepwise violations, properties on all survivors).  Two
**perf-floor assertions** make a regression in the piggyback/delayed-ack
machinery or the adaptive timers fail the bench instead of silently
bending the curve:

* clean-channel overhead share: must stay under ``SR_MAX_CLEAN_SHARE`` at
  loss=0.  The achieved level is ~0.30 against go-back-N's 0.54.  A tighter 0.15 target is structurally unreachable on this
  workload: the discovery run sends a median of two payloads per directed
  pair, every conversation tail still owes one standalone cumulative ack
  after reverse traffic stops, and those ~80 unavoidable tail acks alone
  are ~0.17 of total traffic at n=32 (the share *rises* with n as
  conversations get shorter);
* loss=0.2 latency: must finish in under half the committed go-back-N
  baseline's virtual-time steps (13914 -> floor at 6957) -- the payoff of
  NACK repair + adaptive RTOs over fixed-timer go-back-N.

A second series, ``chaos_loop``, prices the monitored chaos loop itself
(n=128, 20% loss, 8 seeds) as in-process ratios, so a runner's absolute
speed cancels out:

* ``monitored_over_unmonitored`` at ``monitor_every`` 1 and 64 -- trial
  wall-clock with the stepwise monitor at that cadence over the same
  trials checked only at rest.  What the safety monitor costs on top of
  simulating; the two values the CI gate holds to ``LOOP_SLACK`` times
  the committed ones.
* ``checks_run_over_reached`` -- the share of checkpoints whose protocol
  stamp had moved, so the full check ran (deterministic per seed set).
* ``tick_over_delivering_step`` -- host time of one not-due timer tick
  over one message-delivering step of a plain discovery.
"""

import datetime
import json
import os
import pathlib
import statistics
import time

from repro.analysis.experiments import build_family
from repro.core.runner import build_simulation, default_step_budget
from repro.faults import FaultPlan, harness, run_chaos_trial
from repro.sim.network import SimNode, Simulator
from repro.sim.scheduler import RandomScheduler
from repro.verification.monitor import StepwiseMonitor

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_faults.json"

LOSS_RATES = (0.0, 0.05, 0.10, 0.20, 0.30)
N = 32
FAMILY = "sparse-random"
SEEDS = range(4)

#: Perf floors (see module docstring).
SR_MAX_CLEAN_SHARE = 0.35
SR_MAX_LOSS20_STEPS = 6957  # half the committed go-back-N baseline (13914)


def _load_bench():
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except ValueError:
            pass
    return {}


def test_fault_overhead(benchmark, record_table):
    def run():
        return [
            (
                loss,
                [
                    run_chaos_trial(
                        FaultPlan(loss=loss), "generic", family=FAMILY, n=N, seed=seed
                    )
                    for seed in SEEDS
                ],
            )
            for loss in LOSS_RATES
        ]

    curve = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    entries = []
    for loss, trials in curve:
        # The hard criterion: reliability must actually deliver -- every
        # seed quiesces with clean safety and full properties.
        for trial in trials:
            assert trial.safety_ok, (loss, trial.seed, trial.detail)
            assert trial.outcome == "ok", (loss, trial.seed, trial.outcome, trial.detail)
        mean = lambda xs: statistics.fmean(xs)  # noqa: E731
        overhead_msgs = mean([t.overhead_messages for t in trials])
        total_msgs = mean([t.total_messages for t in trials])
        overhead_bits = mean([t.overhead_bits for t in trials])
        total_bits = mean([t.total_bits for t in trials])
        retrans = mean([t.retransmissions for t in trials])
        steps = mean([t.steps for t in trials])
        if loss == 0.0:
            assert overhead_msgs / total_msgs < SR_MAX_CLEAN_SHARE, (
                f"clean-channel overhead share {overhead_msgs / total_msgs:.3f} "
                f"regressed past {SR_MAX_CLEAN_SHARE}"
            )
        if loss == 0.20:
            assert steps < SR_MAX_LOSS20_STEPS, (
                f"loss=0.2 mean steps {steps:.1f} regressed past "
                f"{SR_MAX_LOSS20_STEPS} (half the go-back-N baseline)"
            )
        rows.append(
            [
                f"{loss:.0%}",
                round(total_msgs, 1),
                round(overhead_msgs, 1),
                f"{overhead_msgs / total_msgs:.1%}",
                f"{overhead_bits / total_bits:.1%}",
                round(retrans, 1),
                round(steps, 1),
            ]
        )
        entries.append(
            {
                "date": datetime.date.today().isoformat(),
                "n": N,
                "family": FAMILY,
                "seeds": len(list(SEEDS)),
                "transport": "sr",
                "loss": loss,
                "messages": round(total_msgs, 1),
                "overhead_messages": round(overhead_msgs, 1),
                "overhead_msg_share": round(overhead_msgs / total_msgs, 4),
                "overhead_bit_share": round(overhead_bits / total_bits, 4),
                "retransmissions": round(retrans, 1),
                "steps": round(steps, 1),
            }
        )

    record_table(
        "BENCH-fault-overhead",
        [
            "loss",
            "messages",
            "overhead msgs",
            "msg share",
            "bit share",
            "retrans",
            "steps",
        ],
        rows,
        notes=(
            f"Generic + reliable transport, {FAMILY} n={N}, "
            f"{len(list(SEEDS))} seeds per loss rate, selective repeat. "
            "Criterion: every run quiesces with clean safety and full "
            "properties, under the clean-channel share "
            f"floor (<{SR_MAX_CLEAN_SHARE}) and the loss=0.2 latency floor "
            f"(<{SR_MAX_LOSS20_STEPS} steps)."
        ),
    )

    data = _load_bench()
    data.setdefault("entries", []).extend(entries)
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


# ----------------------------------------------------------------------
# chaos_loop: what monitoring and idling cost, as ratios
# ----------------------------------------------------------------------
LOOP = {"n": 128, "scenario": "loss-20", "variant": "generic", "seeds": 8}
LOOP_CADENCES = (1, 64)
LOOP_REPEATS = 3
#: Measured monitored/unmonitored ratios must stay below this multiple of
#: the committed ones.
LOOP_SLACK = 1.25
#: A cadence no trial reaches: the only check left is the one at rest.
AT_REST_ONLY = 10**9


def _trials(monitor_every):
    """``(wall-clock, checkpoints reached, checks run)`` of the LOOP trials
    at one cadence, counted on the trials' own monitors."""
    monitors = []

    class Collected(StepwiseMonitor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            monitors.append(self)

    harness.StepwiseMonitor = Collected
    try:
        start = time.perf_counter()
        for seed in range(LOOP["seeds"]):
            trial = run_chaos_trial(
                LOOP["scenario"],
                LOOP["variant"],
                FAMILY,
                LOOP["n"],
                seed,
                monitor_every=monitor_every,
            )
            assert trial.outcome == "ok", (seed, trial.outcome, trial.detail)
        wall = time.perf_counter() - start
    finally:
        harness.StepwiseMonitor = StepwiseMonitor
    reached = sum(monitor.steps_checked for monitor in monitors)
    return wall, reached, reached - sum(monitor.checks_skipped for monitor in monitors)


class _Idle(SimNode):
    def on_message(self, sender, message):  # pragma: no cover - never sent to
        pass


def _us_per_tick(ticks=200_000, timers=256):
    """Host microseconds per not-due timer pop, nothing else pending."""
    sim = Simulator(RandomScheduler(1))
    sim.add_node(_Idle(0))
    for tag in range(timers):
        sim.schedule_timer(0, ticks + 1, tag=tag)
    start = time.perf_counter()
    assert sim.run_for(ticks) == ticks
    return 1e6 * (time.perf_counter() - start) / ticks


def _us_per_delivering_step():
    """A plain discovery on the object loop: wake-ups and deliveries only."""
    graph = build_family(FAMILY, LOOP["n"], 0)
    sim, _nodes = build_simulation(graph, LOOP["variant"], seed=0, fast=False)
    start = time.perf_counter()
    steps = sim.run(default_step_budget(graph))
    return 1e6 * (time.perf_counter() - start) / steps


def test_chaos_loop(benchmark, record_table):
    def run():
        # Interleaved best-of: every cadence sees the same drift.
        best = {key: float("inf") for key in ("rest", "tick", "step", *LOOP_CADENCES)}
        checks = {}
        for _ in range(LOOP_REPEATS):
            best["rest"] = min(best["rest"], _trials(AT_REST_ONLY)[0])
            for every in LOOP_CADENCES:
                wall, *checks[every] = _trials(every)
                best[every] = min(best[every], wall)
            best["tick"] = min(best["tick"], _us_per_tick())
            best["step"] = min(best["step"], _us_per_delivering_step())
        return best, checks

    best, checks = benchmark.pedantic(run, rounds=1, iterations=1)
    loop = {
        "date": datetime.date.today().isoformat(),
        **LOOP,
        "family": FAMILY,
        "cpus": os.cpu_count(),
        "unmonitored_wall_ms": round(best["rest"] * 1e3, 1),
        "us_per_tick": round(best["tick"], 3),
        "us_per_delivering_step": round(best["step"], 3),
        "tick_over_delivering_step": round(best["tick"] / best["step"], 4),
    }
    for every in LOOP_CADENCES:
        reached, ran = checks[every]
        loop[f"every{every}"] = {
            "monitored_wall_ms": round(best[every] * 1e3, 1),
            "monitored_over_unmonitored": round(best[every] / best["rest"], 3),
            "checkpoints_reached": reached,
            "checks_run": ran,
            "checks_run_over_reached": round(ran / reached, 4),
        }

    data = _load_bench()
    series = data.setdefault("chaos_loop", [])
    if series:
        committed = series[-1]
        for every in LOOP_CADENCES:
            key = f"every{every}"
            ratio = loop[key]["monitored_over_unmonitored"]
            ceiling = LOOP_SLACK * committed[key]["monitored_over_unmonitored"]
            assert ratio <= ceiling, (
                f"monitor_every={every}: monitored/unmonitored wall {ratio:.2f}x "
                f"is above {ceiling:.2f}x (committed "
                f"{committed[key]['monitored_over_unmonitored']:.2f}x, "
                f"slack {LOOP_SLACK:g}x)"
            )

    record_table(
        "BENCH-chaos-loop",
        ["monitor_every", "wall ms", "vs unmonitored", "checkpoints", "checks run", "share run"],
        [
            [
                every,
                loop[f"every{every}"]["monitored_wall_ms"],
                loop[f"every{every}"]["monitored_over_unmonitored"],
                loop[f"every{every}"]["checkpoints_reached"],
                loop[f"every{every}"]["checks_run"],
                loop[f"every{every}"]["checks_run_over_reached"],
            ]
            for every in LOOP_CADENCES
        ],
        notes=(
            f"{LOOP['seeds']} {LOOP['scenario']} trials, {LOOP['variant']} on "
            f"{FAMILY} n={LOOP['n']}, best of {LOOP_REPEATS}; unmonitored "
            f"{loop['unmonitored_wall_ms']} ms; idle tick {loop['us_per_tick']} us = "
            f"{loop['tick_over_delivering_step']:.3f} of a delivering step. "
            f"Criterion: both vs-unmonitored ratios <= {LOOP_SLACK:g}x the "
            "committed ones."
        ),
    )
    series.append(loop)
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")
