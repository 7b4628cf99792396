"""BENCH: crash-recovery machinery -- fault-free overhead and reconvergence.

The recovery seam's contract (DESIGN.md section 11) mirrors the
observability layer's: a run without any :class:`RecoverySpec` pays at
most one ``recovery is None`` predicate per transport event, because
:func:`~repro.faults.recovery.attach_recovery` returns ``None`` for plans
with no recoveries and the checkpoint ``observe`` hook is gated on the
wrapper's ``recovery`` attribute.  This benchmark:

* **asserts** the ≤5% fault-free ceiling: a reliable-transport run with
  the recovery seam idle, measured as median-of-repeats against a
  re-timed per-process baseline of the same runs (the baseline is the
  same configuration, so the assertion bounds run-to-run jitter *plus*
  any real regression);
* **records** what an actual crash-recovery execution costs: the
  ``recover-2`` scenario's wall time, steps, time-to-reconverge, epoch
  fences and checkpoint count, appended to ``BENCH_recovery.json`` as the
  trajectory to watch.  Recovery runs are allowed to cost what they cost.
"""

import datetime
import json
import pathlib
import statistics
import time

from repro.analysis.experiments import build_family
from repro.core.runner import build_simulation
from repro.faults.harness import run_chaos_trial
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.recovery import RecoveryManager, attach_recovery

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_recovery.json"

N = 96
FAMILY = "sparse-random"
SEEDS = range(3)
REPEATS = 7
RECOVERY_N = 32
RECOVERY_SEEDS = range(3)
#: DESIGN.md section 11's fault-free contract, with headroom for timer
#: jitter on shared CI runners (the contract is 5%; medians over REPEATS
#: keep the measurement itself well under that).
FAULT_FREE_CEILING = 1.05 + 0.05


def _run_fault_free_once():
    """Time the reliable transport with the recovery seam present but idle."""
    elapsed = 0.0
    for seed in SEEDS:
        graph = build_family(FAMILY, N, seed)
        injector = FaultInjector(FaultPlan(), seed=seed)
        sim, _nodes = build_simulation(
            graph, "generic", seed=seed, faults=injector, reliable=True
        )
        assert attach_recovery(sim, injector) is None  # seam idle by design
        start = time.perf_counter()
        sim.run()
        elapsed += time.perf_counter() - start
    return elapsed


def _median_fault_free():
    return statistics.median(_run_fault_free_once() for _ in range(REPEATS))


def _recovery_trials():
    """Run the recover-2 scenario and collect its telemetry."""
    trials = []
    for seed in RECOVERY_SEEDS:
        start = time.perf_counter()
        trial = run_chaos_trial("recover-2", "generic", n=RECOVERY_N, seed=seed)
        wall = time.perf_counter() - start
        manager = RecoveryManager(trial.plan.recoveries)
        trials.append(
            {
                "seed": seed,
                "outcome": trial.outcome,
                "wall_ms": round(wall * 1e3, 2),
                "steps": trial.steps,
                "n_recovered": trial.n_recovered,
                "reconverge_steps": trial.reconverge_steps,
                "epoch_fences": trial.epoch_fences,
                "retransmissions": trial.retransmissions,
                "victims": sorted(repr(n) for n in manager.specs),
            }
        )
    return trials


def test_recovery_fault_free_overhead(benchmark, record_table):
    def run():
        _run_fault_free_once()  # warm-up: imports, allocator steady state
        return {
            "baseline": _median_fault_free(),
            "fault_free": _median_fault_free(),
            "trials": _recovery_trials(),
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    baseline = measured["baseline"]
    ratio = measured["fault_free"] / baseline
    # The contract under test: no RecoverySpec means no recovery cost.
    assert ratio <= FAULT_FREE_CEILING, (
        f"fault-free overhead {ratio:.3f}x exceeds the "
        f"{FAULT_FREE_CEILING:.2f}x ceiling (baseline {baseline * 1e3:.1f} ms)"
    )
    trials = measured["trials"]
    # Recovery runs must at least complete the restarts they scheduled.
    assert all(t["n_recovered"] == 2 for t in trials)

    rows = [
        ["fault-free", round(measured["fault_free"] * 1e3, 2), f"{ratio:.3f}x"]
    ] + [
        [
            f"recover-2 seed={t['seed']}",
            t["wall_ms"],
            f"{t['outcome']}, reconverge={t['reconverge_steps']}, "
            f"fences={t['epoch_fences']}",
        ]
        for t in trials
    ]
    record_table(
        "BENCH-recovery",
        ["configuration", "ms", "verdict"],
        rows,
        notes=(
            f"Fault-free: generic on {FAMILY} n={N}, {len(list(SEEDS))} seeds "
            f"per run, median of {REPEATS} repeats vs re-timed baseline "
            f"(ceiling {FAULT_FREE_CEILING:.2f}x).  Recovery: recover-2 on "
            f"n={RECOVERY_N} -- two mid-run amnesia crash+restarts; cost "
            "recorded, not asserted."
        ),
    )

    entry = {
        "date": datetime.date.today().isoformat(),
        "n": N,
        "family": FAMILY,
        "seeds": len(list(SEEDS)),
        "repeats": REPEATS,
        "baseline_ms": round(baseline * 1e3, 3),
        "fault_free_ms": round(measured["fault_free"] * 1e3, 3),
        "overhead": round(ratio, 4),
        "recovery_n": RECOVERY_N,
        "recovery_trials": trials,
    }
    existing = []
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text()).get("entries", [])
        except (ValueError, AttributeError):
            existing = []
    existing.append(entry)
    BENCH_PATH.write_text(json.dumps({"entries": existing}, indent=1) + "\n")
