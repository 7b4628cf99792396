"""BENCH: steady-state service throughput and SLO conformance.

Runs the ``repro.service`` driver (the ``serve-sim`` regime: open-loop
arrivals, no terminal quiescence) on a Poisson and a bursty workload,
times the full injection + execution loop, and appends the headline SLO
numbers to ``BENCH_service.json`` at the repository root.

Shape criteria (Theorem 8 plus liveness):

* amortized service messages per operation, normalized by
  ``alpha(m, n + n-hat)``, stays below a small constant;
* every injected probe completes (moderate load, generous budget);
* every churn burst reconverges before the next one opens.

``test_service_steady_series`` (CI's perf-smoke job) is the host-cost
side: the repository benchmark's ``serve-poisson`` shape (n=1024, Poisson
rate 50, duration 200000, about 10k operations), recorded under the
``steady`` key.  Its two gated numbers are machine-independent ratios
taken inside one process:

* ``ratio`` -- service steps/s over the steps/s of a plain object-loop
  discovery on the same graph.  The service loop is that same loop plus
  the driver; the ratio is what the driver and a growing network cost.
  Must stay above ``REGRESSION_FLOOR`` of the committed value.
* ``growth`` -- host microseconds per step in the last quarter of the
  run over the first quarter.  Cost per step may grow with the *network*
  (it triples during the window) but not with the *history*; the parent
  of the change that introduced this series measured 1.84.  Must stay
  below ``GROWTH_SLACK`` times the committed value.

and one memory number, measured on an extra, untimed run:

* ``retained_kib_per_node`` -- the heap (``tracemalloc``'s current
  bytes) still held once ``ServiceDriver.run()`` returns, network, report
  and every probe answer included, per node of the final network.  What a
  long-running service keeps must follow the network, not the answers it
  gave: when each census answer was its own frozenset this was 58.4
  KiB/node, 11.4 since answers are census views.  Must stay below
  ``RETAINED_SLACK`` times the committed value.
"""

import datetime
import json
import os
import pathlib
import resource
import time
import tracemalloc

from repro.analysis.experiments import build_family
from repro.core.adhoc import AdhocNetwork
from repro.core.runner import build_simulation, default_step_budget
from repro.service import ServiceDriver, build_workload, summarize_service

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_service.json"

FAMILY = "sparse-random"
N = 64
SEED = 2
WORKLOADS = (
    ("poisson", dict(rate=10.0, duration=3000)),
    ("bursty", dict(rate=8.0, duration=3000)),
)
#: msgs/(op * alpha) must stay below this constant (Theorem 8's "O(...)").
AMORTIZED_CEILING = 8.0

STEADY = dict(n=1024, seed=0, kind="poisson", rate=50.0, duration=200_000)
STEADY_REPEATS = 3
#: Measured ratio must stay above this fraction of the committed one.
REGRESSION_FLOOR = 0.75
#: Measured growth must stay below this multiple of the committed one.
GROWTH_SLACK = 1.25
#: Measured retained heap per node must stay below this multiple of the
#: committed one.
RETAINED_SLACK = 1.25


def _load_bench():
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except ValueError:
            pass
    return {}


def _run_one(kind, params):
    graph = build_family(FAMILY, N, SEED)
    workload = build_workload(kind, graph, seed=SEED, **params)
    net = AdhocNetwork(graph, seed=SEED)
    driver = ServiceDriver(net, workload, verify_on_reconvergence=(kind == "bursty"))
    start = time.perf_counter()
    report = driver.run()
    wall = time.perf_counter() - start
    summary = summarize_service(report)
    return report, summary, wall


def test_service_slo_bench(benchmark, record_table):
    def run():
        return {kind: _run_one(kind, params) for kind, params in WORKLOADS}

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    entry_runs = []
    for kind, (report, summary, wall) in measured.items():
        assert not report.budget_exhausted, f"{kind}: step budget exhausted"
        assert summary.probes_incomplete == 0, (
            f"{kind}: {summary.probes_incomplete} probes never completed"
        )
        assert summary.amortized_over_alpha <= AMORTIZED_CEILING, (
            f"{kind}: msgs/(op*alpha) = {summary.amortized_over_alpha:.2f} "
            f"exceeds the Theorem 8 ceiling {AMORTIZED_CEILING}"
        )
        assert summary.bursts_reconverged == summary.bursts_total, (
            f"{kind}: only {summary.bursts_reconverged}/{summary.bursts_total} "
            "bursts reconverged"
        )
        steps_per_s = int(report.steps_executed / wall) if wall > 0 else 0
        rows.append(
            [
                kind,
                summary.operations,
                report.steps_executed,
                summary.latency_p50,
                summary.latency_p95,
                summary.latency_p99,
                round(summary.amortized_cost, 2),
                round(summary.amortized_over_alpha, 2),
                round(wall * 1e3, 1),
            ]
        )
        entry_runs.append(
            {
                "workload": kind,
                "n": N,
                "seed": SEED,
                "operations": summary.operations,
                "steps_executed": report.steps_executed,
                "wall_ms": round(wall * 1e3, 3),
                "steps_per_s": steps_per_s,
                "latency_p50": summary.latency_p50,
                "latency_p95": summary.latency_p95,
                "latency_p99": summary.latency_p99,
                "throughput_per_kstep": round(summary.throughput_per_kstep, 3),
                "amortized_msgs_per_op": round(summary.amortized_cost, 3),
                "amortized_over_alpha": round(summary.amortized_over_alpha, 3),
                "bursts_reconverged": summary.bursts_reconverged,
            }
        )

    record_table(
        "BENCH-service-slo",
        [
            "workload",
            "ops",
            "steps",
            "p50",
            "p95",
            "p99",
            "msgs/op",
            "msgs/(op*alpha)",
            "wall-ms",
        ],
        rows,
        notes=(
            f"Ad-hoc service on {FAMILY} n={N}, open-loop arrivals, virtual-"
            "time latencies. Criterion: all probes complete, all bursts "
            f"reconverge, msgs/(op*alpha) <= {AMORTIZED_CEILING:g}."
        ),
    )

    data = _load_bench()
    entries = data.get("entries", [])
    entries.append(
        {"date": datetime.date.today().isoformat(), "runs": entry_runs}
    )
    data["entries"] = entries
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _object_loop_steps_per_s(graph, seed):
    """A plain discovery on the legacy object loop: the same ``step()``
    the service's ``run_for`` executes, with nothing around it."""
    sim, _nodes = build_simulation(graph, "adhoc", seed=seed, fast=False)
    start = time.perf_counter()
    steps = sim.run(default_step_budget(graph))
    return steps / (time.perf_counter() - start)


def _steady_service(graph):
    """The ``steady`` shape's driver, ready to run."""
    seed = STEADY["seed"]
    workload = build_workload(
        STEADY["kind"], graph, rate=STEADY["rate"], duration=STEADY["duration"], seed=seed
    )
    return ServiceDriver(AdhocNetwork(graph, seed=seed), workload)


def _retained_kib_per_node(graph):
    """Heap held once a service run returns, per node of the final network
    (an extra run under ``tracemalloc``, untimed)."""
    tracemalloc.start()
    try:
        driver = _steady_service(graph)
        report = driver.run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not report.budget_exhausted
    return round(held / 1024 / len(driver.net.nodes), 2)


def _steady_run(graph):
    """One service run; returns ``(report, wall, first, last)`` with the
    host microseconds per step of the first and last quarter of its steps.

    Timed from outside: ``sim.run_for`` is shadowed by a wrapper that
    notes ``(steps so far, now)`` on entry, so the gap between two
    entries covers the simulator stretch *and* the driver work after it.
    """
    driver = _steady_service(graph)
    sim = driver.net.sim
    marks = []
    run_for = sim.run_for

    def timed_run_for(max_steps):
        marks.append((sim.steps, time.perf_counter()))
        return run_for(max_steps)

    sim.run_for = timed_run_for
    start = time.perf_counter()
    report = driver.run()
    wall = time.perf_counter() - start
    marks.append((sim.steps, time.perf_counter()))

    def us_per_step(lo, hi):
        (steps_a, t_a), (steps_b, t_b) = marks[lo], marks[hi]
        return 1e6 * (t_b - t_a) / (steps_b - steps_a)

    first_step, last_step = marks[0][0], marks[-1][0]
    quarter = (last_step - first_step) // 4
    lo = next(i for i, (steps, _t) in enumerate(marks) if steps >= first_step + quarter)
    hi = next(i for i, (steps, _t) in enumerate(marks) if steps >= last_step - quarter)
    return report, wall, us_per_step(0, lo), us_per_step(hi, len(marks) - 1)


def test_service_steady_series(benchmark, record_table):
    graph = build_family(FAMILY, STEADY["n"], STEADY["seed"])

    def run():
        # Interleaved best-of: reference and service see the same drift.
        best = {"object": 0.0, "wall": float("inf"), "first": float("inf"), "last": float("inf")}
        for _ in range(STEADY_REPEATS):
            best["object"] = max(
                best["object"], _object_loop_steps_per_s(graph, STEADY["seed"])
            )
            report, wall, first, last = _steady_run(graph)
            best["wall"] = min(best["wall"], wall)
            best["first"] = min(best["first"], first)
            best["last"] = min(best["last"], last)
        return report, best

    report, best = benchmark.pedantic(run, rounds=1, iterations=1)
    summary = summarize_service(report)
    assert not report.budget_exhausted
    assert summary.probes_incomplete == 0 and summary.probes_dropped == 0

    steps_per_s = report.steps_executed / best["wall"]
    steady = {
        "date": datetime.date.today().isoformat(),
        **STEADY,
        "cpus": os.cpu_count(),
        "operations": summary.operations,
        "steps_executed": report.steps_executed,
        "wall_ms": round(best["wall"] * 1e3, 1),
        "ops_per_s": int(summary.operations / best["wall"]),
        "steps_per_s": int(steps_per_s),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "us_per_step_first_quarter": round(best["first"], 2),
        "us_per_step_last_quarter": round(best["last"], 2),
        "growth": round(best["last"] / best["first"], 3),
        "object_loop_steps_per_s": int(best["object"]),
        "ratio": round(steps_per_s / best["object"], 4),
        "retained_kib_per_node": _retained_kib_per_node(graph),
    }

    data = _load_bench()
    series = data.setdefault("steady", [])
    if series:
        committed = series[-1]
        floor = REGRESSION_FLOOR * committed["ratio"]
        assert steady["ratio"] >= floor, (
            f"service/object-loop steps ratio {steady['ratio']:.3f} fell below "
            f"{floor:.3f} (committed {committed['ratio']:.3f}, floor {REGRESSION_FLOOR:.0%})"
        )
        ceiling = GROWTH_SLACK * committed["growth"]
        assert steady["growth"] <= ceiling, (
            f"per-step cost grew {steady['growth']:.2f}x from the first to the "
            f"last quarter, above {ceiling:.2f}x (committed "
            f"{committed['growth']:.2f}x, slack {GROWTH_SLACK:g}x)"
        )
        if "retained_kib_per_node" in committed:
            ceiling = RETAINED_SLACK * committed["retained_kib_per_node"]
            assert steady["retained_kib_per_node"] <= ceiling, (
                f"the service retains {steady['retained_kib_per_node']:.1f} KiB per "
                f"node after a run, above {ceiling:.1f} (committed "
                f"{committed['retained_kib_per_node']:.1f}, slack {RETAINED_SLACK:g}x)"
            )

    record_table(
        "BENCH-service-steady",
        [
            "ops/s",
            "steps/s",
            "object steps/s",
            "ratio",
            "us/step q1",
            "us/step q4",
            "growth",
            "rss MiB",
            "retained KiB/node",
        ],
        [
            [
                steady["ops_per_s"],
                steady["steps_per_s"],
                steady["object_loop_steps_per_s"],
                steady["ratio"],
                steady["us_per_step_first_quarter"],
                steady["us_per_step_last_quarter"],
                steady["growth"],
                steady["peak_rss_mb"],
                steady["retained_kib_per_node"],
            ]
        ],
        notes=(
            f"Ad-hoc service on {FAMILY} n={STEADY['n']}, Poisson rate "
            f"{STEADY['rate']:g}/kstep for {STEADY['duration']} steps, best of "
            f"{STEADY_REPEATS}. Criterion: ratio >= {REGRESSION_FLOOR:.0%} of the "
            f"committed one, growth <= {GROWTH_SLACK:g}x and retained KiB/node <= "
            f"{RETAINED_SLACK:g}x the committed ones."
        ),
    )
    series.append(steady)
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")
