"""BENCH: single-core throughput, array core vs object loop.

Times the array core (:mod:`repro.core.arraystate`, what ``fast=True``
-- the default -- offers every run to) and the object loop
(``fast=False``, ``Simulator.run_for``) on identical workloads,
interleaved in the same process, and appends the results to
``BENCH_core.json`` at the repository root (whose ``fast_ms`` /
``legacy_ms`` keys are those two engines).  Seven parts:

* ``test_core_fast_vs_legacy`` (always runs; CI's perf-smoke job) -- the
  n=128 sparse-random comparison workload plus an n=4096 smoke point.
  Each run also cross-checks steps and message totals between the two
  engines, so the benchmark doubles as a coarse differential test (the
  fine one -- traces, per-type counters -- is the engine-equivalence
  suite under ``tests/``).

  The regression gate is **ratio-based**: absolute wall-clock is not
  comparable across machines, but the array-core/object-loop speedup
  measured within one process is.  The measured speedup must stay above
  ``REGRESSION_FLOOR`` times the committed baseline's speedup (a >25%
  relative regression of the array core fails the bench).

* ``test_core_direct_entry`` (always runs; CI's perf-smoke job) -- one
  whole n=128 discovery, graph in, ``DiscoveryResult`` out, by three
  routes interleaved per seed: ``run_generic(g, seed=s)`` (the direct
  entry: columns straight off the graph), the same call with
  ``fast=False`` (objects, object loop), and ``build_simulation`` +
  ``sim.run`` + ``collect_result`` (objects around the array core: what
  ``run_generic`` was before the direct entry).  Results are
  cross-checked equal; the two ratios over the direct entry are gated at
  ``REGRESSION_FLOOR`` against the committed ``direct_entry`` block.

* ``test_core_scaling_series`` (opt-in: ``BENCH_CORE_FULL=1``) -- the
  scaling series up to n = 200,000 for the Generic and Ad-hoc engines
  through the object-free :func:`repro.core.arraystate.run_graph` driver,
  plus one dense-random n = 20,000 Ad-hoc point (the set-heavy shape),
  one fresh process per point, replacing the ``scaling`` block of
  ``BENCH_core.json``.  Each row carries the delivery loop's own
  ``steps_per_s``, the channel count, ``rss_per_node_kb`` (RSS growth
  across the ``run_graph`` call over n) and ``peak_per_node_kb`` (peak
  RSS over the same baseline, over n).  Takes ~2 minutes and ~1 GB RSS
  at the top size, hence opt-in.

* ``test_core_footprint`` (always runs; CI's perf-smoke job) -- two
  points of that series, each gated on bytes per node:
  ``rss_per_node_kb`` (held where the loop returns) and
  ``peak_per_node_kb`` (the process's own peak, ``VmHWM``, after the
  run, over the same baseline: the peak inside the C call, which the
  first misses)
  must each stay below ``FOOTPRINT_CEILING`` times the committed series'
  value.  The sparse n = 30,000 Generic point is the
  footprint the knowledge slabs were sized on; the dense n = 20,000
  Ad-hoc point keeps a layout tuned only for sparse Generic from
  passing.  A byte ratio, so comparable across runners.  Each point's
  process also runs it ``OFF_LOOP_REPEATS`` times for the *off-loop
  ratio* ``(run_s - loop_s) / loop_s``, each term the best of the runs: everything
  ``run_graph`` does around the C loop (id space, column fill, component
  labels, verification) over the loop itself.  It must stay below
  ``OFF_LOOP_CEILING`` times the committed ``off_loop`` block, which the
  test replaces: a Python walk over the edges creeping back into
  ``run_graph`` shows here.  A time ratio within one process, so
  comparable across runners.

* ``test_graph_build`` (always runs; CI's perf-smoke job; needs the C
  module) -- the graph layer alone: draw a dense-random n = 20,000 and a
  sparse-random n = 30,000 graph with the generator, which must come back
  as the CSR slab the C module drew (``KnowledgeGraph.slab``; the Python
  loops show here), and measure the graph's size with ``tracemalloc``.
  Gated, replacing the ``graph_build`` block, on MiB (at most
  ``GRAPH_MIB_CEILING`` times committed: successor sets built at birth,
  or a second adjacency store, show here), a byte ratio, so comparable
  across runners.  The build time is recorded, not gated: the draw's
  time is set by random probes into a table of several MiB, so it moves
  with the cache the box's other tenants leave it, and no reference
  timed beside it in the process moves with it.

* ``test_core_materialize`` (always runs; CI's perf-smoke job) -- one
  sparse Generic n = 30,000 discovery through a simulator:
  ``build_simulation`` and ``sim.run()``, which the array core runs and
  hands back to the objects through ``_materialize_to_sim``, in a fresh
  process.  At quiescence ``sim._channels`` must be empty (a channel
  exists only while it carries a message), and ``peak_per_node_kb`` (the
  process's ``VmHWM`` after the run over the RSS before
  ``build_simulation``, over n) must stay below ``FOOTPRINT_CEILING``
  times the committed ``materialize`` block, which the test replaces.
  ``python benchmarks/bench_core.py materialize 100000 3`` prints one
  point at another size and seed.

* ``test_core_million`` (opt-in: ``BENCH_CORE_MILLION=1``) -- one
  n = 10^6 discovery per engine through the object-free
  :func:`repro.core.arraystate.run_graph` driver with full invariant
  verification, each in a fresh process so its ``peak_rss_mb``
  (``VmHWM``) is its own, beside ``graph_mb``, the RSS the graph
  build added, replacing the ``million`` block of ``BENCH_core.json``.
  ``python benchmarks/bench_core.py million generic`` prints one run.
  The object paths cannot represent this size (a million node objects
  cost ~4 GB before the first message); the columnar driver is the only
  engine in the run, so the block records absolute throughput, not a
  ratio.  Takes ~10 minutes and several GB RSS, hence opt-in.
"""

import datetime
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.analysis.experiments import build_family
from repro.core import arrayloop
from repro.core.arraystate import ArrayCore, run_graph
from repro.core.generic import run_generic
from repro.core.result import collect_result
from repro.core.runner import build_simulation, default_step_budget
from repro.obs.profile import peak_rss_kb

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_core.json"

FAMILY = "sparse-random"
N_COMPARE = 128
COMPARE_SEEDS = (0, 1, 2)
COMPARE_REPEATS = 15
N_SMOKE = 4096
SMOKE_SEEDS = (0,)
SMOKE_REPEATS = 3
DIRECT_SEEDS = range(32)
DIRECT_REPEATS = 3
#: Measured speedup must stay above this fraction of the committed one.
REGRESSION_FLOOR = 0.75
#: (engine, family, sizes) of the scaling series
SCALING_POINTS = (
    ("generic", FAMILY, (128, 1024, 4096, 10_000, 30_000, 100_000, 200_000)),
    ("adhoc", FAMILY, (1024, 10_000, 30_000, 100_000, 200_000)),
    ("adhoc", "dense-random", (20_000,)),
)
#: (engine, family, n) points of the footprint gate
FOOTPRINT_POINTS = (("generic", FAMILY, 30_000), ("adhoc", "dense-random", 20_000))
#: n of the simulator-backed (materialize) footprint gate
N_MATERIALIZE = 30_000
#: Measured KiB per node must stay below this multiple of the committed one.
FOOTPRINT_CEILING = 1.25
#: Runs of each footprint point in its process; the off-loop ratio takes the
#: best off-loop and loop seconds of them.
OFF_LOOP_REPEATS = 3
#: Measured off-loop ratio must stay below this multiple of the committed one.
OFF_LOOP_CEILING = 1.25
FULL = os.environ.get("BENCH_CORE_FULL", "") == "1"
N_MILLION = 1_000_000
MILLION = os.environ.get("BENCH_CORE_MILLION", "") == "1"
#: (family, n) points of the graph-build gate.
GRAPH_BUILDS = (("dense-random", 20_000), ("sparse-random", 30_000))
GRAPH_REPEATS = 3
#: Measured graph MiB must stay below this multiple of the committed one.
GRAPH_MIB_CEILING = 1.10


def _run_workload(n, seeds, fast, variant="generic"):
    """Total run()-loop wall time over ``seeds``, plus steps/messages.

    Graph and simulator construction are excluded on purpose: the bench
    measures the hot loop, and the differential totals must match between
    paths regardless of setup cost.
    """
    elapsed = 0.0
    steps = messages = 0
    for seed in seeds:
        graph = build_family(FAMILY, n, seed)
        sim, _nodes = build_simulation(graph, variant, seed=seed, fast=fast)
        budget = default_step_budget(graph)
        start = time.perf_counter()
        steps += sim.run(budget)
        elapsed += time.perf_counter() - start
        messages += sim.stats.total_messages
    return elapsed, steps, messages


def _best_of(n, seeds, repeats, variant="generic"):
    """Interleaved best-of-``repeats`` for both paths on one workload.

    Interleaving (legacy, fast, legacy, fast, ...) makes the pair see the
    same thermal/allocator drift; best-of filters scheduler noise, which
    on shared runners dwarfs the effect under test.
    """
    legacy_best = fast_best = float("inf")
    totals = {}
    for _ in range(repeats):
        for fast in (False, True):
            wall, steps, messages = _run_workload(n, seeds, fast, variant)
            key = "fast" if fast else "legacy"
            totals.setdefault(key, (steps, messages))
            assert totals[key] == (steps, messages)
            if fast:
                fast_best = min(fast_best, wall)
            else:
                legacy_best = min(legacy_best, wall)
    # Coarse differential check: identical step and message totals.
    assert totals["legacy"] == totals["fast"], (
        f"fast/legacy divergence at n={n}: {totals}"
    )
    steps, _messages = totals["fast"]
    return {
        "n": n,
        "seeds": len(seeds),
        "repeats": repeats,
        "legacy_ms": round(legacy_best * 1e3, 3),
        "fast_ms": round(fast_best * 1e3, 3),
        "speedup": round(legacy_best / fast_best, 3),
        "steps_per_s": int(steps / fast_best),
    }


def _load_bench():
    if BENCH_PATH.exists():
        try:
            return json.loads(BENCH_PATH.read_text())
        except ValueError:
            pass
    return {}


def test_core_fast_vs_legacy(benchmark, record_table):
    def run():
        # Warm-up: imports, allocator steady state, the C loop's first load.
        _run_workload(N_COMPARE, COMPARE_SEEDS, fast=True)
        return {
            "compare": _best_of(N_COMPARE, COMPARE_SEEDS, COMPARE_REPEATS),
            "smoke": _best_of(N_SMOKE, SMOKE_SEEDS, SMOKE_REPEATS),
        }

    measured = benchmark.pedantic(run, rounds=1, iterations=1)

    data = _load_bench()
    entries = data.get("entries", [])
    if entries:
        # The perf gate: the fast path's advantage must not collapse.
        baseline = entries[-1]
        for part in ("compare", "smoke"):
            committed = baseline.get(part, {}).get("speedup")
            if committed is None:
                continue
            floor = REGRESSION_FLOOR * committed
            assert measured[part]["speedup"] >= floor, (
                f"{part} (n={measured[part]['n']}): fast-path speedup "
                f"{measured[part]['speedup']:.2f}x fell below "
                f"{floor:.2f}x (committed baseline "
                f"{committed:.2f}x, floor {REGRESSION_FLOOR:.0%})"
            )

    rows = [
        [
            part,
            measured[part]["n"],
            measured[part]["legacy_ms"],
            measured[part]["fast_ms"],
            f"{measured[part]['speedup']:.2f}x",
            measured[part]["steps_per_s"],
        ]
        for part in ("compare", "smoke")
    ]
    record_table(
        "BENCH-core-throughput",
        ["workload", "n", "legacy-ms", "fast-ms", "speedup", "steps/s"],
        rows,
        notes=(
            f"Generic on {FAMILY}, seeded RandomScheduler, best of "
            f"{COMPARE_REPEATS}/{SMOKE_REPEATS} interleaved repeats "
            "(run loop only, setup excluded). Criterion: identical "
            "step/message totals across paths; speedup within "
            f"{REGRESSION_FLOOR:.0%} of the committed baseline."
        ),
    )

    entry = {
        "date": datetime.date.today().isoformat(),
        "family": FAMILY,
        "cpus": os.cpu_count(),
        "compare": measured["compare"],
        "smoke": measured["smoke"],
    }
    entries.append(entry)
    data["entries"] = entries
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _through_simulator(graph, seed):
    """``run_generic`` as it was before the direct entry."""
    sim, nodes = build_simulation(graph, "generic", seed=seed)
    sim.run(default_step_budget(graph))
    return collect_result(graph, nodes, sim, "generic")


#: route name -> one whole discovery, graph in, DiscoveryResult out.
DIRECT_ROUTES = {
    "direct": lambda graph, seed: run_generic(graph, seed=seed),
    "simulator": _through_simulator,
    "object": lambda graph, seed: run_generic(graph, seed=seed, fast=False),
}


def _direct_entry_medians():
    """Median over seeds of each route's best-of-repeats per-discovery ms,
    the routes interleaved seed by seed and their results held equal."""
    graphs = [(seed, build_family(FAMILY, N_COMPARE, seed)) for seed in DIRECT_SEEDS]
    best = {route: [float("inf")] * len(graphs) for route in DIRECT_ROUTES}
    for _ in range(1 + DIRECT_REPEATS):  # the first pass warms up and counts
        for i, (seed, graph) in enumerate(graphs):
            results = []
            for route, discover in DIRECT_ROUTES.items():
                start = time.perf_counter()
                results.append(discover(graph, seed))
                wall = time.perf_counter() - start
                best[route][i] = min(best[route][i], wall)
            assert results[0] == results[1] == results[2], f"routes differ, seed {seed}"
    return {
        route: round(1e3 * sorted(walls)[len(walls) // 2], 3)
        for route, walls in best.items()
    }


def test_core_direct_entry(benchmark, record_table):
    medians = benchmark.pedantic(_direct_entry_medians, rounds=1, iterations=1)
    measured = {
        "date": datetime.date.today().isoformat(),
        "family": FAMILY,
        "n": N_COMPARE,
        "seeds": len(DIRECT_SEEDS),
        "cpus": os.cpu_count(),
        "direct_ms": medians["direct"],
        "simulator_ms": medians["simulator"],
        "object_ms": medians["object"],
        "simulator_over_direct": round(medians["simulator"] / medians["direct"], 3),
        "object_over_direct": round(medians["object"] / medians["direct"], 3),
    }

    data = _load_bench()
    committed = data.get("direct_entry", {})
    for ratio in ("simulator_over_direct", "object_over_direct"):
        if ratio in committed:
            floor = REGRESSION_FLOOR * committed[ratio]
            assert measured[ratio] >= floor, (
                f"direct entry, {ratio}: {measured[ratio]:.2f}x fell below "
                f"{floor:.2f}x (committed {committed[ratio]:.2f}x, floor "
                f"{REGRESSION_FLOOR:.0%})"
            )

    record_table(
        "BENCH-core-direct-entry",
        ["n", "seeds", "direct-ms", "simulator-ms", "object-ms",
         "simulator/direct", "object/direct"],
        [[
            measured["n"], measured["seeds"], measured["direct_ms"],
            measured["simulator_ms"], measured["object_ms"],
            f"{measured['simulator_over_direct']:.2f}x",
            f"{measured['object_over_direct']:.2f}x",
        ]],
        notes=(
            f"One whole Generic discovery on {FAMILY} (graph in, "
            "DiscoveryResult out), seeded RandomScheduler: median over "
            f"seeds of the best of {DIRECT_REPEATS} interleaved repeats. "
            "direct = run_generic (columns off the graph), simulator = "
            "build_simulation + sim.run + collect_result (objects around "
            "the array core), object = run_generic(fast=False). Criterion: "
            "equal results; both ratios within "
            f"{REGRESSION_FLOOR:.0%} of the committed block."
        ),
    )
    data["direct_entry"] = measured
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _rss_kb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024


def _scale_point(variant, n, family=FAMILY, repeats=1):
    """One verified ``run_graph`` discovery, measured in this process.

    The delivery loop is timed by itself (``ArrayCore.run_loop`` wrapped
    by attribute, like the repository benchmark's ledger), and RSS is read
    where the loop returns: every column and channel is still alive there,
    and the graph was built before the baseline was taken.  The peak is
    the process's ``VmHWM`` after the first run over the same baseline:
    what the run held at its highest, inside the C call included (at small
    n the imports' own peak can exceed the run's and set it).  The first
    run gives every figure; ``off_loop`` is ``(run_s - loop_s) / loop_s``
    over ``repeats`` runs, each term its best (least noise).
    """
    graph = build_family(family, n, seed=0)
    seen, runs, loops = {}, [], []
    run_loop = ArrayCore.run_loop

    def timed_loop(core, *args):
        start = time.perf_counter()
        try:
            return run_loop(core, *args)
        finally:
            loops.append(time.perf_counter() - start)
            if len(loops) == 1:
                seen["rss_kb"] = _rss_kb()
                seen["channels"] = len(core.chan_src)

    ArrayCore.run_loop = timed_loop
    try:
        before_kb = _rss_kb()
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = run_graph(graph, variant, seed=0)
            runs.append(time.perf_counter() - start)
            assert outcome.verified
            if len(runs) == 1:
                result = outcome
                peak_kb = peak_rss_kb()
    finally:
        ArrayCore.run_loop = run_loop
    return {
        "engine": variant,
        "family": family,
        "n": n,
        "cpus": os.cpu_count(),
        "run_s": round(runs[0], 3),
        "loop_s": round(loops[0], 3),
        "steps": result.steps,
        "messages": result.total_messages,
        "channels": seen["channels"],
        "steps_per_s": int(result.steps / loops[0]),
        "rss_per_node_kb": round((seen["rss_kb"] - before_kb) / n, 2),
        "peak_per_node_kb": round((peak_kb - before_kb) / n, 2),
        "off_loop": round(min(r - l for r, l in zip(runs, loops)) / min(loops), 3),
    }


def _scale_point_fresh(variant, n, family=FAMILY, repeats=1):
    """``_scale_point`` in a new interpreter: RSS growth read in a process
    that ran a larger point before measures the allocator's leftovers."""
    proc = subprocess.run(
        [sys.executable, __file__, variant, str(n), family, str(repeats)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _scaling_row(p):
    return [
        p["engine"], p["family"], p["n"], p["run_s"], p["loop_s"], p["steps"],
        p["messages"], p["channels"], p["steps_per_s"], p["rss_per_node_kb"],
        p["peak_per_node_kb"],
    ]


_SCALING_HEADERS = [
    "engine", "family", "n", "run-s", "loop-s", "steps", "messages", "channels",
    "loop-steps/s", "rss-KiB/node", "peak-KiB/node",
]


@pytest.mark.skipif(not FULL, reason="set BENCH_CORE_FULL=1 for the scaling series")
def test_core_scaling_series(benchmark, record_table):
    def run():
        return [
            _scale_point_fresh(variant, n, family)
            for variant, family, sizes in SCALING_POINTS
            for n in sizes
        ]

    series = benchmark.pedantic(run, rounds=1, iterations=1)

    record_table(
        "BENCH-core-scaling",
        _SCALING_HEADERS,
        [_scaling_row(p) for p in series],
        notes=(
            f"run_graph on {FAMILY} (and one dense-random Ad-hoc point), "
            "seed 0 (graph and scheduler), one "
            "verified run per size, each in a fresh process. run-s is the "
            "whole call (column build + loop + O(n+E) verification), "
            "loop-s the delivery loop alone, rss-KiB/node the RSS growth "
            "from before the call to the loop's return over n, "
            "peak-KiB/node the process's peak RSS after the call over the "
            "same baseline, over n. Criterion: "
            "completes n=200,000 for both engines within the step budget; "
            "wall-clock informative."
        ),
    )

    data = _load_bench()
    data["scaling"] = {
        "date": datetime.date.today().isoformat(),
        "family": FAMILY,
        "series": series,
    }
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def test_core_footprint(benchmark, record_table):
    points = benchmark.pedantic(
        lambda: [
            _scale_point_fresh(v, n, family, OFF_LOOP_REPEATS)
            for v, family, n in FOOTPRINT_POINTS
        ],
        rounds=1,
        iterations=1,
    )
    record_table(
        "BENCH-core-footprint",
        _SCALING_HEADERS + ["off-loop"],
        [_scaling_row(point) + [point["off_loop"]] for point in points],
        notes=(
            "The sparse Generic and dense Ad-hoc points of BENCH-core-scaling. "
            "off-loop = (run-s - loop-s) / loop-s, each term the best of "
            f"{OFF_LOOP_REPEATS} runs in the point's process. Criterion: "
            f"rss-KiB/node and peak-KiB/node within {FOOTPRINT_CEILING}x of "
            f"the committed series' values and off-loop within "
            f"{OFF_LOOP_CEILING}x of the committed off_loop block, each."
        ),
    )
    data = _load_bench()
    series = data.get("scaling", {}).get("series", [])
    for (variant, family, n), point in zip(FOOTPRINT_POINTS, points):
        for key in ("rss_per_node_kb", "peak_per_node_kb"):
            committed = [
                p[key]
                for p in series
                if (p["engine"], p["family"], p["n"]) == (variant, family, n)
                and key in p
            ]
            assert committed, f"BENCH_core.json has no {variant} {family} n={n} {key}"
            ceiling = FOOTPRINT_CEILING * committed[0]
            assert point[key] <= ceiling, (
                f"run_graph {variant} {family} n={n}: {key} {point[key]} "
                f"KiB/node exceeds {ceiling:.2f} (committed {committed[0]}, "
                f"ceiling {FOOTPRINT_CEILING}x)"
            )
    off_loop = [
        {key: point[key] for key in ("engine", "family", "n", "off_loop")}
        for point in points
    ]
    committed = {
        (p["engine"], p["family"], p["n"]): p["off_loop"]
        for p in data.get("off_loop", {}).get("points", [])
    }
    for point in off_loop:
        before = committed.get((point["engine"], point["family"], point["n"]))
        if before is None:
            continue
        assert point["off_loop"] <= OFF_LOOP_CEILING * before, (
            f"run_graph {point['engine']} {point['family']} n={point['n']}: "
            f"off-loop ratio {point['off_loop']} exceeds "
            f"{OFF_LOOP_CEILING * before:.3f} (committed {before}, ceiling "
            f"{OFF_LOOP_CEILING}x)"
        )
    data["off_loop"] = {
        "date": datetime.date.today().isoformat(),
        "cpus": os.cpu_count(),
        "repeats": OFF_LOOP_REPEATS,
        "points": off_loop,
    }
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _materialize_point(n, seed=0):
    """One sparse Generic discovery through a simulator, measured in this
    process: ``build_simulation`` and ``sim.run()``, which the array core
    runs and ends in ``_materialize_to_sim``.  The peak is the process's
    ``VmHWM`` after the run over the RSS before ``build_simulation``, over
    n."""
    graph = build_family(FAMILY, n, seed=seed)
    before_kb = _rss_kb()
    start = time.perf_counter()
    sim, _nodes = build_simulation(graph, "generic", seed=seed)
    built = time.perf_counter()
    steps = sim.run(default_step_budget(graph))
    ran = time.perf_counter()
    peak_kb = peak_rss_kb()
    assert (sim._last_run_path, sim._last_decline) == ("array", None), (
        f"the array core did not run the whole call: {sim._last_decline}"
    )
    return {
        "engine": "generic",
        "family": FAMILY,
        "n": n,
        "seed": seed,
        "cpus": os.cpu_count(),
        "build_s": round(built - start, 3),
        "run_s": round(ran - built, 3),
        "steps": steps,
        "messages": sim.stats.total_messages,
        "channels": len(sim._channels),
        "in_flight": sim.in_flight(),
        "peak_per_node_kb": round((peak_kb - before_kb) / n, 2),
    }


def test_core_materialize(benchmark, record_table):
    point = benchmark.pedantic(
        lambda: json.loads(
            subprocess.run(
                [sys.executable, __file__, "materialize", str(N_MATERIALIZE)],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        ),
        rounds=1,
        iterations=1,
    )
    record_table(
        "BENCH-core-materialize",
        ["engine", "family", "n", "build-s", "run-s", "steps", "messages",
         "channels", "peak-KiB/node"],
        [[point["engine"], point["family"], point["n"], point["build_s"],
          point["run_s"], point["steps"], point["messages"], point["channels"],
          point["peak_per_node_kb"]]],
        notes=(
            f"build_simulation + sim.run() on {FAMILY}, seed 0, in a fresh "
            "process; run-s is sim.run() with the hand-back to the objects "
            "(_materialize_to_sim). channels = len(sim._channels) at "
            "quiescence. "
            "peak-KiB/node = (VmHWM after the run - RSS before "
            "build_simulation) / n. Criterion: channels = 0 and "
            f"peak-KiB/node within {FOOTPRINT_CEILING}x of the committed "
            "materialize block."
        ),
    )
    assert point["channels"] == point["in_flight"] == 0, (
        f"{point['channels']} channels registered at quiescence"
    )
    data = _load_bench()
    before = data.get("materialize", {}).get("peak_per_node_kb")
    if before is not None:
        ceiling = FOOTPRINT_CEILING * before
        assert point["peak_per_node_kb"] <= ceiling, (
            f"simulator-backed n={point['n']}: peak_per_node_kb "
            f"{point['peak_per_node_kb']} exceeds {ceiling:.2f} (committed "
            f"{before}, ceiling {FOOTPRINT_CEILING}x)"
        )
    data["materialize"] = {"date": datetime.date.today().isoformat(), **point}
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _graph_build_point(family, n):
    """Best-of generator build time, and the graph's traced size; the
    graph must be the slab the C module drew."""
    assert arrayloop.load() is not None, (
        f"graph_build gates the C draw: {arrayloop.why_missing()}"
    )
    build_best = float("inf")
    for _ in range(GRAPH_REPEATS):
        start = time.perf_counter()
        graph = build_family(family, n, seed=0)
        build_best = min(build_best, time.perf_counter() - start)
        assert graph.slab() is not None, f"{family}: the generator built successor sets"
        del graph
    tracemalloc.start()
    try:
        graph = build_family(family, n, seed=0)
        traced, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "family": family,
        "n": n,
        "edges": graph.n_edges,
        "build_ms": round(build_best * 1e3, 1),
        "graph_mib": round(traced / 2**20, 2),
    }


def test_graph_build(benchmark, record_table):
    points = benchmark.pedantic(
        lambda: [_graph_build_point(family, n) for family, n in GRAPH_BUILDS],
        rounds=1,
        iterations=1,
    )
    record_table(
        "BENCH-core-graph-build",
        ["family", "n", "edges", "build-ms", "MiB"],
        [
            [p["family"], p["n"], p["edges"], p["build_ms"], p["graph_mib"]]
            for p in points
        ],
        notes=(
            "Seed 0. build = build_family (the C draw, born as a CSR slab), "
            f"best of {GRAPH_REPEATS}, informative; MiB = tracemalloc's count "
            f"after one build. Criterion: every graph is slab-born and MiB "
            f"is within {GRAPH_MIB_CEILING}x of the committed block."
        ),
    )

    data = _load_bench()
    committed = {
        (p["family"], p["n"]): p for p in data.get("graph_build", {}).get("points", [])
    }
    for point in points:
        before = committed.get((point["family"], point["n"]))
        if before is None:
            continue
        assert point["graph_mib"] <= GRAPH_MIB_CEILING * before["graph_mib"], (
            f"{point['family']} n={point['n']}: graph_mib {point['graph_mib']} "
            f"exceeds {GRAPH_MIB_CEILING * before['graph_mib']:.2f} (committed "
            f"{before['graph_mib']}, ceiling {GRAPH_MIB_CEILING}x)"
        )
    data["graph_build"] = {
        "date": datetime.date.today().isoformat(),
        "cpus": os.cpu_count(),
        "repeats": GRAPH_REPEATS,
        "points": points,
    }
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


def _million_run(variant):
    """One verified n = 10^6 ``run_graph`` in this process: the graph's
    build time and RSS growth, the run, and the process's peak RSS."""
    before_kb = _rss_kb()
    start = time.perf_counter()
    graph = build_family(FAMILY, N_MILLION, seed=0)
    built = time.perf_counter()
    graph_kb = _rss_kb() - before_kb
    result = run_graph(graph, variant, verify=True)
    wall = time.perf_counter() - built
    assert result.verified, f"{variant}: invariant verification failed"
    assert result.n == N_MILLION
    return {
        "engine": variant,
        "n": N_MILLION,
        "graph_s": round(built - start, 3),
        "run_s": round(wall, 3),
        "steps": result.steps,
        "messages": result.total_messages,
        "leaders": len(result.leaders),
        "steps_per_s": int(result.steps / wall),
        "verified": result.verified,
        "graph_mb": round(graph_kb / 1024, 1),
        "peak_rss_mb": round(peak_rss_kb() / 1024, 1),
    }


@pytest.mark.skipif(
    not MILLION, reason="set BENCH_CORE_MILLION=1 for the n=10^6 run"
)
def test_core_million(benchmark, record_table):
    def run():
        return [
            json.loads(
                subprocess.run(
                    [sys.executable, __file__, "million", variant],
                    env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
            for variant in ("generic", "adhoc")
        ]

    runs = benchmark.pedantic(run, rounds=1, iterations=1)

    record_table(
        "BENCH-core-million",
        ["engine", "n", "graph-s", "run-s", "steps", "messages", "steps/s",
         "graph-MB", "peak-MB"],
        [
            [p["engine"], p["n"], p["graph_s"], p["run_s"], p["steps"],
             p["messages"], p["steps_per_s"], p["graph_mb"], p["peak_rss_mb"]]
            for p in runs
        ],
        notes=(
            f"run_graph on {FAMILY}, seed 0, global-FIFO, single run per "
            "engine, each in a fresh process (run_s covers columnar build + "
            "run loop + O(n+E) invariant verification; graph-MB is the RSS "
            "the graph build added, peak-MB the process's VmHWM). "
            "Criterion: both engines complete n=10^6 verified within the "
            "step budget; wall-clock and memory informative."
        ),
    )

    data = _load_bench()
    data["million"] = {
        "date": datetime.date.today().isoformat(),
        "family": FAMILY,
        "cpus": os.cpu_count(),
        "runs": runs,
    }
    BENCH_PATH.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1] == "million":  # million variant
        print(json.dumps(_million_run(sys.argv[2])))
        sys.exit()
    if sys.argv[1] == "materialize":  # materialize n [seed]
        print(json.dumps(_materialize_point(*map(int, sys.argv[2:]))))
        sys.exit()
    # variant n [family [repeats]]
    variant, n, *rest = sys.argv[1:]
    family = rest[0] if rest else FAMILY
    repeats = int(rest[1]) if len(rest) > 1 else 1
    print(json.dumps(_scale_point(variant, int(n), family, repeats)))
