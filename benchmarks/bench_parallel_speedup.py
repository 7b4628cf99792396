"""BENCH: serial vs parallel wall-clock on an EXP-16-style scale sweep.

Times the same multi-seed near-linear scaling sweep (the workload behind
EXP-4/EXP-16) twice -- serially and through a 4-worker
:class:`repro.parallel.ParallelExecutor` -- asserts the aggregated tables
are bitwise identical (the engine's determinism guarantee, checked with
zero tolerance), and appends both wall-clocks to ``BENCH_parallel.json``
at the repository root: the first entry in the repo's perf trajectory.

The speedup gate is **keyed off the recorded ``cpus`` field**: committed
baseline entries only constrain runs on matching hardware.  A multi-core
box must stay within ``REGRESSION_FLOOR`` of the best committed multi-core
speedup; a single-core box -- where the worker pool is pure contention and
the committed baseline records a known 0.84x -- is instead held to the
serial-fallback bound (overhead no worse than ``REGRESSION_FLOOR`` of the
committed single-core ratio).  Entries written before the ``cpus`` field
existed are ignored by the gate: hardware-unlabelled numbers are not a
comparable signal, which is exactly the bug this keying fixes (a 1-CPU
runner being judged against an implicit multi-core expectation).
"""

import datetime
import json
import os
import pathlib
import time

from repro.analysis.registry import ExperimentRecord, compare_records
from repro.analysis.sweep import aggregate_tables
from repro.parallel import ParallelExecutor

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_parallel.json"

EXPERIMENT = "near-linear"
KWARGS = {"ns": (64, 128, 256)}
# 12 seeds at 4 workers: one future per job, three per worker.
SEEDS = range(12)
WORKERS = 4
#: Measured speedup must stay above this fraction of the committed
#: baseline *for the same cpu class* (multi-core vs single-core).
REGRESSION_FLOOR = 0.75


def _baseline_speedup(entries, multicore):
    """Latest committed speedup for this cpu class, or ``None``.

    Only entries that recorded ``cpus`` participate: an unlabelled entry
    could come from either hardware class, and judging a 1-CPU runner
    against a multi-core number (or vice versa) is a bogus signal.
    """
    baseline = None
    for entry in entries:
        cpus = entry.get("cpus")
        if cpus is None:
            continue
        if (cpus >= 2) == multicore and "speedup" in entry:
            baseline = entry["speedup"]
    return baseline


def _timed_sweep(workers: int):
    executor = ParallelExecutor(workers=workers)
    start = time.perf_counter()
    tables = executor.map_seeds(EXPERIMENT, SEEDS, **KWARGS)
    wall = time.perf_counter() - start
    headers, rows = aggregate_tables(tables)
    return wall, ExperimentRecord(f"{EXPERIMENT}-sweep", headers, rows)


def test_parallel_speedup(benchmark, record_table):
    def run():
        serial_wall, serial_record = _timed_sweep(workers=1)
        parallel_wall, parallel_record = _timed_sweep(workers=WORKERS)
        return serial_wall, serial_record, parallel_wall, parallel_record

    serial_wall, serial_record, parallel_wall, parallel_record = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # Determinism: worker count must not change a single bit of the table.
    assert compare_records(serial_record, parallel_record, rel_tolerance=0) == []

    rows = [
        ["serial (workers=1)", round(serial_wall, 3)],
        [f"parallel (workers={WORKERS})", round(parallel_wall, 3)],
        ["speedup", round(serial_wall / max(parallel_wall, 1e-9), 2)],
    ]
    record_table(
        "BENCH-parallel-speedup",
        ["configuration", "value"],
        rows,
        notes=(
            f"{EXPERIMENT} sweep, ns={KWARGS['ns']}, {len(list(SEEDS))} seeds. "
            "Criterion: tables identical at zero tolerance; wall-clock informative."
        ),
    )

    entry = {
        "date": datetime.date.today().isoformat(),
        "experiment": EXPERIMENT,
        "ns": list(KWARGS["ns"]),
        "seeds": len(list(SEEDS)),
        "workers": WORKERS,
        "cpus": os.cpu_count(),
        "serial_s": round(serial_wall, 3),
        "parallel_s": round(parallel_wall, 3),
        "speedup": round(serial_wall / max(parallel_wall, 1e-9), 2),
    }
    entries = []
    if BENCH_PATH.exists():
        try:
            entries = json.loads(BENCH_PATH.read_text()).get("entries", [])
        except (ValueError, AttributeError):
            entries = []

    # -- the cpus-keyed regression gate ---------------------------------
    multicore = (os.cpu_count() or 1) >= 2
    baseline = _baseline_speedup(entries, multicore)
    speedup = entry["speedup"]
    if baseline is not None:
        label = "multi-core" if multicore else "single-core serial-fallback"
        assert speedup >= REGRESSION_FLOOR * baseline, (
            f"{label} speedup regressed: measured {speedup}x vs committed "
            f"{baseline}x baseline (floor {REGRESSION_FLOOR})"
        )
    # With no committed baseline for this cpu class the run is
    # informative only: it *creates* the baseline for the next run.

    entries.append(entry)
    BENCH_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
