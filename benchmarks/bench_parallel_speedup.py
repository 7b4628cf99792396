"""BENCH: serial vs 2-worker wall-clock on an EXP-16-style scale sweep.

Times the same multi-seed near-linear scaling sweep (the workload behind
EXP-4/EXP-16) twice through :func:`repro.campaign.runner.run_sweep`, the
path every seed-taking table takes -- once at ``workers=1`` and once at
``workers=2``, each on a fresh temporary store so nothing is cached --
asserts the aggregated tables are bitwise identical (the pool's
determinism guarantee, checked with zero tolerance), and appends both
wall-clocks with ``cpus`` to ``BENCH_parallel.json`` at the repository
root.

One gate: with ``cpus >= 2`` the 2-worker sweep must run at least
``MIN_SPEEDUP`` times faster than the serial one.  On a single CPU the
pool can only contend with itself, so the run is informative.  The cells
are sized (n up to 1024, about 75 ms each on a 2-CPU box) so that the
pool's fork and per-round costs do not hide the speedup.
"""

import datetime
import json
import os
import pathlib
import time

from repro.analysis.registry import ExperimentRecord, compare_records
from repro.campaign.runner import run_sweep

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_parallel.json"

EXPERIMENT = "near-linear"
KWARGS = {"ns": (256, 512, 1024)}
SEEDS = range(12)
WORKERS = 2
#: Least 2-worker speedup over serial on a box with two or more CPUs.
MIN_SPEEDUP = 1.3


def _timed_sweep(workers: int):
    start = time.perf_counter()
    run = run_sweep(EXPERIMENT, SEEDS, KWARGS, workers=workers)
    wall = time.perf_counter() - start
    return wall, ExperimentRecord(f"{EXPERIMENT}-sweep", *run.table)


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

    cpus = os.cpu_count() or 1
    speedup = round(serial_wall / max(parallel_wall, 1e-9), 2)
    record_table(
        "BENCH-parallel-speedup",
        ["configuration", "value"],
        [
            ["serial (workers=1)", round(serial_wall, 3)],
            [f"parallel (workers={WORKERS})", round(parallel_wall, 3)],
            ["speedup", speedup],
        ],
        notes=(
            f"{EXPERIMENT} sweep, ns={KWARGS['ns']}, {len(SEEDS)} seeds, "
            f"cpus={cpus}. Criterion: tables identical at zero tolerance; "
            f"speedup >= {MIN_SPEEDUP} when cpus >= 2."
        ),
    )

    entries = []
    if BENCH_PATH.exists():
        entries = json.loads(BENCH_PATH.read_text())["entries"]
    entries.append(
        {
            "date": datetime.date.today().isoformat(),
            "experiment": EXPERIMENT,
            "ns": list(KWARGS["ns"]),
            "seeds": len(SEEDS),
            "workers": WORKERS,
            "cpus": cpus,
            "serial_s": round(serial_wall, 3),
            "parallel_s": round(parallel_wall, 3),
            "speedup": speedup,
        }
    )
    BENCH_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")

    if cpus >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"{WORKERS}-worker speedup {speedup}x on {cpus} CPUs is below "
            f"{MIN_SPEEDUP}x"
        )
