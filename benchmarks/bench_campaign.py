"""BENCH: crash-safe campaign resume does zero redundant work.

Builds a campaign over the strongly-connected discovery sweep, interrupts
it deterministically mid-flight (``max_cells`` plays the role of the
SIGKILL in CI's kill-and-resume smoke job), resumes it, and asserts the
robustness acceptance criteria:

* the resumed run computes **exactly** the cells the interrupted run did
  not finish -- the zero-recompute audit (``redundant == 0``) holds;
* the final aggregate report is **bitwise identical** to the report of an
  uninterrupted control campaign over the same grid.

Wall-clocks for the interrupted, resumed and control phases are appended
to ``BENCH_campaign.json`` at the repository root, with ``cpus`` and the
resume overhead ratio (interrupted + resumed vs control) -- the price of
crash safety, which should stay near 1 since the store adds one SQLite
transaction per claim round, not per cell.
"""

import datetime
import json
import os
import pathlib
import time

from repro.campaign import (
    CampaignRunner,
    CampaignStore,
    fold_done_cells,
    report_tables,
)
from repro.parallel.jobs import sweep_jobs

BENCH_PATH = pathlib.Path(__file__).parents[1] / "BENCH_campaign.json"

EXPERIMENT = "strongly-connected"
KWARGS = {"ns": (32, 64)}
SEEDS = range(12)
INTERRUPT_AFTER = 5  # cells computed before the simulated crash


def _make_campaign(path):
    jobs = sweep_jobs(EXPERIMENT, SEEDS, KWARGS)
    CampaignStore.create(path, jobs).close()
    return len(jobs)


def _drain(path, max_cells=None):
    store = CampaignStore.open(path)
    try:
        start = time.perf_counter()
        report = CampaignRunner(
            store, max_cells=max_cells, handle_signals=False
        ).run()
        wall = time.perf_counter() - start
    finally:
        store.close()
    return wall, report


def _report_bytes(path):
    store = CampaignStore.open(path)
    try:
        fold_done_cells(store)
        groups = report_tables(store)
    finally:
        store.close()
    return json.dumps(groups, sort_keys=True).encode()


def test_campaign_resume_zero_recompute(benchmark, record_table, tmp_path):
    campaign_db = tmp_path / "campaign.db"
    control_db = tmp_path / "control.db"
    cells = _make_campaign(campaign_db)
    _make_campaign(control_db)

    def run():
        first_wall, first = _drain(campaign_db, max_cells=INTERRUPT_AFTER)
        resume_wall, resumed = _drain(campaign_db)
        control_wall, control = _drain(control_db)
        return first_wall, first, resume_wall, resumed, control_wall, control

    first_wall, first, resume_wall, resumed, control_wall, control = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    # -- acceptance: the resume did exactly the missing work -------------
    assert first.computed == INTERRUPT_AFTER
    assert resumed.computed == cells - INTERRUPT_AFTER
    assert resumed.redundant == 0 and first.redundant == 0
    assert resumed.drained and control.drained

    audit = CampaignStore.open(campaign_db)
    stats = audit.compute_stats()
    audit.close()
    assert stats == {"computed": cells, "redundant": 0}

    # -- acceptance: bitwise-identical aggregate despite the interruption
    assert _report_bytes(campaign_db) == _report_bytes(control_db)

    overhead = (first_wall + resume_wall) / max(control_wall, 1e-9)
    rows = [
        [f"interrupted run ({INTERRUPT_AFTER} cells)", round(first_wall, 3)],
        [f"resumed run ({cells - INTERRUPT_AFTER} cells)", round(resume_wall, 3)],
        [f"uninterrupted control ({cells} cells)", round(control_wall, 3)],
        ["crash-safety overhead ratio", round(overhead, 2)],
        ["redundant recomputes", 0],
    ]
    record_table(
        "BENCH-campaign-resume",
        ["configuration", "value"],
        rows,
        notes=(
            f"{EXPERIMENT} campaign, ns={KWARGS['ns']}, "
            f"{len(list(SEEDS))} cells, interrupted after {INTERRUPT_AFTER}. "
            "Criteria: resume recomputes zero done cells; report bitwise "
            "identical to the uninterrupted control."
        ),
    )

    entry = {
        "date": datetime.date.today().isoformat(),
        "cpus": os.cpu_count(),
        "experiment": EXPERIMENT,
        "cells": cells,
        "interrupted_after": INTERRUPT_AFTER,
        "resumed_cells": cells - INTERRUPT_AFTER,
        "redundant": 0,
        "interrupted_s": round(first_wall, 3),
        "resume_s": round(resume_wall, 3),
        "control_s": round(control_wall, 3),
        "overhead_ratio": round(overhead, 3),
        "report_identical": True,
    }
    entries = []
    if BENCH_PATH.exists():
        try:
            entries = json.loads(BENCH_PATH.read_text()).get("entries", [])
        except (ValueError, AttributeError):
            entries = []
    entries.append(entry)
    BENCH_PATH.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
