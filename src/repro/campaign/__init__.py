"""Crash-safe resumable experiment campaigns (SQLite-backed).

A *campaign* is a persistent grid of experiment cells -- one
:class:`~repro.parallel.jobs.Job` per (experiment, kwargs, seed)
combination -- stored one row per cell in a WAL-mode SQLite database.
Workers claim cells under a heartbeat **lease**, execute them on the
campaign's process pool (:mod:`repro.parallel.executor`), and upsert
results **idempotently** keyed by the job's content digest, so

* a SIGKILLed run resumes with **zero** done cells recomputed,
* a wedged or killed worker's leases expire and survivors reclaim its
  cells,
* transient failures (timeouts, broken pools) retry with exponential
  backoff up to a cap, while deterministic failures (the same exception
  digest twice) are marked failed-permanent instead of retrying forever,
* the aggregate report is ``aggregate_tables`` over the done cells in
  cell-id order (ids are fixed at ``init``), so an interrupted-and-resumed
  campaign prints a table bitwise identical to an uninterrupted one at
  any worker count.

See DESIGN.md section 16.  CLI::

    python -m repro campaign init --db camp.db --exp near-linear --seeds 0:64
    python -m repro campaign run --db camp.db --workers 4
    python -m repro campaign status --db camp.db
    python -m repro campaign resume --db camp.db --workers 4   # after a crash
    python -m repro campaign report --db camp.db
"""

from .report import fold_done_cells, report_tables
from .runner import CampaignRunner, CampaignRunReport
from .store import (
    CAMPAIGN_SCHEMA_VERSION,
    CLAIMED,
    DONE,
    FAILED,
    PENDING,
    CampaignCell,
    CampaignCodeDrift,
    CampaignError,
    CampaignStore,
)

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "CLAIMED",
    "DONE",
    "FAILED",
    "PENDING",
    "CampaignCell",
    "CampaignCodeDrift",
    "CampaignError",
    "CampaignRunReport",
    "CampaignRunner",
    "CampaignStore",
    "fold_done_cells",
    "report_tables",
]
