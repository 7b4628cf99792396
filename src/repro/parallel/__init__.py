"""Sharded multi-process experiment execution.

The scaling experiments are embarrassingly parallel across seeds and
configurations; this package turns them into :class:`~repro.parallel.jobs.Job`
specs and fans them out over a forked worker pool while keeping the output
bitwise identical to a serial run.  See DESIGN.md section 8.

Typical use::

    from repro.parallel import ParallelExecutor

    executor = ParallelExecutor(workers=8)
    headers, rows = executor.sweep("near-linear", seeds=range(16))

or, through the CLI, as a one-shot campaign whose store keeps every
result (:func:`repro.campaign.runner.run_sweep`)::

    python -m repro sweep --exp near-linear --seeds 0:16 --workers 8
"""

from .executor import JobFailure, JobResult, ParallelExecutor
from .jobs import (
    CACHE_SCHEMA_VERSION,
    Job,
    experiment_name,
    resolve_experiment,
    sweep_jobs,
)
from .progress import NullProgress, ProgressReporter

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "Job",
    "JobFailure",
    "JobResult",
    "NullProgress",
    "ParallelExecutor",
    "ProgressReporter",
    "experiment_name",
    "resolve_experiment",
    "sweep_jobs",
]
