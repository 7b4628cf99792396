"""Multi-process execution of experiment jobs.

:class:`ParallelExecutor` fans :class:`~repro.parallel.jobs.Job` specs out
over a ``concurrent.futures.ProcessPoolExecutor`` (forked workers), one
future per job, with

* **one pool per executor**: forked at the first parallel :meth:`run`,
  reused by every later one, rebuilt only after it breaks or after a
  timeout kill, and joined by :meth:`~ParallelExecutor.close` (the
  executor is a context manager), so a campaign's claim rounds share
  warm workers instead of forking and reaping a pool each;
* a **serial fallback** for ``workers=1`` and for platforms without
  ``fork`` -- the exact same code path minus the pool, so behaviour never
  depends on the backend;
* **crash isolation**: worker-side exceptions are caught and returned as
  failed :class:`JobResult`\\ s.  A worker death (segfault, OOM kill,
  ``os._exit``) breaks the pool; every job that already finished keeps
  its result (the pool reads pending results before it declares itself
  broken), and every job without one runs again in its own fresh
  one-worker pool, never kept, so a job that kills its worker every time
  ends ``failed`` with a ``BrokenProcessPool`` error instead of taking
  the sweep down with it;
* **no orphans**: a worker drops its parent's SIGTERM/SIGINT handlers for
  the defaults and exits once its parent is gone;
* a **per-job timeout** that marks exactly that job ``timeout`` and
  kills its worker once the round's other results are in, rather than
  hanging the sweep on one diverging simulation;
* **determinism**: jobs are submitted in job order and results are
  collected back into that order, so the aggregated tables are bitwise
  identical for any worker count and any completion order.

Its one caller is :class:`repro.campaign.runner.CampaignRunner`: stored
results, retries and progress lines are the campaign's.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .jobs import Job, resolve_experiment

Table = Tuple[List[str], List[List[Any]]]

__all__ = ["JobResult", "JobFailure", "ParallelExecutor"]

#: JobResult.status values.
DONE, FAILED, TIMEOUT = "done", "failed", "timeout"


class JobFailure(RuntimeError):
    """Raised by :attr:`JobResult.table` for a job that failed or timed out."""


@dataclass
class JobResult:
    """Outcome of one job: a table, or an error string.

    ``status`` is ``done``, ``failed`` or ``timeout``; a sweep reports a
    result its store already held as ``cached``.
    """

    job: Job
    status: str
    headers: Optional[List[str]] = None
    rows: Optional[List[List[Any]]] = None
    wall: Optional[float] = None
    error: Optional[str] = None
    messages: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status not in (FAILED, TIMEOUT)

    @property
    def table(self) -> Table:
        if not self.ok:
            raise JobFailure(f"{self.job.label()}: {self.status} ({self.error})")
        return list(self.headers or []), [list(row) for row in self.rows or []]


def _extract_messages(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> Optional[int]:
    """Total of a ``messages`` column, if the table has one (for progress)."""
    try:
        col = list(headers).index("messages")
    except ValueError:
        return None
    total = 0
    for row in rows:
        cell = row[col]
        if isinstance(cell, (int, float)) and not isinstance(cell, bool):
            total += int(cell)
    return total


def _safe_execute(job: Job) -> JobResult:
    """Run one job, converting any exception into a failed result.

    Module-level so it pickles into pool workers; also the serial path.
    """
    start = time.perf_counter()
    try:
        fn = resolve_experiment(job.experiment)
        kwargs = job.kwargs_dict()
        if job.seed is not None:
            kwargs["seed"] = job.seed
        headers, rows = fn(**kwargs)
        headers = list(headers)
        rows = [list(row) for row in rows]
    except Exception as exc:  # crash isolation: one bad job != dead sweep
        return JobResult(
            job=job,
            status=FAILED,
            wall=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    return JobResult(
        job=job,
        status=DONE,
        headers=headers,
        rows=rows,
        wall=time.perf_counter() - start,
        messages=_extract_messages(headers, rows),
    )


def _worker_init(parent: int) -> None:
    """Pool-worker initializer: the default SIGTERM/SIGINT, not the handlers
    forked from the parent (the campaign runner's only sets a flag in this
    copy), and an exit once ``parent`` is gone, which a worker blocked on
    the call queue never notices.  Only the parent commits a result."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _await(pool: ProcessPoolExecutor, future: Any, timeout: Optional[float]) -> Any:
    """``future.result(timeout)``, except that a future the broken pool will
    never settle raises ``BrokenProcessPool`` instead of waiting forever.

    CPython's manager thread (3.11 at least) marks a pool broken without
    the submit lock, so a job submitted while it fails the pending ones can
    miss that sweep; once the thread has exited, nothing will settle it.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        left = 0.05 if deadline is None else min(0.05, deadline - time.monotonic())
        try:
            return future.result(timeout=max(0.0, left))
        except FuturesTimeoutError:
            if deadline is not None and time.monotonic() >= deadline:
                raise
            manager = pool._executor_manager_thread
            if pool._broken and not future.done() and not (manager and manager.is_alive()):
                raise BrokenProcessPool(pool._broken) from None


@dataclass
class ParallelExecutor:
    """Deterministic fan-out of experiment jobs over a process pool.

    ``workers=1`` (the default) runs serially in-process; higher counts
    fork a pool at the first :meth:`run` and keep it for later ones until
    :meth:`close` (or the ``with`` block's end).  ``timeout`` bounds the
    wait for each job's result in seconds (pool runs only; the serial
    path has no way to interrupt a job).  Every job runs once: a failure
    is a result, not a retry.  ``on_result`` sees each result as it is
    collected.
    """

    workers: int = 1
    timeout: Optional[float] = None
    on_result: Optional[Callable[[JobResult], None]] = None
    _pool: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Join the kept pool's workers; a later :meth:`run` forks anew."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute ``jobs``; results align index-for-index with the input."""
        jobs = list(jobs)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        if jobs:
            parallel = self.workers > 1 and _fork_available()
            runner = self._run_pool if parallel else self._run_serial
            for index, result in runner(jobs, range(len(jobs))):
                results[index] = result
                if self.on_result is not None:
                    self.on_result(result)
        return [result for result in results if result is not None]

    def _run_serial(
        self, jobs: Sequence[Job], pending: Sequence[int]
    ) -> Iterator[Tuple[int, JobResult]]:
        for index in pending:
            yield index, _safe_execute(jobs[index])

    def _fork(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=(os.getpid(),),
        )

    def _kept_pool(self) -> ProcessPoolExecutor:
        """The kept pool, forked now if there is none yet or a worker died
        since the last round, which no job of this round can have caused."""
        if self._pool is not None and self._pool._broken:
            self.close()
        if self._pool is None:
            self._pool = self._fork(self.workers)
        return self._pool

    def _run_pool(
        self, jobs: Sequence[Job], pending: Sequence[int], isolated: bool = False
    ) -> Iterator[Tuple[int, JobResult]]:
        """One future per job, collected in job order.

        A worker death breaks the pool; each job that has no result by
        then runs again ``isolated``: alone in a one-worker pool of its
        own, where a break can only be that job's doing and makes it
        ``failed``.  The kept pool outlives a round that ends cleanly; a
        break, a timeout or an unfinished round discards it.
        """
        pool = self._fork(1) if isolated else self._kept_pool()
        start = time.perf_counter()
        orphans: List[int] = []
        stuck = False
        finished = False
        try:
            futures = []
            for index in pending:
                try:
                    futures.append(pool.submit(_safe_execute, jobs[index]))
                except BrokenProcessPool:
                    break  # a worker died before the rest were queued
            for index, future in zip(pending, futures):
                try:
                    result = _await(pool, future, self.timeout)
                except FuturesTimeoutError:
                    stuck = True
                    future.cancel()
                    result = JobResult(
                        job=jobs[index],
                        status=TIMEOUT,
                        wall=self.timeout,
                        error=f"no result after {self.timeout:g}s",
                    )
                except BrokenProcessPool as exc:
                    if not isolated:
                        orphans.append(index)
                        continue
                    result = JobResult(
                        job=jobs[index],
                        status=FAILED,
                        wall=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                yield index, result
            orphans.extend(pending[len(futures):])
            finished = True
        finally:
            if stuck or orphans:
                # SIGKILL what is left: a timed-out job never returns, and a
                # broken pool's SIGTERM may reach a worker still holding its
                # parent's handler (before ``_worker_init`` ran).
                for process in list(pool._processes.values()):
                    process.kill()
            if isolated or stuck or orphans or not finished:
                if not isolated:
                    self._pool = None
                pool.shutdown(wait=True)
        for index in orphans:
            yield from self._run_pool(jobs, [index], isolated=True)
