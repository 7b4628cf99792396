"""Campaign worker loop: claim -> execute -> upsert, until drained.

The runner is a thin deterministic shell around the process pool
(:class:`~repro.parallel.executor.ParallelExecutor`, whose only caller
it is): each round it renews its leases, claims the next id-ordered
chunk of runnable cells, fans the reconstructed jobs out over the pool,
and commits each outcome through the store's classification machinery.
One pool serves every round of a :meth:`CampaignRunner.run`, forked at
its first round and joined before it returns.
Crash safety lives in the store; the runner adds

* **heartbeats** -- leases are renewed before every claim round, so a
  healthy worker never loses cells, while a SIGKILLed one stops renewing
  and its cells expire back to the pool;
* **graceful shutdown** -- SIGTERM/SIGINT set a stop flag (handlers are
  installed only on the main thread); the runner finishes the in-flight
  pool round, releases its remaining leases so survivors pick them up
  immediately, and reports ``interrupted``;
* **waiting** -- when nothing is claimable but unfinished cells remain
  (another worker's live leases, or backoff horizons), the runner sleeps
  until the store's next wakeup time instead of spinning.

:func:`run_sweep` is a seed sweep as a one-shot campaign: one store per
(experiment, kwargs, protocol code), which is also the sweep's result
cache, drained in one pool round.  :class:`ProgressReporter` is the one
progress stream of both: the pool hands it each result, and the caller
(``run_sweep``, ``campaign run``) opens and closes it.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import sqlite3
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import IO, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.sweep import aggregate_tables
from repro.parallel.executor import TIMEOUT, JobResult, ParallelExecutor
from repro.parallel.jobs import Job, sweep_jobs

from .store import DONE, CampaignCell, CampaignError, CampaignStore

Table = Tuple[List[str], List[List[Any]]]

__all__ = [
    "CampaignRunner", "CampaignRunReport", "ProgressReporter", "SweepRun", "run_sweep"
]


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


class ProgressReporter:
    """One stderr line per job: status, label, wall-clock, message count.

    Kept off stdout on purpose: the CLI prints the aggregated table there,
    so ``python -m repro sweep ... > table.txt`` stays clean while the
    operator still sees jobs complete live.  The caller brackets a whole
    sweep or campaign run with one :meth:`begin` / :meth:`end`; jobs are
    numbered 1..total whichever pool round ran them, and a retry's
    repeat report keeps the number at ``total``.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.started_at = 0.0
        self.done = self.total = 0

    def _emit(self, line: str) -> None:
        print(line, file=self.stream, flush=True)

    def begin(self, total: int) -> None:
        self.started_at = time.perf_counter()
        self.done, self.total = 0, total
        self._emit(f"queued {total} job(s)")

    def report(self, result: JobResult) -> None:
        self.done = min(self.done + 1, self.total)
        width = len(str(self.total))
        parts = [
            f"[{self.done:>{width}}/{self.total}]",
            f"{result.status:<7}",
            result.job.label(),
        ]
        if result.wall is not None:
            parts.append(f"{result.wall:.2f}s")
        if result.messages is not None:
            parts.append(f"{result.messages:,} msgs")
        if result.error:
            parts.append(result.error)
        self._emit("  ".join(parts))

    def end(self, summary: str = "") -> None:
        elapsed = time.perf_counter() - self.started_at
        line = f"sweep finished in {elapsed:.2f}s"
        if summary:
            line = f"{line}  ({summary})"
        self._emit(line)


@dataclass
class CampaignRunReport:
    """What one ``run()`` did to the campaign."""

    computed: int = 0
    stored: int = 0
    redundant: int = 0
    retried: int = 0
    failed_permanent: int = 0
    released: int = 0
    interrupted: bool = False
    waited_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def drained(self) -> bool:
        """Every cell terminal and none failed-permanent."""
        return (
            not self.interrupted
            and self.counts.get("pending", 0) == 0
            and self.counts.get("claimed", 0) == 0
            and self.counts.get("failed", 0) == 0
        )


class CampaignRunner:
    """One worker process draining a campaign store.

    ``workers``/``timeout`` configure the pool
    (:class:`~repro.parallel.executor.ParallelExecutor`) exactly as for
    ``sweep``; one pool serves all of a :meth:`run`'s rounds.  ``chunk``
    caps how many cells one claim round leases (default ``2 * workers``,
    two jobs per worker per round) -- small chunks keep leases short and
    takeover granular, large chunks amortize claim transactions, not
    forks.
    ``max_cells`` (>= 1) stops the runner after that many computed cells
    (a deterministic, signal-free way to interrupt a campaign mid-flight;
    leases are released exactly as for a signal).  ``progress``, a
    :class:`ProgressReporter` the caller has begun, gets one line per
    computed cell.  ``sleep``/``clock`` are injectable for tests.
    """

    def __init__(
        self,
        store: CampaignStore,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        chunk: Optional[int] = None,
        max_cells: Optional[int] = None,
        worker_id: Optional[str] = None,
        handle_signals: bool = True,
        log: Optional[Callable[[str], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.time,
        max_wait: float = 0.5,
        progress: Optional[ProgressReporter] = None,
    ):
        self.store = store
        self.workers = workers
        self.timeout = timeout
        self.chunk = chunk if chunk is not None else 2 * workers
        if self.chunk < 1:
            # A claim of zero cells never drains anything: the loop would
            # wait forever on cells it can never lease.
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if max_cells is not None and max_cells < 1:
            # Nothing would run, and the run would still report success.
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.max_cells = max_cells
        self.worker_id = worker_id or default_worker_id()
        self.handle_signals = handle_signals
        self.log = log or (lambda line: None)
        self.sleep = sleep
        self.clock = clock
        self.max_wait = max_wait
        self.progress = progress
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask the runner to checkpoint and exit after the current round."""
        self._stop.set()

    def _install_signals(self):
        if not (
            self.handle_signals
            and threading.current_thread() is threading.main_thread()
        ):
            return None
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda _sig, _frame: self.request_stop()
            )
        return previous

    @staticmethod
    def _restore_signals(previous) -> None:
        if previous:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # ------------------------------------------------------------------
    def run(self) -> CampaignRunReport:
        report = CampaignRunReport()
        executor = ParallelExecutor(
            workers=self.workers,
            timeout=self.timeout,
            on_result=None if self.progress is None else self.progress.report,
        )
        previous = self._install_signals()
        try:
            while not self._stop.is_set():
                budget = self.chunk
                if self.max_cells is not None:
                    budget = min(budget, self.max_cells - report.computed)
                    if budget <= 0:
                        break
                self.store.heartbeat(self.worker_id)
                cells = self.store.claim(self.worker_id, budget)
                if not cells:
                    if self.store.unfinished() == 0:
                        break
                    # Unfinished cells exist but none are claimable: wait
                    # for a lease to expire or a backoff horizon to pass.
                    wakeup = self.store.next_wakeup()
                    delay = self.max_wait
                    if wakeup is not None:
                        delay = min(max(wakeup - self.clock(), 0.01), self.max_wait)
                    report.waited_s += delay
                    self.sleep(delay)
                    continue
                jobs = [cell.job() for cell in cells]
                results = executor.run(jobs)
                for cell, result in zip(cells, results):
                    self._commit(cell.key, result, report)
                if self._stop.is_set():
                    break
        finally:
            executor.close()
            self._restore_signals(previous)
            released = self.store.release(self.worker_id)
            report.released = released
            report.interrupted = self._stop.is_set()
            report.counts = self.store.counts()
        if report.interrupted:
            self.log(
                f"campaign interrupted: checkpointed, released "
                f"{report.released} leased cell(s)"
            )
        return report

    # ------------------------------------------------------------------
    def _commit(self, key: str, result: JobResult, report: CampaignRunReport) -> None:
        report.computed += 1
        if result.ok:
            stored = self.store.complete(
                key, _result_payload(result), wall=result.wall
            )
            if stored:
                report.stored += 1
            else:
                report.redundant += 1
                self.log(f"redundant compute of done cell {key} (lease takeover)")
            return
        transient = result.status == TIMEOUT or "BrokenProcessPool" in (
            result.error or ""
        )
        status = self.store.fail(key, result.error or result.status, transient=transient)
        if status == "failed":
            report.failed_permanent += 1
            self.log(f"cell {key} failed permanently: {result.error}")
        elif status == "pending":
            report.retried += 1
            self.log(f"cell {key} will retry: {result.error}")
        else:  # raced to done elsewhere
            report.redundant += 1


def _result_payload(result: JobResult) -> Dict[str, Any]:
    """The JSON blob stored per done cell (what the report folds)."""
    return {
        "headers": list(result.headers or []),
        "rows": [list(row) for row in result.rows or []],
        "messages": result.messages,
    }


@dataclass
class SweepRun:
    """One :func:`run_sweep`, per job in job order."""

    #: ``done``, ``cached`` (the store already held it) or ``failed``
    results: List[JobResult]
    #: executions this run, retries included; 0 for a cached result
    attempts: List[int]

    @property
    def table(self) -> Table:
        """The across-seed aggregate; :class:`JobFailure` if a job failed."""
        return aggregate_tables([result.table for result in self.results])


def run_sweep(
    experiment: Any,
    seeds: Sequence[int],
    kwargs: Optional[Dict[str, Any]] = None,
    *,
    cache_dir: Union[str, pathlib.Path, None] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    max_attempts: int = 1,
    backoff: float = 0.0,
    progress: Optional[ProgressReporter] = None,
) -> SweepRun:
    """One ``experiment`` job per seed, run as a one-shot campaign.

    The store is ``<cache_dir>/<seedless job key>.db``: one per
    (experiment, kwargs, protocol code), so a code edit misses.  Its done
    cells are the cache: a repeated sweep computes nothing, a wider one
    only the new seeds.  Without ``cache_dir``, or when it cannot be
    written (one warning), the store is temporary.  A failed job retries
    under the store's policy (``max_attempts``, ``backoff``); the default
    fails fast.  ``progress`` gets the sweep's one ``begin`` / ``end``
    and a line per job, cached ones first.
    """
    jobs = sweep_jobs(experiment, seeds, kwargs)
    policy = {"max_attempts": max_attempts, "backoff": backoff}
    with tempfile.TemporaryDirectory() as scratch:
        store = None
        if cache_dir is not None:
            path = pathlib.Path(cache_dir) / f"{Job.create(experiment, kwargs).key()}.db"
            try:
                store = _cache_store(path, jobs, policy)
            except (OSError, sqlite3.Error) as exc:
                print(
                    f"warning: result cache disabled: cannot write {cache_dir} "
                    f"({exc}); continuing without caching",
                    file=sys.stderr,
                )
        cached = store is not None
        if store is None:
            store = CampaignStore.create(pathlib.Path(scratch) / "s.db", jobs, **policy)
        try:
            held = {cell.key: cell for cell in store.cells(DONE)}
            hits = [job.key() in held for job in jobs]
            if progress is not None:
                progress.begin(len(jobs))
                for job, hit in zip(jobs, hits):
                    if hit:
                        progress.report(_cell_result(job, held[job.key()], "cached"))
            report = CampaignRunner(
                store,
                workers=workers,
                timeout=timeout,
                chunk=len(jobs),
                handle_signals=False,
                progress=progress,
            ).run()
            cells = {cell.key: cell for cell in store.cells()}
        finally:
            store.close()
    results, attempts = [], []
    for job, hit in zip(jobs, hits):
        cell = cells[job.key()]
        results.append(_cell_result(job, cell, "cached" if hit else cell.status))
        attempts.append(0 if hit else cell.attempts + (cell.status == DONE))
    if progress is not None:
        summary = f"cache: {sum(hits)} hits, {len(jobs) - sum(hits)} misses, "
        progress.end(f"{summary}{report.stored} stores" if cached else "")
    return SweepRun(results=results, attempts=attempts)


def _cache_store(
    path: pathlib.Path, jobs: List[Job], policy: Dict[str, Any]
) -> CampaignStore:
    """The sweep's store at ``path``, opened and admitted, or created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        try:
            store = CampaignStore.open(path)
        except CampaignError:
            path.unlink()  # torn, foreign or older-schema file: a miss
        else:
            store.admit(jobs, **policy)
            return store
    return CampaignStore.create(path, jobs, **policy)


def _cell_result(job: Job, cell: CampaignCell, status: str) -> JobResult:
    result = cell.result or {}
    return JobResult(
        job=job,
        status=status,
        headers=result.get("headers"),
        rows=result.get("rows"),
        wall=cell.wall,
        error=cell.error,
        messages=result.get("messages"),
    )
