"""Campaign worker loop: claim -> execute -> upsert, until drained.

The runner is a thin deterministic shell around the existing
:class:`~repro.parallel.ParallelExecutor`: each round it renews its
leases, claims the next id-ordered chunk of runnable cells, fans the
reconstructed jobs out over the pool, and commits each outcome
through the store's classification machinery.  Crash safety lives in the
store; the runner adds

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
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.parallel import ParallelExecutor
from repro.parallel.executor import TIMEOUT, JobResult

from .store import CampaignStore

__all__ = ["CampaignRunner", "CampaignRunReport"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


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

    ``workers``/``timeout`` configure the inner
    :class:`ParallelExecutor` exactly as for ``sweep``.  ``chunk`` caps
    how many cells one claim round leases (default ``2 * workers``, two
    jobs per worker per round) -- small chunks keep leases short
    and takeover granular, large chunks amortize claim transactions.
    ``max_cells`` stops the runner after that many computed cells (a
    deterministic, signal-free way to interrupt a campaign mid-flight;
    leases are released exactly as for a signal).  ``sleep``/``clock``
    are injectable for tests.
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
    ):
        self.store = store
        self.workers = workers
        self.timeout = timeout
        self.chunk = chunk if chunk is not None else 2 * workers
        if self.chunk < 1:
            # A claim of zero cells never drains anything: the loop would
            # wait forever on cells it can never lease.
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        self.max_cells = max_cells
        self.worker_id = worker_id or default_worker_id()
        self.handle_signals = handle_signals
        self.log = log or (lambda line: None)
        self.sleep = sleep
        self.clock = clock
        self.max_wait = max_wait
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
        executor = ParallelExecutor(workers=self.workers, timeout=self.timeout)
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
