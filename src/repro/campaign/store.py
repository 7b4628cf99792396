"""The campaign store: one SQLite row per experiment cell.

Cells move through a small state machine::

    pending --claim--> claimed --complete--> done          (terminal)
                          |                     ^
                          |  fail               |  (idempotent: the first
                          v                     |   writer wins, late
                    [classification]  ----------+   completions only bump
                          |                         the compute counter)
            transient / first-time error:
                attempts += 1, back to pending with
                next_attempt_at = now + backoff * 2**(attempts-1)
            same error digest twice, or attempts >= cap:
                failed                                      (terminal)

Claims are **leases**: a claim stamps ``lease_owner`` and
``lease_expires``; a claimed cell whose lease has expired is claimable
again (the owner was SIGKILLed, wedged, or partitioned away), so a
campaign always drains as long as one worker survives.  Every claim,
heartbeat, completion, and failure is one ``BEGIN IMMEDIATE``
transaction, which is what makes two racing workers partition the cells
instead of double-computing them.

Results are upserted idempotently: ``complete()`` on an already-done cell
leaves the stored result untouched and only increments ``compute_count``
-- the counter the zero-recompute acceptance test audits.  Cell identity
is :meth:`repro.parallel.jobs.Job.key`, the content digest that already
folds in ``CACHE_SCHEMA_VERSION`` and the protocol source digest, so a
code edit between ``init`` and ``resume`` is *detected* (see
:meth:`CampaignStore.check_code`) instead of silently mixing results from
two code versions.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.parallel.jobs import Job, protocol_code_digest

PathLike = Union[str, pathlib.Path]

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "PENDING",
    "CLAIMED",
    "DONE",
    "FAILED",
    "CampaignCell",
    "CampaignError",
    "CampaignCodeDrift",
    "CampaignStore",
]

#: Bumped whenever the table layout changes shape; a mismatching store
#: refuses to open rather than guessing.  Version 2 dropped the report's
#: accumulator tables: the report is computed from the ``cells`` rows.
CAMPAIGN_SCHEMA_VERSION = 2

#: Cell states.  ``done`` and ``failed`` are terminal; ``failed`` means
#: failed-*permanent* -- transient failures go back to ``pending``.
PENDING, CLAIMED, DONE, FAILED = "pending", "claimed", "done", "failed"

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE cells (
    id              INTEGER PRIMARY KEY,
    key             TEXT NOT NULL UNIQUE,
    experiment      TEXT NOT NULL,
    kwargs          TEXT NOT NULL,
    seed            INTEGER,
    status          TEXT NOT NULL DEFAULT 'pending',
    attempts        INTEGER NOT NULL DEFAULT 0,
    compute_count   INTEGER NOT NULL DEFAULT 0,
    redundant       INTEGER NOT NULL DEFAULT 0,
    lease_owner     TEXT,
    lease_expires   REAL,
    next_attempt_at REAL NOT NULL DEFAULT 0,
    error           TEXT,
    error_digest    TEXT,
    wall            REAL,
    result          TEXT,
    aggregated      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX cells_status ON cells (status, next_attempt_at);
"""


class CampaignError(RuntimeError):
    """A campaign store is missing, malformed, or used inconsistently."""


class CampaignCodeDrift(CampaignError):
    """The protocol source changed between ``init`` and this run."""


def error_digest(error: str) -> str:
    """Stable digest of a failure message, for deterministic-vs-flaky
    classification: the *same* digest on two consecutive attempts means
    the failure reproduces and retrying is pointless."""
    return hashlib.sha256(error.encode()).hexdigest()[:16]


def _canonical_kwargs(kwargs: Dict[str, Any]) -> str:
    """JSON-normalized kwargs (tuples become lists), sorted keys."""
    return json.dumps(kwargs, sort_keys=True, default=repr)


def _check_policy(max_attempts: int, backoff: float) -> None:
    if max_attempts < 1:
        raise CampaignError(f"max_attempts must be >= 1, got {max_attempts}")
    if backoff < 0:
        raise CampaignError(f"backoff must be >= 0, got {backoff}")


def _cell_rows(keys: Sequence[str], jobs: Sequence[Job]) -> List[tuple]:
    """``cells`` insert parameters, one tuple per job."""
    return [
        (key, job.experiment, _canonical_kwargs(job.kwargs_dict()), job.seed)
        for key, job in zip(keys, jobs)
    ]


@dataclass
class CampaignCell:
    """One row of the ``cells`` table, as Python data."""

    id: int
    key: str
    experiment: str
    kwargs: Dict[str, Any]
    seed: Optional[int]
    status: str
    attempts: int
    compute_count: int
    redundant: int
    lease_owner: Optional[str]
    lease_expires: Optional[float]
    next_attempt_at: float
    error: Optional[str]
    error_digest: Optional[str]
    wall: Optional[float]
    result: Optional[Dict[str, Any]]
    aggregated: bool

    def job(self) -> Job:
        """Reconstruct the executable job spec for this cell."""
        return Job.create(self.experiment, self.kwargs, self.seed)


def _row_to_cell(row: sqlite3.Row) -> CampaignCell:
    return CampaignCell(
        id=row["id"],
        key=row["key"],
        experiment=row["experiment"],
        kwargs=json.loads(row["kwargs"]),
        seed=row["seed"],
        status=row["status"],
        attempts=row["attempts"],
        compute_count=row["compute_count"],
        redundant=row["redundant"],
        lease_owner=row["lease_owner"],
        lease_expires=row["lease_expires"],
        next_attempt_at=row["next_attempt_at"],
        error=row["error"],
        error_digest=row["error_digest"],
        wall=row["wall"],
        result=json.loads(row["result"]) if row["result"] else None,
        aggregated=bool(row["aggregated"]),
    )


class CampaignStore:
    """Crash-safe cell store over one SQLite file (WAL mode).

    One store instance wraps one connection and must stay on the thread
    that created it (SQLite's threading rule); concurrent workers --
    threads or processes -- each open their own store on the same path.
    ``clock`` is injectable so tests can expire leases without sleeping.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        clock: Callable[[], float] = time.time,
        _create: bool = False,
    ):
        self.path = pathlib.Path(path)
        self.clock = clock
        if not _create and not self.path.exists():
            raise CampaignError(
                f"no campaign at {self.path}: run `campaign init` first"
            )
        self._conn = sqlite3.connect(str(self.path), timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        # Autocommit mode: every mutation below is an explicit
        # BEGIN IMMEDIATE ... COMMIT, so lock scope is visible in the code.
        self._conn.isolation_level = None
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise CampaignError(f"{self.path} is not a campaign store: {exc}")
        if not _create:
            self._check_schema()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path: PathLike,
        jobs: Sequence[Job],
        *,
        max_attempts: int = 5,
        backoff: float = 1.0,
        lease: float = 60.0,
        clock: Callable[[], float] = time.time,
    ) -> "CampaignStore":
        """Initialize a new campaign with one cell per job.

        Duplicate job specs are rejected (a grid that collapses two cells
        onto one digest would silently half-compute).  The retry policy
        (``max_attempts``, ``backoff``) and default ``lease`` are frozen
        into the store so every resume applies the same rules.
        """
        path = pathlib.Path(path)
        if path.exists():
            raise CampaignError(f"{path} already exists; delete it or pick a new --db")
        if not jobs:
            raise CampaignError("campaign needs at least one cell")
        keys = [job.key() for job in jobs]
        if len(set(keys)) != len(keys):
            raise CampaignError("duplicate cells in campaign grid")
        _check_policy(max_attempts, backoff)
        if lease <= 0:
            # A zero lease expires at the claim that takes it: the next
            # worker's claim would take the same cell again.
            raise CampaignError(f"lease must be > 0, got {lease}")
        store = cls(path, clock=clock, _create=True)
        conn = store._conn
        # executescript() commits any open transaction, so the schema goes
        # in first; the population below is one atomic transaction.
        conn.executescript(_SCHEMA)
        conn.execute("BEGIN IMMEDIATE")
        try:
            meta = {
                "schema_version": str(CAMPAIGN_SCHEMA_VERSION),
                "code_digest": protocol_code_digest(),
                "max_attempts": str(max_attempts),
                "backoff": repr(float(backoff)),
                "lease": repr(float(lease)),
                "cells": str(len(jobs)),
            }
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)", sorted(meta.items())
            )
            conn.executemany(
                "INSERT INTO cells (key, experiment, kwargs, seed) VALUES (?, ?, ?, ?)",
                _cell_rows(keys, jobs),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return store

    def admit(self, jobs: Sequence[Job], *, max_attempts: int, backoff: float) -> None:
        """Make ``jobs`` this store's next run, as a sweep's result cache.

        Done cells stay (they are the cache).  Every other cell is dropped
        -- a failure is never cached, and a killed sweep's leases must not
        hold up this one -- and each job without a done cell gets a fresh
        pending one.  The retry policy becomes this run's.  Campaigns
        freeze their grid and policy at :meth:`create` and never call this.
        """
        _check_policy(max_attempts, backoff)
        keys = [job.key() for job in jobs]
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.execute("DELETE FROM cells WHERE status != ?", (DONE,))
            conn.executemany(
                "INSERT OR IGNORE INTO cells (key, experiment, kwargs, seed) "
                "VALUES (?, ?, ?, ?)",
                _cell_rows(keys, jobs),
            )
            conn.executemany(
                "UPDATE meta SET value = ? WHERE key = ?",
                [
                    (str(max_attempts), "max_attempts"),
                    (repr(float(backoff)), "backoff"),
                    (str(self.total_cells()), "cells"),
                ],
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise

    @classmethod
    def open(
        cls, path: PathLike, *, clock: Callable[[], float] = time.time
    ) -> "CampaignStore":
        return cls(path, clock=clock)

    def close(self) -> None:
        self._conn.close()

    def _check_schema(self) -> None:
        try:
            version = self.meta("schema_version")
        except sqlite3.Error as exc:
            raise CampaignError(f"{self.path} is not a campaign store: {exc}")
        if version != str(CAMPAIGN_SCHEMA_VERSION):
            raise CampaignError(
                f"{self.path} has schema version {version}, this code expects "
                f"{CAMPAIGN_SCHEMA_VERSION}"
            )

    def meta(self, key: str) -> str:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise CampaignError(f"campaign meta key {key!r} missing")
        return row["value"]

    @property
    def max_attempts(self) -> int:
        return int(self.meta("max_attempts"))

    @property
    def backoff(self) -> float:
        return float(self.meta("backoff"))

    @property
    def lease(self) -> float:
        return float(self.meta("lease"))

    def check_code(self, *, allow_drift: bool = False) -> bool:
        """Compare the stored code digest against the live source tree.

        Returns ``True`` when they match.  On drift: raises
        :class:`CampaignCodeDrift` unless ``allow_drift``, in which case
        the caller has explicitly accepted mixing results across code
        versions (the cells keep their init-time keys as identity).
        """
        stored, live = self.meta("code_digest"), protocol_code_digest()
        if stored == live:
            return True
        if not allow_drift:
            raise CampaignCodeDrift(
                f"protocol/simulator source changed since init (digest "
                f"{stored} -> {live}); done cells were computed by different "
                "code.  Re-init the campaign, or pass --allow-code-drift to "
                "resume anyway."
            )
        return False

    # ------------------------------------------------------------------
    # claims and leases
    # ------------------------------------------------------------------
    def claim(self, owner: str, limit: int, *, lease: Optional[float] = None) -> List[CampaignCell]:
        """Atomically lease up to ``limit`` runnable cells to ``owner``.

        Runnable means pending with its backoff horizon passed, or
        claimed with an **expired** lease (the previous owner is presumed
        dead; its in-flight work, if any, will land as a redundant
        idempotent upsert).  Cells come back in id order, so two racing
        workers contend for the same frontier and the BEGIN IMMEDIATE
        write lock decides -- each cell goes to exactly one of them.
        """
        lease_for = self.lease if lease is None else lease
        now = self.clock()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            rows = conn.execute(
                "SELECT * FROM cells WHERE "
                "(status = ? AND next_attempt_at <= ?) OR "
                "(status = ? AND lease_expires IS NOT NULL AND lease_expires <= ?) "
                "ORDER BY id LIMIT ?",
                (PENDING, now, CLAIMED, now, limit),
            ).fetchall()
            if rows:
                conn.executemany(
                    "UPDATE cells SET status = ?, lease_owner = ?, lease_expires = ? "
                    "WHERE id = ?",
                    [(CLAIMED, owner, now + lease_for, row["id"]) for row in rows],
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        cells = [_row_to_cell(row) for row in rows]
        for cell in cells:
            cell.status = CLAIMED
            cell.lease_owner = owner
            cell.lease_expires = now + lease_for
        return cells

    def heartbeat(self, owner: str, *, lease: Optional[float] = None) -> int:
        """Renew every live lease held by ``owner``; returns the count."""
        lease_for = self.lease if lease is None else lease
        now = self.clock()
        cursor = self._conn.execute(
            "UPDATE cells SET lease_expires = ? "
            "WHERE status = ? AND lease_owner = ?",
            (now + lease_for, CLAIMED, owner),
        )
        return cursor.rowcount

    def release(self, owner: str) -> int:
        """Return ``owner``'s claimed cells to the pending pool.

        The graceful-shutdown path (SIGTERM/SIGINT checkpoint): cells the
        worker claimed but will not finish become immediately claimable
        by survivors instead of waiting out the lease.
        """
        cursor = self._conn.execute(
            "UPDATE cells SET status = ?, lease_owner = NULL, lease_expires = NULL "
            "WHERE status = ? AND lease_owner = ?",
            (PENDING, CLAIMED, owner),
        )
        return cursor.rowcount

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def complete(
        self,
        key: str,
        result: Dict[str, Any],
        *,
        wall: Optional[float] = None,
    ) -> bool:
        """Idempotent result upsert for cell ``key``.

        Returns ``True`` if this call stored the result, ``False`` if the
        cell was already done (a lease-takeover race: both computations
        produced the same content-addressed cell, the first writer won,
        and this one only bumps ``compute_count`` for the audit trail).
        """
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT status FROM cells WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                raise CampaignError(f"no cell {key!r} in campaign")
            stored = row["status"] != DONE
            if stored:
                conn.execute(
                    "UPDATE cells SET status = ?, result = ?, wall = ?, "
                    "error = NULL, error_digest = NULL, lease_owner = NULL, "
                    "lease_expires = NULL, compute_count = compute_count + 1 "
                    "WHERE key = ?",
                    (DONE, json.dumps(result), wall, key),
                )
            else:
                conn.execute(
                    "UPDATE cells SET compute_count = compute_count + 1, "
                    "redundant = redundant + 1 WHERE key = ?",
                    (key,),
                )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return stored

    def fail(self, key: str, error: str, *, transient: bool = False) -> str:
        """Record a failed attempt and classify it; returns the new status.

        * ``transient=True`` (timeout, broken pool): always retryable up
          to ``max_attempts``, with exponential backoff.
        * deterministic candidates: the first occurrence of an exception
          digest retries (it may have been environmental); the **same**
          digest on the next attempt proves the failure reproduces and the
          cell goes failed-permanent immediately.

        A cell that raced to done stays done: failure of a redundant
        recomputation is dropped (the stored result already won).
        """
        digest = error_digest(error)
        now = self.clock()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            row = conn.execute(
                "SELECT status, attempts, error_digest FROM cells WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None:
                raise CampaignError(f"no cell {key!r} in campaign")
            if row["status"] == DONE:
                # A redundant recomputation lost the race *and* failed;
                # the stored result already won, so only audit it.
                conn.execute(
                    "UPDATE cells SET compute_count = compute_count + 1, "
                    "redundant = redundant + 1 WHERE key = ?",
                    (key,),
                )
                conn.execute("COMMIT")
                return DONE
            attempts = row["attempts"] + 1
            deterministic = not transient and row["error_digest"] == digest
            if deterministic or attempts >= self.max_attempts:
                status, next_at = FAILED, 0.0
            else:
                status = PENDING
                next_at = now + self.backoff * (2 ** (attempts - 1))
            conn.execute(
                "UPDATE cells SET status = ?, attempts = ?, error = ?, "
                "error_digest = ?, next_attempt_at = ?, lease_owner = NULL, "
                "lease_expires = NULL, compute_count = compute_count + 1 "
                "WHERE key = ?",
                (status, attempts, error, digest, next_at, key),
            )
            conn.execute("COMMIT")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        return status

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cell(self, key: str) -> CampaignCell:
        row = self._conn.execute(
            "SELECT * FROM cells WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            raise CampaignError(f"no cell {key!r} in campaign")
        return _row_to_cell(row)

    def cells(self, status: Optional[str] = None) -> Iterator[CampaignCell]:
        if status is None:
            rows = self._conn.execute("SELECT * FROM cells ORDER BY id")
        else:
            rows = self._conn.execute(
                "SELECT * FROM cells WHERE status = ? ORDER BY id", (status,)
            )
        for row in rows:
            yield _row_to_cell(row)

    def counts(self) -> Dict[str, int]:
        """Cell count per status (every status present, zeros included)."""
        out = {status: 0 for status in (PENDING, CLAIMED, DONE, FAILED)}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM cells GROUP BY status"
        ):
            out[row["status"]] = row["n"]
        return out

    def total_cells(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()[0]

    def unfinished(self) -> int:
        """Cells not yet in a terminal state."""
        return self._conn.execute(
            "SELECT COUNT(*) FROM cells WHERE status NOT IN (?, ?)", (DONE, FAILED)
        ).fetchone()[0]

    def compute_stats(self) -> Dict[str, int]:
        """Totals for the zero-recompute audit.

        ``computed`` sums ``compute_count`` (every committed computation,
        including retries of failed attempts); ``redundant`` counts only
        computations that landed *after* the cell was already done -- the
        quantity a resumed campaign must keep at zero.
        """
        row = self._conn.execute(
            "SELECT COALESCE(SUM(compute_count), 0) AS total, "
            "COALESCE(SUM(redundant), 0) AS redundant FROM cells"
        ).fetchone()
        return {"computed": row["total"], "redundant": row["redundant"]}

    def next_wakeup(self) -> Optional[float]:
        """Earliest time a currently-unclaimable cell becomes claimable.

        ``None`` when nothing is waiting (either all cells are terminal,
        or something is claimable right now).
        """
        row = self._conn.execute(
            "SELECT MIN(t) FROM ("
            "  SELECT next_attempt_at AS t FROM cells WHERE status = ? "
            "  UNION ALL "
            "  SELECT lease_expires AS t FROM cells WHERE status = ? "
            "    AND lease_expires IS NOT NULL"
            ")",
            (PENDING, CLAIMED),
        ).fetchone()
        return row[0]
