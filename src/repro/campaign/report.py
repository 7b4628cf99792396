"""Campaign aggregation: ``aggregate_tables`` over done cells in id order.

A campaign's report is the ``mean [min, max]`` table a ``sweep`` prints,
one per ``(experiment, kwargs)`` group -- the seed axis aggregates away.
Cells finish in whatever order crashes, resumes and worker races
produce, and a float mean summed in that order would depend on it.  The
report never sums in completion order: it is
:func:`~repro.analysis.sweep.aggregate_tables` over each group's
aggregated cells in **cell-id order**, and ids are fixed at ``init``.  So
the rendered tables depend only on *which* cells were folded, never on
when they finished, and an interrupted-and-resumed campaign prints the
same bytes as an uninterrupted one.

:func:`fold_done_cells` admits newly done cells into the report: it
checks them against their group with that same ``aggregate_tables``
call and marks them ``aggregated`` in one transaction, so a crash
mid-fold admits all of them or none.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.analysis.sweep import aggregate_tables

from .store import DONE, CampaignError, CampaignStore

Table = Tuple[List[str], List[List[Any]]]

__all__ = ["fold_done_cells", "report_tables"]


def _group_key(experiment: str, kwargs: Dict[str, Any]) -> str:
    return json.dumps(
        {"experiment": experiment, "kwargs": kwargs}, sort_keys=True, default=repr
    )


def _done_groups(store: CampaignStore, folded_only: bool = False) -> Dict[str, list]:
    """Done cells (folded ones only if ``folded_only``) by group key, in id order."""
    groups: Dict[str, list] = {}
    for row in store._conn.execute(
        "SELECT id, experiment, kwargs, result, aggregated FROM cells "
        "WHERE status = ? AND aggregated >= ? ORDER BY id",
        (DONE, int(folded_only)),
    ):
        key = _group_key(row["experiment"], json.loads(row["kwargs"]))
        groups.setdefault(key, []).append(row)
    return groups


def _table(row) -> Table:
    result = json.loads(row["result"])
    return result["headers"], result["rows"]


def fold_done_cells(store: CampaignStore) -> int:
    """Admit every done-but-unaggregated cell into the report.

    Each group with new cells must still aggregate (same headers, same
    row count, same identity cells), else :class:`CampaignError` and
    nothing is marked.  Returns the number of cells folded.
    """
    conn = store._conn
    conn.execute("BEGIN IMMEDIATE")
    try:
        folded: List[int] = []
        for key, rows in _done_groups(store).items():
            fresh = [row["id"] for row in rows if not row["aggregated"]]
            if not fresh:
                continue
            try:
                aggregate_tables([_table(row) for row in rows])
            except (ValueError, TypeError) as exc:
                raise CampaignError(
                    f"cell id(s) {fresh} do not aggregate with their group "
                    f"{key}: {exc}"
                ) from exc
            folded += fresh
        conn.executemany(
            "UPDATE cells SET aggregated = 1 WHERE id = ?", [(i,) for i in folded]
        )
        conn.execute("COMMIT")
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    return len(folded)


def report_tables(store: CampaignStore) -> List[Tuple[Dict[str, Any], int, Table]]:
    """The aggregate tables, one per (experiment, kwargs) group.

    Returns ``(group descriptor, cells folded, (headers, rows))`` triples
    in group-key order.  Call :func:`fold_done_cells` first to pull
    newly-done cells in; this function reads only folded ones.
    """
    groups = _done_groups(store, folded_only=True)
    return [
        (
            json.loads(key),
            len(groups[key]),
            aggregate_tables([_table(row) for row in groups[key]]),
        )
        for key in sorted(groups)
    ]
