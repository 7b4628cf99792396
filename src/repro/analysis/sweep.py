"""Multi-seed aggregation for experiment tables.

The experiment runners are single-seed by design (deterministic tables);
for claims about *randomized* behaviour -- scheduler sensitivity, the
randomized baselines -- a seed sweep (:func:`repro.campaign.runner.run_sweep`)
runs one table per seed and :func:`aggregate_tables` merges them: every
numeric column becomes a ``mean [min, max]`` cell, keyed by the
non-numeric columns.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

Table = Tuple[List[str], List[List[Any]]]

__all__ = ["aggregate_tables"]


def _is_numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_tables(tables: Sequence[Table]) -> Table:
    """Merge same-shaped tables: numeric cells become ``mean [min, max]``.

    Rows are matched positionally; the non-numeric cells of each row must
    agree across tables (they are the row's identity) or ``ValueError`` is
    raised.
    """
    if not tables:
        raise ValueError("need at least one table")
    headers = tables[0][0]
    n_rows = len(tables[0][1])
    for other_headers, other_rows in tables[1:]:
        if other_headers != headers:
            raise ValueError(f"headers differ: {headers} vs {other_headers}")
        if len(other_rows) != n_rows:
            raise ValueError("row-count mismatch between tables")

    merged: List[List[Any]] = []
    for row_index in range(n_rows):
        variants = [rows[row_index] for _h, rows in tables]
        first = variants[0]
        out_row: List[Any] = []
        for col_index, cell in enumerate(first):
            column = [variant[col_index] for variant in variants]
            if _is_numeric(cell):
                values = [float(v) for v in column]
                mean = sum(values) / len(values)
                lo, hi = min(values), max(values)
                if lo == hi:
                    out_row.append(lo if lo != int(lo) else int(lo))
                else:
                    out_row.append(f"{mean:.4g} [{lo:.4g}, {hi:.4g}]")
            else:
                if any(v != cell for v in column):
                    raise ValueError(
                        f"row {row_index} col {col_index}: identity cell "
                        f"differs across tables: {column}"
                    )
                out_row.append(cell)
        merged.append(out_row)
    return headers, merged

