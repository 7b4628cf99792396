"""Multi-seed aggregation for experiment tables.

The experiment runners are single-seed by design (deterministic tables);
for claims about *randomized* behaviour -- scheduler sensitivity, the
randomized baselines -- :func:`sweep_seeds` reruns a table-producing
function across seeds and aggregates every numeric column into
``mean [min, max]`` cells, keyed by the non-numeric columns.

Example::

    headers, rows = sweep_seeds(
        lambda seed: exp_near_linear_scaling(ns=(64, 128), seed=seed),
        seeds=range(5),
    )
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

Table = Tuple[List[str], List[List[Any]]]
#: Hook signature: (experiment, seeds) -> one table per seed, seed order.
MapFn = Callable[[Callable[[int], Table], Sequence[int]], Sequence[Table]]

__all__ = ["sweep_seeds", "aggregate_tables"]


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


def sweep_seeds(
    experiment: Callable[[int], Table],
    seeds: Sequence[int],
    map_fn: Optional[MapFn] = None,
) -> Table:
    """Run ``experiment(seed)`` for every seed and aggregate the tables.

    ``map_fn`` replaces the serial per-seed loop with an alternative
    execution strategy -- notably
    :meth:`repro.parallel.ParallelExecutor.map_seeds`, which fans the
    seeds out over a process pool.  It must return exactly one table per
    seed, in seed order, so aggregation stays deterministic.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    if map_fn is None:
        tables: Sequence[Table] = [experiment(seed) for seed in seeds]
    else:
        tables = list(map_fn(experiment, seeds))
        if len(tables) != len(seeds):
            raise ValueError(
                f"map_fn returned {len(tables)} tables for {len(seeds)} seeds"
            )
    return aggregate_tables(tables)
