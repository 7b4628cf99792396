"""Every paper table at full size, one test per ``EXPERIMENT_TABLE`` row
that states a shape criterion.

Each test runs the row's runner at its ``full`` kwargs, records the table
under ``benchmarks/results/<exp_id>-<slug>.{txt,json}`` with the
criterion's docstring as its notes, then checks the criterion.  Sizes,
seeds and criteria live only in the row (``repro.analysis.experiments``).
"""

import pytest

from repro.analysis.experiments import EXPERIMENT_TABLE


@pytest.mark.parametrize(
    "row", [row for row in EXPERIMENT_TABLE if row.criterion], ids=lambda row: row.exp_id
)
def test_table(benchmark, record_table, row):
    headers, rows = benchmark.pedantic(
        lambda: row.runner(**row.full), rounds=1, iterations=1
    )
    record_table(row.record, headers, rows, notes=row.notes)
    row.criterion(headers, rows)
