"""Shared plumbing for the benchmark suite.

``bench_tables.py`` regenerates the paper tables (every
``EXPERIMENT_TABLE`` row with a shape criterion) and the perf scripts
their own tables; each records the rendered table under
``benchmarks/results/`` with :func:`record_table`, and EXPERIMENTS.md
quotes those files.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.registry import save_record
from repro.analysis.tables import render_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Render a table, write it to results/<name>.txt, and echo it."""

    def _record(name: str, headers, rows, notes: str = "") -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = render_table(headers, rows)
        if notes:
            text = f"{text}\n\n{notes.strip()}\n"
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        save_record(RESULTS_DIR, name, headers, rows, metadata={"notes": notes})
        print(f"\n=== {name} ===\n{text}")
        return text

    return _record

