"""One-shot report generation: every experiment table in one document.

``build_report()`` runs every experiment of
:data:`~repro.analysis.experiments.EXPERIMENT_TABLE` that has an EXP id (at
full or quick sizes) and renders a single markdown document mirroring
EXPERIMENTS.md's structure, with fresh numbers.  Exposed on the CLI as
``python -m repro report [--quick] [--out FILE]``.
"""

from __future__ import annotations

import datetime
import platform
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENT_TABLE
from repro.analysis.tables import render_table

__all__ = ["REPORT_SECTIONS", "build_report"]

_SECTION_ROWS = [row for row in EXPERIMENT_TABLE if row.exp_id]

#: ``(exp_id, title)`` per section, in report order.
REPORT_SECTIONS = [(row.exp_id, row.title) for row in _SECTION_ROWS]


def build_report(*, quick: bool = False, only: Optional[List[str]] = None) -> str:
    """Run the experiments and return the markdown report."""
    rows = _SECTION_ROWS
    if only:
        names = [name for name, _title in REPORT_SECTIONS]
        unknown = [name for name in only if name not in names]
        if unknown:
            raise ValueError(f"unknown section(s): {unknown}; choose from {names}")
        rows = [row for row in rows if row.exp_id in only]

    lines = [
        "# Experiment report — Asynchronous Resource Discovery (PODC 2003)",
        "",
        f"Generated {datetime.date.today().isoformat()} on Python "
        f"{platform.python_version()}"
        + (" (quick sizes)" if quick else " (full sizes)")
        + ".",
        "",
        "Static analysis of these tables, including the shape criteria and",
        "the reproduction findings, lives in EXPERIMENTS.md; this document",
        "is the regenerated raw data.",
    ]
    for row in rows:
        headers, table = row.runner(**(row.quick if quick else row.full))
        lines += [
            "",
            f"## {row.exp_id} — {row.title}",
            "",
            "```",
            render_table(headers, table),
            "```",
        ]
    return "\n".join(lines) + "\n"
