"""``python -m repro campaign init|run|status|resume|report``.

Argument plumbing for the campaign subsystem; the store/runner/report
modules hold all the logic.  Registered from :mod:`repro.cli` so the
top-level parser stays the single entry point, and declares the options
it shares with ``sweep`` / ``chaos`` through that module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Sequence

from repro.analysis.experiments import QUICK_SWEEP_KWARGS
from repro.analysis.tables import render_table
from repro.cli import add_option, add_shared_options, check_output_path, parse_seeds
from repro.parallel.jobs import Job, experiment_name

from .report import fold_done_cells, report_tables
from .runner import CampaignRunner, ProgressReporter
from .store import CampaignCodeDrift, CampaignError, CampaignStore

__all__ = ["add_campaign_parser", "cmd_campaign"]

#: Exit code for a graceful signal-interrupted run (leases released,
#: resume will pick up exactly where this left off).
EXIT_INTERRUPTED = 3


def add_campaign_parser(sub) -> None:
    campaign_p = sub.add_parser(
        "campaign",
        help="crash-safe resumable experiment campaigns",
        description=(
            "Persist a grid of experiment cells (experiment x kwargs-grid "
            "x seeds) in a SQLite campaign store, then drain it with "
            "lease-claiming workers.  A killed or crashed run resumes "
            "with zero done cells recomputed; transient failures retry "
            "with exponential backoff; deterministic failures are marked "
            "failed-permanent and reported.  The aggregate report "
            "aggregates the done cells in cell-id order (ids are fixed at "
            "init), so it is bitwise identical however often, and in "
            "whatever order, the campaign was interrupted."
        ),
    )
    campaign_sub = campaign_p.add_subparsers(dest="campaign_command", required=True)

    def add_db(p):
        p.add_argument("--db", required=True, help="campaign store path (SQLite)")

    init_p = campaign_sub.add_parser("init", help="create a campaign store")
    add_db(init_p)
    init_p.add_argument(
        "--exp",
        required=True,
        help="experiment to run per cell: a SWEEPABLE_EXPERIMENTS name or "
        "an importable module:qualname path",
    )
    add_shared_options(init_p, seeds="0:8")
    init_p.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="one kwargs axis of the cell grid (repeatable; the campaign "
        "is the cross product of all axes x seeds).  Values are parsed "
        "as JSON when possible ('n=16,24', 'ns=[16,32]'), else strings "
        "('family=sparse-random,ring')",
    )
    init_p.add_argument(
        "--quick",
        action="store_true",
        help="start from the experiment's QUICK_SWEEP_KWARGS (grid axes "
        "override individual keys)",
    )
    add_shared_options(init_p, max_attempts=5, backoff=1.0)
    init_p.add_argument(
        "--lease",
        type=float,
        default=60.0,
        help="claim lease in seconds; a worker silent this long forfeits "
        "its cells to survivors (default: 60)",
    )

    for verb, help_text in (
        ("run", "claim and execute cells until the campaign drains"),
        ("resume", "alias of run, for post-crash readability"),
    ):
        run_p = campaign_sub.add_parser(verb, help=help_text)
        add_db(run_p)
        add_shared_options(run_p, workers=1, timeout=None)
        add_option(
            run_p, "--chunk", type=int, default=None, bound=(">=", 1),
            help="cells leased per claim round (default: workers * 2)",
        )
        add_option(
            run_p, "--max-cells", type=int, default=None, bound=(">=", 1),
            help="stop (gracefully, releasing leases) after computing this "
            "many cells -- a deterministic mid-flight interruption",
        )
        run_p.add_argument(
            "--allow-code-drift",
            action="store_true",
            help="run even though the protocol source changed since init "
            "(mixes results computed by different code -- use knowingly)",
        )
        run_p.add_argument(
            "--quiet", action="store_true", help="suppress progress lines"
        )

    status_p = campaign_sub.add_parser("status", help="cell counts and audit")
    add_db(status_p)
    status_p.add_argument("--json", action="store_true", help="machine-readable")
    status_p.add_argument(
        "--assert-complete",
        action="store_true",
        help="exit 1 unless every cell is done (none pending/claimed/failed)",
    )
    status_p.add_argument(
        "--assert-no-recompute",
        action="store_true",
        help="exit 1 if any done cell was ever recomputed (redundant > 0)",
    )

    report_p = campaign_sub.add_parser(
        "report", help="fold newly-done cells and print the aggregate tables"
    )
    add_db(report_p)
    report_p.add_argument(
        "--bench-out", default=None, help="also write the tables as JSON here"
    )


# ----------------------------------------------------------------------
# grid parsing
# ----------------------------------------------------------------------
def _split_top_level(text: str) -> List[str]:
    """Split on commas that are not nested inside [] or {}."""
    parts, depth, current = [], 0, []
    for char in text:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [part for part in (p.strip() for p in parts) if part]


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_grid(specs: Sequence[str]) -> List[Dict[str, Any]]:
    """``['n=16,24', 'family=ring']`` -> cross-product kwargs dicts."""
    axes: List[tuple] = []
    for spec in specs:
        key, eq, value_text = spec.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ValueError(f"--grid wants KEY=V1,V2,..., got {spec!r}")
        values = [_parse_value(part) for part in _split_top_level(value_text)]
        if not values:
            raise ValueError(f"--grid axis {key!r} has no values")
        axes.append((key, values))
    combos: List[Dict[str, Any]] = [{}]
    for key, values in axes:
        combos = [{**combo, key: value} for combo in combos for value in values]
    return combos


# ----------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------
def cmd_campaign(args: argparse.Namespace) -> int:
    handler = {
        "init": _cmd_init,
        "run": _cmd_run,
        "resume": _cmd_run,
        "status": _cmd_status,
        "report": _cmd_report,
    }[args.campaign_command]
    try:
        return handler(args)
    except CampaignError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2


def _cmd_init(args: argparse.Namespace) -> int:
    seeds = parse_seeds(args.seeds)
    try:
        experiment = experiment_name(args.exp)
        combos = parse_grid(args.grid)
    except ValueError as exc:
        print(f"campaign init: {exc}", file=sys.stderr)
        return 2
    base = QUICK_SWEEP_KWARGS.get(experiment, {}) if args.quick else {}
    jobs = [
        Job.create(experiment, {**base, **combo}, seed)
        for combo in combos
        for seed in seeds
    ]
    store = CampaignStore.create(
        args.db,
        jobs,
        max_attempts=args.max_attempts,
        backoff=args.backoff,
        lease=args.lease,
    )
    store.close()
    print(
        f"initialized {args.db}: {len(jobs)} cells "
        f"({len(combos)} kwargs combo(s) x {len(seeds)} seed(s)), "
        f"lease {args.lease:g}s, max {args.max_attempts} attempts"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    store = CampaignStore.open(args.db)
    try:
        try:
            store.check_code(allow_drift=args.allow_code_drift)
        except CampaignCodeDrift as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        log = (lambda line: None) if args.quiet else (
            lambda line: print(line, file=sys.stderr, flush=True)
        )
        progress = None
        if not args.quiet:
            cells = store.unfinished()
            progress = ProgressReporter()
            progress.begin(cells if args.max_cells is None else min(cells, args.max_cells))
        runner = CampaignRunner(
            store,
            workers=args.workers,
            timeout=args.timeout,
            chunk=args.chunk,
            max_cells=args.max_cells,
            log=log,
            progress=progress,
        )
        report = runner.run()
        if progress is not None:
            progress.end()
        counts = report.counts
        print(
            f"campaign {args.campaign_command}: computed {report.computed} "
            f"cell(s) ({report.stored} stored, {report.redundant} redundant, "
            f"{report.retried} queued for retry), released {report.released}"
        )
        print(
            "status: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        )
        if report.interrupted:
            print("interrupted -- resume with `campaign resume`", file=sys.stderr)
            return EXIT_INTERRUPTED
        if counts.get("failed", 0):
            _print_failures(store)
            return 1
        return 0
    finally:
        store.close()


def _print_failures(store: CampaignStore) -> None:
    print(f"{store.counts()['failed']} cell(s) failed permanently:", file=sys.stderr)
    for cell in store.cells("failed"):
        print(
            f"  {cell.experiment} seed={cell.seed} "
            f"attempts={cell.attempts}: {cell.error}",
            file=sys.stderr,
        )


def _cmd_status(args: argparse.Namespace) -> int:
    store = CampaignStore.open(args.db)
    try:
        counts = store.counts()
        stats = store.compute_stats()
        total = store.total_cells()
        payload = {
            "cells": total,
            **counts,
            **stats,
            "lease_s": store.lease,
            "max_attempts": store.max_attempts,
        }
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(
                f"{args.db}: {total} cells | "
                + " ".join(f"{k}={counts[k]}" for k in sorted(counts))
                + f" | computed={stats['computed']} redundant={stats['redundant']}"
            )
        if args.assert_complete and (counts["done"] != total):
            print(
                f"assert-complete failed: {total - counts['done']} cell(s) "
                "not done",
                file=sys.stderr,
            )
            return 1
        if args.assert_no_recompute and stats["redundant"] > 0:
            print(
                f"assert-no-recompute failed: {stats['redundant']} redundant "
                "computation(s) of done cells",
                file=sys.stderr,
            )
            return 1
        return 0
    finally:
        store.close()


def _cmd_report(args: argparse.Namespace) -> int:
    check_output_path("--bench-out", args.bench_out)
    store = CampaignStore.open(args.db)
    try:
        folded = fold_done_cells(store)
        groups = report_tables(store)
        counts = store.counts()
        print(
            f"folded {folded} new cell(s); report covers "
            f"{sum(n for _g, n, _t in groups)} of {store.total_cells()} cells"
        )
        for descriptor, n_cells, (headers, rows) in groups:
            kwargs_text = json.dumps(descriptor["kwargs"], sort_keys=True)
            print(
                f"\n=== {descriptor['experiment']} {kwargs_text} "
                f"x {n_cells} cell(s) ==="
            )
            print(render_table(headers, rows))
        if counts["failed"]:
            print(
                f"\nWARNING: {counts['failed']} failed-permanent cell(s) "
                "excluded from the report",
                file=sys.stderr,
            )
        if args.bench_out:
            payload = [
                {
                    "experiment": descriptor["experiment"],
                    "kwargs": descriptor["kwargs"],
                    "cells": n_cells,
                    "headers": headers,
                    "rows": rows,
                }
                for descriptor, n_cells, (headers, rows) in groups
            ]
            with open(args.bench_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.bench_out}")
        return 0
    finally:
        store.close()
