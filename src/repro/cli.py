"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``           run one discovery algorithm on a generated graph and
                  print the outcome, accounting, and verification report
``experiments``   regenerate experiment tables (all, or a named subset),
                  optionally at reduced "quick" sizes
``compare``       the Section 1.1 baseline comparison table
``lower-bound``   the Theorem 1 adversary on T(height)
``families``      list the available graph families
``profile``       phase / pointer-depth / traffic-mix profile of one
                  execution
``report``        regenerate the full experiment report (all sections,
                  or a named subset), optionally at quick sizes
``sweep``         multi-seed sweep of one experiment, run as a one-shot
                  campaign: worker pool, and a campaign store per
                  (experiment, sizes, code) that keeps every result
``chaos``         fault-injection sweep: scenarios x variants under the
                  stepwise safety monitor, with a degradation report
                  (exit 1 if any safety invariant broke)
``trace``         structured observability: ``record`` a run's event
                  timeline (optionally under a fault scenario and with
                  the wall-time profiler), ``summarize`` a timeline file,
                  ``diff`` two timelines
``serve-sim``     run the Dynamic Ad-hoc system as a steady-state
                  service under an open-loop workload (Poisson /
                  constant / bursty arrivals) and print latency
                  percentiles, throughput, reconvergence lag, and the
                  Theorem 8 amortized-cost curve
``campaign``      crash-safe resumable experiment campaigns: a SQLite
                  store of cells drained by lease-claiming workers
                  (``init`` / ``run`` / ``status`` / ``resume`` /
                  ``report``); a SIGKILLed campaign resumes with zero
                  done cells recomputed

Every option's lower bound is stated where the option is declared
(:func:`add_option`) and checked before any verb runs: a value below it
exits 2 with one ``bad --X: must be >= k, got v`` line.

Everything the CLI prints comes from the same experiment runners the
benchmarks use, so numbers match ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    EXPERIMENT_TABLE,
    GRAPH_FAMILIES,
    QUICK_SWEEP_KWARGS,
    SWEEPABLE_EXPERIMENTS,
    build_family,
    exp_baseline_comparison,
)
from repro.analysis.tables import render_table
from repro.campaign.store import CampaignError
from repro.core.adhoc import run_adhoc
from repro.core.bounded import run_bounded
from repro.core.generic import run_generic
from repro.lowerbounds.tree_adversary import run_tree_lower_bound
from repro.sim.scheduler import LifoScheduler
from repro.sim.timed import TimedScheduler
from repro.verification.invariants import verify_discovery
from repro.verification.lemmas import check_all_lemmas

__all__ = ["main"]

#: EXP id -> (runner at full size, runner at quick size), from the table
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    row.exp_id: (
        functools.partial(row.runner, **row.full),
        functools.partial(row.runner, **row.quick),
    )
    for row in EXPERIMENT_TABLE
    if row.exp_id
}

_RUNNERS = {"generic": run_generic, "bounded": run_bounded, "adhoc": run_adhoc}

#: Options several verbs take, by ``dest``.  A verb declares the ones it
#: takes with :func:`add_shared_options`, giving each its own default.
_SHARED_OPTIONS: Dict[str, dict] = {
    "variant": {"choices": sorted(_RUNNERS), "help": "discovery variant"},
    "family": {"choices": sorted(GRAPH_FAMILIES), "help": "graph family"},
    "n": {"type": int, "bound": (">=", 1), "help": "number of nodes"},
    "seed": {"type": int, "help": "graph and run seed"},
    "seeds": {
        "help": "half-open range 'a:b' or comma list '0,3,7' (default: %(default)s)"
    },
    "workers": {
        "type": int,
        "bound": (">=", 1),
        "help": "process-pool size; 1 = serial in-process",
    },
    "timeout": {
        "type": float,
        "bound": (">", 0),
        "help": "per-job timeout in seconds (pool runs only)",
    },
    "no_progress": {"action": "store_true", "help": "suppress per-job stderr lines"},
    "max_attempts": {
        "type": int,
        "help": "executions per job before it fails; the same error twice "
        "fails it at once (default: %(default)s)",
    },
    "backoff": {
        "type": float,
        "help": "base retry delay in seconds, doubled per attempt "
        "(default: %(default)s)",
    },
}


def add_option(parser: argparse.ArgumentParser, flag: str, *, bound=None, **kwargs):
    """``parser.add_argument(flag, **kwargs)``; ``bound`` -- ``(">=", 1)``,
    ``(">", 0)`` -- is the option's lower bound, which :func:`check_bounds`
    enforces before any verb runs."""
    dest = parser.add_argument(flag, **kwargs).dest
    if bound is not None:
        bounds = parser.get_default("bounds") or {}
        parser.set_defaults(bounds={**bounds, dest: bound})


def add_shared_options(parser: argparse.ArgumentParser, **defaults) -> None:
    """Declare the named :data:`_SHARED_OPTIONS` with these defaults, in
    the order named."""
    for dest, default in defaults.items():
        flag = "--" + dest.replace("_", "-")
        add_option(parser, flag, default=default, **_SHARED_OPTIONS[dest])


class UsageError(Exception):
    """An argument value no verb can run with: ``main`` prints the message
    and exits 2."""


def check_bounds(args: argparse.Namespace) -> None:
    """Every lower bound the parsed verb's options state (:func:`add_option`);
    an unset option (``None``) has none to meet."""
    for dest, (relation, limit) in getattr(args, "bounds", {}).items():
        value = getattr(args, dest)
        if value is None or (value > limit if relation == ">" else value >= limit):
            continue
        flag = "--" + dest.replace("_", "-")
        raise UsageError(f"bad {flag}: must be {relation} {limit:g}, got {value:g}")


def check_output_path(option: str, path: Optional[str]) -> None:
    """``path`` (when given) can be written; checked before a verb runs
    anything, so a bad path does not cost the whole run."""
    if not path:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"error: cannot write {option} {path}: {reason}")


def parse_seeds(text: str) -> List[int]:
    """``--seeds`` as a non-empty list of distinct seeds: ``'a:b'``
    (half-open, like range), ``'s1,s2,...'`` or one seed.

    A seed given twice is an error: it would be one cell, counted twice.
    """
    spec = text.strip()
    try:
        if ":" in spec:
            lo_text, _, hi_text = spec.partition(":")
            lo, hi = int(lo_text or 0), int(hi_text)
            if hi <= lo:
                raise ValueError(f"empty seed range {spec!r}")
            return list(range(lo, hi))
        seeds = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --seeds: {exc}")
    if not seeds:
        raise UsageError("bad --seeds: no seeds given")
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise UsageError(f"bad --seeds: duplicate seed {seed}")
        seen.add(seed)
    return seeds


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Asynchronous Resource Discovery (Abraham & Dolev, PODC 2003) "
            "-- reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one discovery algorithm")
    add_shared_options(run_p, variant="generic", family="sparse-random", n=128)
    run_p.add_argument(
        "--graph-file",
        help="load the graph from an edge-list/.json file instead of "
        "generating one (overrides --family/--n)",
    )
    add_shared_options(run_p, seed=0)
    run_p.add_argument(
        "--scheduler",
        choices=("fifo", "lifo", "random", "timed"),
        default="random",
        help="message delivery order (default: seeded random)",
    )
    run_p.add_argument(
        "--channels",
        choices=("fifo", "random"),
        default="fifo",
        help="channel delivery discipline (random = the ABL-3 reorder ablation)",
    )
    run_p.add_argument(
        "--greedy-queries",
        action="store_true",
        help="ablation: disable Section 4.1's query balancing (generic only)",
    )

    exp_p = sub.add_parser("experiments", help="regenerate experiment tables")
    exp_p.add_argument(
        "names",
        nargs="*",
        metavar="EXP",
        help=f"subset to run (default: all of {', '.join(sorted(EXPERIMENTS))})",
    )
    exp_p.add_argument("--quick", action="store_true", help="reduced sizes")

    cmp_p = sub.add_parser("compare", help="baseline comparison table")
    add_shared_options(cmp_p, n=256, seed=3)

    lb_p = sub.add_parser("lower-bound", help="Theorem 1 adversary on T(height)")
    add_option(lb_p, "--height", type=int, default=8, bound=(">=", 1))

    sub.add_parser("families", help="list graph families")

    prof_p = sub.add_parser(
        "profile", help="phase / depth / traffic profile of one execution"
    )
    add_shared_options(
        prof_p, variant="generic", family="dense-random", n=256, seed=0
    )

    rep_p = sub.add_parser("report", help="regenerate the full experiment report")
    rep_p.add_argument("--out", help="write to this file instead of stdout")
    rep_p.add_argument("--quick", action="store_true", help="reduced sizes")
    rep_p.add_argument("names", nargs="*", metavar="EXP", help="subset of sections")

    sweep_p = sub.add_parser(
        "sweep", help="multi-seed sweep via the parallel execution engine"
    )
    sweep_p.add_argument(
        "--exp",
        required=True,
        choices=sorted(SWEEPABLE_EXPERIMENTS),
        help="experiment to sweep (a seed-taking runner)",
    )
    add_shared_options(sweep_p, seeds="0:8", workers=1, timeout=None)
    sweep_p.add_argument("--quick", action="store_true", help="reduced sizes")
    sweep_p.add_argument(
        "--no-cache",
        action="store_true",
        help="run against a temporary store: re-execute, keep nothing",
    )
    sweep_p.add_argument(
        "--cache-dir",
        default="benchmarks/results/cache",
        help="directory of the sweep stores, one per experiment, sizes and "
        "code (default: %(default)s)",
    )
    add_shared_options(sweep_p, no_progress=False, max_attempts=1, backoff=0.0)
    sweep_p.add_argument(
        "--obs-out",
        default=None,
        help="write a job-lifecycle JSONL timeline (one 'job' event per "
        "sweep job: status + wall time) to this path",
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="fault-injection sweep with stepwise safety checks",
        description=(
            "Run discovery variants under named fault scenarios (loss, "
            "duplication, crash-stop, crash-recovery, partitions, delay "
            "bursts) with the stepwise safety monitor watching every step.  "
            "Prints the aggregated degradation table; exits 1 if any trial "
            "broke a safety invariant.  --recovery selects the "
            "crash-recovery scenario set (nodes crash mid-run and restart "
            "from durable checkpoints under a new incarnation epoch)."
        ),
    )
    chaos_p.add_argument(
        "--scenarios",
        default="all",
        help="comma list of scenario names, or 'all' (see repro.faults)",
    )
    chaos_p.add_argument(
        "--variants",
        default="generic",
        help="comma list of discovery variants (default: generic)",
    )
    add_shared_options(
        chaos_p, n=32, family="sparse-random", seeds="0:4", workers=1, timeout=None
    )
    chaos_p.add_argument(
        "--raw",
        action="store_true",
        help="run the protocols bare, without the reliable transport "
        "(measures how the algorithms themselves degrade)",
    )
    chaos_p.add_argument(
        "--recovery",
        action="store_true",
        help="run the crash-recovery scenario set (durable checkpoints, "
        "epoch fencing, rejoin); incompatible with --raw, which lacks the "
        "transport the recovery model fences through",
    )
    add_option(
        chaos_p, "--budget-factor", type=int, default=8, bound=(">=", 1),
        help="step budget as a multiple of the fault-free budget (default: 8)",
    )
    chaos_p.add_argument(
        "--bench-out",
        default=None,
        help="also write the aggregated table as JSON to this path",
    )
    add_shared_options(chaos_p, no_progress=False)
    chaos_p.add_argument(
        "--obs-out",
        default=None,
        help="re-run the first (scenario, variant, seed) cell with the "
        "observability recorder attached and write its JSONL timeline here",
    )

    trace_p = sub.add_parser(
        "trace",
        help="record / summarize / diff observability timelines",
        description=(
            "Structured observability for single runs: 'record' executes "
            "one discovery run (optionally under a fault scenario) with "
            "the run-event recorder and metrics sampler attached and "
            "writes a JSONL timeline; 'summarize' prints a digest of a "
            "timeline file (exit 1 if it holds no events); 'diff' "
            "compares two timelines (exit 1 if they diverge)."
        ),
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    rec_p = trace_sub.add_parser("record", help="run once and write a timeline")
    add_shared_options(
        rec_p, variant="generic", family="sparse-random", n=64, seed=0
    )
    rec_p.add_argument("--out", required=True, help="timeline JSONL path")
    rec_p.add_argument(
        "--scenario",
        default=None,
        help="record under this fault scenario via the chaos harness "
        "(default: a clean fault-free run)",
    )
    add_option(
        rec_p, "--cadence", type=int, default=None, bound=(">=", 1),
        help="metrics sampling cadence in steps (clean runs only; "
        "default: 64)",
    )
    rec_p.add_argument(
        "--profile",
        action="store_true",
        help="also wrap dispatch + handlers in perf_counter_ns buckets "
        "and print the hot-path table",
    )

    sum_p = trace_sub.add_parser("summarize", help="digest one timeline file")
    sum_p.add_argument("timeline", help="JSONL timeline path")

    diff_p = trace_sub.add_parser("diff", help="compare two timeline files")
    diff_p.add_argument("timeline_a")
    diff_p.add_argument("timeline_b")

    serve_p = sub.add_parser(
        "serve-sim",
        help="steady-state discovery service under open-loop load",
        description=(
            "Run the Dynamic Ad-hoc system (Section 6) as a long-running "
            "service: inject a seeded open-loop arrival schedule of joins, "
            "link additions, and leader probes in virtual time -- no "
            "terminal quiescence required -- and report probe latency "
            "percentiles (p50/p95/p99), throughput, reconvergence lag "
            "after churn bursts, and the amortized message cost curve "
            "that Theorem 8 bounds by O(m alpha(m, n + n-hat)).  Rates "
            "are events per 1000 virtual steps.  Output is a "
            "deterministic function of the seed."
        ),
    )
    serve_p.add_argument(
        "--workload",
        choices=("poisson", "constant", "bursty"),
        default="poisson",
        help="arrival process (default: poisson)",
    )
    add_option(
        serve_p, "--rate", type=float, default=5.0, bound=(">", 0),
        help="mean arrival rate in events per 1000 virtual steps",
    )
    add_option(
        serve_p, "--duration", type=int, default=2000, bound=(">=", 1),
        help="length of the arrival window in virtual steps",
    )
    add_shared_options(serve_p, seed=0, family="sparse-random", n=64)
    serve_p.add_argument(
        "--mix",
        default=None,
        metavar="JOIN:LINK:PROBE",
        help="relative event-kind weights (default 0.2:0.2:0.6)",
    )
    serve_p.add_argument(
        "--burst",
        default=None,
        metavar="EVERY:LEN:FACTOR",
        help="churn-burst shape (implies --workload bursty): a LEN-step "
        "window every EVERY steps at FACTOR times the base rate",
    )
    add_option(
        serve_p, "--step-budget", type=int, default=None, bound=(">=", 1),
        help="hard cap on executed steps (default: derived from the "
        "workload; exhaustion is reported, not raised)",
    )
    add_option(
        serve_p, "--cadence", type=int, default=None, bound=(">=", 1),
        help="metrics sampling cadence in virtual steps (default: 64)",
    )
    serve_p.add_argument(
        "--verify",
        action="store_true",
        help="run the full discovery invariants at each post-burst "
        "reconvergence point (slow)",
    )
    serve_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject faults into the steady state (after warmup): a "
        "comma-separated spec of loss=P, dup=P, and crash=K@STEP "
        "(crash K low-in-degree nodes STEP window-steps in), e.g. "
        "'loss=0.1,crash=2@500'.  Implies the reliable transport.",
    )
    serve_p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the fault injector's RNG (default: 0)",
    )
    serve_p.add_argument(
        "--obs-out",
        default=None,
        help="write the run's JSONL timeline (one service-op event per "
        "completed probe plus sampled metrics) to this path",
    )

    from repro.campaign.cli import add_campaign_parser

    add_campaign_parser(sub)
    return parser


def _scheduler_options(name: str, seed: int) -> dict:
    """The ``run_*`` / ``build_simulation`` keywords for ``--scheduler``.

    The two stock policies go by ``seed`` -- exactly what
    ``build_simulation`` constructs from it, and what lets a plain run
    take the direct entry -- the others as an instance.
    """
    if name == "random":
        return {"seed": seed}
    if name == "fifo":
        return {}
    return {"scheduler": LifoScheduler() if name == "lifo" else TimedScheduler()}


def _cmd_run(args: argparse.Namespace) -> int:
    if args.greedy_queries and args.variant != "generic":
        raise UsageError("--greedy-queries only applies to the generic variant")
    if args.graph_file:
        from repro.graphs.io import load_graph

        try:
            graph = load_graph(args.graph_file)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {args.graph_file}: {exc}")
    else:
        graph = build_family(args.family, args.n, seed=args.seed)
    kwargs = _scheduler_options(args.scheduler, args.seed)
    scheduler = kwargs.get("scheduler")
    if args.greedy_queries:
        kwargs["greedy_queries"] = True
    if args.channels == "fifo":
        result = _RUNNERS[args.variant](graph, **kwargs)
    else:
        # The run_* entry points have no channel discipline: the reorder
        # ablation builds its simulator here.
        from repro.core.result import collect_result
        from repro.core.runner import build_simulation

        sim, nodes = build_simulation(
            graph,
            args.variant,
            channel_discipline=args.channels,
            channel_seed=args.seed,
            **kwargs,
        )
        sim.run()
        result = collect_result(graph, nodes, sim, args.variant)
    report = verify_discovery(result, graph)
    print(result.summary())
    if args.channels != "fifo":
        print(f"(channel discipline: {args.channels})")
    if isinstance(scheduler, TimedScheduler):
        print(f"completion time: {scheduler.now:g} (unit message latency)")
    print("\nmessages by type:")
    for msg_type in sorted(result.stats.messages_by_type):
        print(
            f"  {msg_type:<12} {result.stats.messages_by_type[msg_type]:>8}  "
            f"({result.stats.bits_by_type[msg_type]:,} bits)"
        )
    print("\ncomplexity bounds:")
    for check in check_all_lemmas(result.stats, graph.n, graph.n_edges, result.variant):
        print(f"  {check}")
    print(f"\nverified: {report}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    names = args.names or sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise UsageError(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}"
        )
    for name in names:
        full, quick = EXPERIMENTS[name]
        headers, rows = (quick if args.quick else full)()
        print(f"\n=== {name} ===")
        print(render_table(headers, rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    headers, rows = exp_baseline_comparison(n=args.n, seed=args.seed)
    print(render_table(headers, rows))
    return 0


def _cmd_lower_bound(args: argparse.Namespace) -> int:
    outcome = run_tree_lower_bound(args.height)
    print(outcome.summary())
    print("floor holds" if outcome.respects_floor else "FLOOR VIOLATED")
    return 0 if outcome.respects_floor else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.protocol_stats import profile_execution
    from repro.core.runner import build_simulation

    graph = build_family(args.family, args.n, seed=args.seed)
    sim, nodes = build_simulation(graph, args.variant, seed=args.seed)
    sim.run()
    profile = profile_execution(nodes, sim.stats)
    print(profile.summary())
    print("\nphase histogram (final phase -> nodes):")
    for phase, count in sorted(profile.phase_histogram.items()):
        print(f"  {phase:>3}: {count}")
    print("\npointer-depth histogram (hops to leader -> nodes):")
    for depth, count in sorted(profile.depth_histogram.items()):
        print(f"  {depth:>3}: {count}")
    print("\ntraffic mix (messages / bits):")
    for msg_type in profile.message_share:
        print(
            f"  {msg_type:<12} {profile.message_share[msg_type]:>6.1%}  /  "
            f"{profile.bit_share.get(msg_type, 0):>6.1%}"
        )
    if not profile.phase_bound_holds:
        print("\nWARNING: phase bound exceeded (protocol bug)")
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    check_output_path("--out", args.out)
    try:
        text = build_report(quick=args.quick, only=args.names or None)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _pooled_table(args: argparse.Namespace, experiment: str, kwargs: dict, **opts):
    """One ``experiment`` job per ``--seeds`` seed, run as a one-shot
    campaign (``--workers`` / ``--timeout`` / ``--no-progress``, plus the
    :func:`~repro.campaign.runner.run_sweep` keywords ``opts``).

    Returns ``(seeds, run, table)``: ``table`` is the across-seed
    aggregate, or ``None`` once the failed jobs (or the aggregation error)
    went to stderr.
    """
    from repro.campaign.runner import ProgressReporter, run_sweep
    from repro.parallel.executor import JobFailure

    seeds = parse_seeds(args.seeds)
    run = run_sweep(
        experiment,
        seeds,
        kwargs,
        workers=args.workers,
        timeout=args.timeout,
        progress=None if args.no_progress else ProgressReporter(),
        **opts,
    )
    failures = [r for r in run.results if not r.ok]
    for failure in failures:
        print(
            f"FAILED {failure.job.label()}: {failure.status} ({failure.error})",
            file=sys.stderr,
        )
    table = None
    if not failures:
        try:
            table = run.table
        except (ValueError, JobFailure) as exc:
            print(f"aggregation failed: {exc}", file=sys.stderr)
    return seeds, run, table


def _cmd_sweep(args: argparse.Namespace) -> int:
    check_output_path("--obs-out", args.obs_out)
    kwargs = QUICK_SWEEP_KWARGS.get(args.exp, {}) if args.quick else {}
    seeds, run, table = _pooled_table(
        args,
        args.exp,
        kwargs,
        cache_dir=None if args.no_cache else args.cache_dir,
        max_attempts=args.max_attempts,
        backoff=args.backoff,
    )
    if args.obs_out:
        _write_job_timeline(args.obs_out, args.exp, run)
    retried = [attempts for attempts in run.attempts if attempts > 1]
    if retried:
        print(
            f"retries: {len(retried)} job(s) took multiple attempts "
            f"(max {max(retried)})",
            file=sys.stderr,
        )
    if table is None:
        return 1
    print(f"=== {args.exp} x {len(seeds)} seeds ===")
    print(render_table(*table))
    return 0


def _write_job_timeline(path: str, experiment: str, run) -> None:
    """Persist a sweep's job lifecycle as an observability timeline.

    One ``job`` event per sweep job, in submission order: ``node`` holds
    the seed, ``value`` the terminal status plus wall time.  The same
    ``trace summarize`` / ``trace diff`` tooling that reads run timelines
    reads these.
    """
    from repro.obs import Timeline, write_timeline
    from repro.obs.events import RunEvent

    events = [
        RunEvent(
            step=index,
            kind="job",
            node=result.job.seed,
            msg_type=result.job.experiment,
            value={
                key: value
                for key, value in {
                    "status": result.status,
                    "wall_s": round(result.wall, 6) if result.wall is not None else None,
                    "attempts": attempts if attempts > 1 else None,
                    "error": result.error,
                }.items()
                if value is not None
            },
        )
        for index, (result, attempts) in enumerate(zip(run.results, run.attempts))
    ]
    timeline = Timeline(
        meta={"command": "sweep", "experiment": experiment, "jobs": len(events)},
        events=events,
    )
    write_timeline(path, timeline)
    print(f"wrote {path} ({len(events)} job events)")


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.harness import CHAOS_HEADERS
    from repro.faults.scenarios import FAULT_SCENARIOS, RECOVERY_SCENARIOS

    if args.recovery and args.raw:
        raise UsageError(
            "--recovery and --raw are incompatible: crash-recovery needs "
            "the reliable transport (epoch fencing lives in ReliableNode)"
        )
    if args.scenarios.strip() == "all":
        if args.recovery:
            scenarios = tuple(RECOVERY_SCENARIOS)
        elif args.raw:
            # Recovery scenarios hard-require the reliable transport, so a
            # raw sweep over "all" silently narrows to the rest.
            scenarios = tuple(
                s for s in FAULT_SCENARIOS if s not in RECOVERY_SCENARIOS
            )
        else:
            scenarios = tuple(FAULT_SCENARIOS)
    else:
        scenarios = tuple(s.strip() for s in args.scenarios.split(",") if s.strip())
        unknown = [s for s in scenarios if s not in FAULT_SCENARIOS]
        if unknown:
            raise UsageError(
                f"unknown scenarios {unknown}; choose from "
                f"{', '.join(sorted(FAULT_SCENARIOS))}"
            )
        needs_transport = [s for s in scenarios if s in RECOVERY_SCENARIOS]
        if args.raw and needs_transport:
            raise UsageError(
                f"scenarios {needs_transport} are crash-recovery "
                "scenarios and cannot run with --raw"
            )
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    if not variants or any(v not in _RUNNERS for v in variants):
        raise UsageError(f"bad --variants {args.variants!r}")
    check_output_path("--bench-out", args.bench_out)
    check_output_path("--obs-out", args.obs_out)

    kwargs = {
        "scenarios": scenarios,
        "variants": variants,
        "n": args.n,
        "family": args.family,
        "reliable": not args.raw,
        "budget_factor": args.budget_factor,
    }
    # A temporary store: chaos runs are the thing under test, and stale
    # verdicts after a protocol change would defeat the point.
    seeds, _run, table = _pooled_table(args, "chaos", kwargs)
    if table is None:
        return 1
    headers, rows = table

    transport = "raw (no recovery)" if args.raw else "reliable transport (sr)"
    print(
        f"=== chaos: {len(scenarios)} scenarios x {len(variants)} variants "
        f"x {len(seeds)} seeds, n={args.n} {args.family}, {transport} ==="
    )
    print(render_table(headers, rows))
    safe_col = CHAOS_HEADERS.index("safe")
    quiesced_col = CHAOS_HEADERS.index("quiesced")
    props_col = CHAOS_HEADERS.index("props")

    def clean(cell: object) -> bool:
        # The 0/1 flag columns survive aggregation as plain numbers only
        # when every seed agreed; a mixed column comes back as the string
        # "mean [min, max]", which by construction means rate < 1.
        return isinstance(cell, (int, float)) and cell >= 1.0

    unsafe = [row for row in rows if not clean(row[safe_col])]
    degraded = [
        row
        for row in rows
        if not clean(row[quiesced_col]) or not clean(row[props_col])
    ]
    print(
        f"degradation: {len(degraded)}/{len(rows)} scenario rows lost "
        "quiescence or properties on some seed "
        "(quiesced/safe/props columns are across-seed rates)"
    )
    if args.bench_out:
        payload = {
            "headers": headers,
            "rows": rows,
            "seeds": seeds,
            "params": {k: list(v) if isinstance(v, tuple) else v for k, v in kwargs.items()},
        }
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.bench_out}")
    if args.obs_out:
        # One representative cell, re-run serially with the recorder on:
        # sweeps fan out across processes, so per-trial events cannot be
        # collected from the pool; the first (scenario, variant, seed)
        # cell is deterministic and cheap to replay.
        from repro.faults.harness import run_chaos_trial
        from repro.obs import Recorder, timeline_from_run, write_timeline

        recorder = Recorder()
        trial = run_chaos_trial(
            scenarios[0],
            variants[0],
            args.family,
            args.n,
            seeds[0],
            reliable=not args.raw,
            budget_factor=args.budget_factor,
            recorder=recorder,
        )
        timeline = timeline_from_run(
            recorder,
            meta={
                "command": "chaos",
                "scenario": scenarios[0],
                "variant": variants[0],
                "family": args.family,
                "n": args.n,
                "seed": seeds[0],
                "outcome": trial.outcome,
            },
        )
        write_timeline(args.obs_out, timeline)
        print(
            f"wrote {args.obs_out} ({len(timeline.events)} events, "
            f"outcome={trial.outcome})"
        )
    if unsafe:
        print(
            f"SAFETY VIOLATIONS in {len(unsafe)} scenario rows -- this is a bug.",
            file=sys.stderr,
        )
        return 1
    print("safety: clean (all stepwise invariants held on every seed)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import read_timeline, summarize_timeline

    if args.trace_command == "record":
        return _trace_record(args)
    if args.trace_command == "summarize":
        try:
            timeline = read_timeline(args.timeline)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {args.timeline}: {exc}")
        print(summarize_timeline(timeline))
        if not timeline.events:
            print("timeline holds no events", file=sys.stderr)
            return 1
        return 0
    # diff
    from repro.obs import diff_timelines

    try:
        timeline_a = read_timeline(args.timeline_a)
        timeline_b = read_timeline(args.timeline_b)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read timeline: {exc}")
    identical, report = diff_timelines(timeline_a, timeline_b)
    print(report)
    return 0 if identical else 1


def _trace_record(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table as _render
    from repro.obs import (
        Profiler,
        Recorder,
        attach_metrics,
        timeline_from_run,
        write_timeline,
    )

    recorder = Recorder()
    profiler = Profiler() if args.profile else None
    meta = {
        "variant": args.variant,
        "family": args.family,
        "n": args.n,
        "seed": args.seed,
    }
    if args.scenario is not None:
        from repro.faults.harness import run_chaos_trial
        from repro.faults.scenarios import FAULT_SCENARIOS

        if args.scenario not in FAULT_SCENARIOS:
            raise UsageError(
                f"unknown scenario {args.scenario!r}; choose from "
                f"{', '.join(sorted(FAULT_SCENARIOS))}"
            )
        if profiler is not None:
            print(
                "--profile needs direct simulator access; ignored with "
                "--scenario",
                file=sys.stderr,
            )
        trial = run_chaos_trial(
            args.scenario, args.variant, args.family, args.n, args.seed,
            recorder=recorder,
        )
        meta.update(scenario=args.scenario, outcome=trial.outcome)
        metrics = None
    else:
        from repro.core.runner import build_simulation

        graph = build_family(args.family, args.n, seed=args.seed)
        sim, _nodes = build_simulation(
            graph, args.variant, seed=args.seed, obs=recorder
        )
        metrics_kwargs = {} if args.cadence is None else {"cadence": args.cadence}
        metrics = attach_metrics(sim, recorder, **metrics_kwargs)
        if profiler is not None:
            profiler.instrument(sim)
        sim.run()
        metrics.finish(sim.steps)
        meta["steps"] = sim.steps
    timeline = timeline_from_run(recorder, metrics, meta=meta)
    write_timeline(args.out, timeline)
    print(
        f"wrote {args.out} ({len(timeline.events)} events, "
        f"{len(timeline.samples)} samples)"
    )
    if profiler is not None and args.scenario is None:
        headers, rows = profiler.report()
        print("\nhot paths:")
        print(_render(headers, rows))
    return 0


def _parse_mix(spec: str):
    from repro.service import EventMix

    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--mix wants JOIN:LINK:PROBE, got {spec!r}")
    try:
        mix = EventMix(*(float(part) for part in parts))
        mix.validate()
    except ValueError as exc:
        raise UsageError(f"bad --mix {spec!r}: {exc}")
    return mix


def _parse_burst(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--burst wants EVERY:LEN:FACTOR, got {spec!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --burst {spec!r}: {exc}")


def _parse_faults(spec: str, graph, seed: int):
    """``loss=P,dup=P,crash=K@STEP`` -> a window-relative FaultPlan."""
    from repro.faults import CrashSpec, FaultPlan
    from repro.faults.scenarios import pick_crash_victims

    loss = duplicate = 0.0
    crashes = ()
    try:
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            if key == "loss":
                loss = float(value)
            elif key == "dup":
                duplicate = float(value)
            elif key == "crash":
                count_text, _, at_text = value.partition("@")
                count, at_step = int(count_text), int(at_text or 0)
                crashes = tuple(
                    CrashSpec(victim, at_step)
                    for victim in pick_crash_victims(graph, count, seed)
                )
            else:
                raise UsageError(f"unknown --faults key {key!r} in {spec!r}")
        return FaultPlan(loss=loss, duplicate=duplicate, crashes=crashes)
    except ValueError as exc:
        raise UsageError(f"bad --faults {spec!r}: {exc}")


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.core.adhoc import AdhocNetwork
    from repro.obs.metrics import DEFAULT_CADENCE
    from repro.obs.timeline import write_timeline
    from repro.service import (
        ServiceDriver,
        amortized_table,
        build_workload,
        service_timeline,
        slo_table,
        summarize_service,
    )

    # Every spec is parsed and validated before anything prints.
    kind = args.workload
    kwargs = {}
    if args.mix is not None:
        kwargs["mix"] = _parse_mix(args.mix)
    if args.burst is not None:
        kind = "bursty"
        every, length, factor = _parse_burst(args.burst)
        kwargs.update(burst_every=every, burst_len=length, burst_factor=factor)
    graph = build_family(args.family, args.n, seed=args.seed)
    try:  # rate, duration and mix are checked by now: the error is the burst's
        workload = build_workload(
            kind, graph, rate=args.rate, duration=args.duration, seed=args.seed,
            **kwargs,
        )
    except ValueError as exc:
        raise UsageError(f"bad --burst {args.burst!r}: {exc}")
    plan = None
    if args.faults is not None:
        plan = _parse_faults(args.faults, graph, args.fault_seed)

    print(workload.describe())
    if plan is not None:
        print(f"steady-state faults: {plan.describe()} (transport=sr)")

    net = AdhocNetwork(graph, seed=args.seed, reliable=plan is not None)
    driver = ServiceDriver(
        net,
        workload,
        step_budget=args.step_budget,
        cadence=args.cadence if args.cadence is not None else DEFAULT_CADENCE,
        verify_on_reconvergence=args.verify,
        faults=plan,
        fault_seed=args.fault_seed,
    )
    report = driver.run()
    summary = summarize_service(report)

    print()
    print(render_table(*slo_table(report, summary)))
    if plan is not None:
        injected = {k: v for k, v in report.fault_counts.items() if v}
        totals = report.transport_totals
        print()
        print(
            "fault injection: "
            + (", ".join(f"{k}={v}" for k, v in sorted(injected.items())) or "none hit")
        )
        print(
            f"transport: {totals.get('retransmissions', 0)} retransmissions, "
            f"{totals.get('nacks_sent', 0)} nacks, "
            f"{totals.get('undeliverable', 0)} undeliverable"
        )
    if report.curve:
        print()
        print("Amortized cost curve (Theorem 8):")
        print(render_table(*amortized_table(report)))
    if args.obs_out:
        path = write_timeline(args.obs_out, service_timeline(report))
        print(f"\ntimeline written to {path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.cli import cmd_campaign

    return cmd_campaign(args)


def _cmd_families(_args: argparse.Namespace) -> int:
    for name in sorted(GRAPH_FAMILIES):
        example = build_family(name, 64, seed=0)
        print(f"  {name:<16} e.g. n={example.n:<5} |E0|={example.n_edges}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "experiments": _cmd_experiments,
        "compare": _cmd_compare,
        "lower-bound": _cmd_lower_bound,
        "families": _cmd_families,
        "profile": _cmd_profile,
        "report": _cmd_report,
        "sweep": _cmd_sweep,
        "chaos": _cmd_chaos,
        "trace": _cmd_trace,
        "serve-sim": _cmd_serve_sim,
        "campaign": _cmd_campaign,
    }[args.command]
    try:
        check_bounds(args)
        return handler(args)
    except (UsageError, CampaignError) as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
