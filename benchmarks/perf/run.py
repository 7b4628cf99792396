#!/usr/bin/env python3
"""The repository benchmark: one command, six workloads, every metric by name.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed S] [--seconds T]
                                   [--trace [0|1]] [--out FILE] [--trace-out FILE]
    python3 benchmarks/perf/run.py --compare A.json B.json

Workloads run strictly one at a time, each pass in a fresh subprocess
(worker.py).  Without ``--trace`` a workload gets an untraced pass (the
end-to-end metrics) plus two to six set-up-only processes, so ``setup_s``
is a median of three to seven.  With ``--trace`` the time is split between an untraced
reference pass and a separate traced pass whose spans give the per-layer
ledger; their wall-clock ratio is ``trace.overhead_ratio``.

Names, units, directions and bounds come from ``BENCHMARK.json`` at the
repository root; README.md in this directory says what each one means.
For every workload the last line printed is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any output failed verification.

Everything the benchmark writes -- the compiled C loop, campaign stores,
spools -- goes under ``.bench_build/`` in the checkout and the scratch
part is removed on exit; ``--out`` and ``--trace-out`` are the only
other files written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"

#: a worker that has not answered by then is killed and the run fails
WORKER_TIMEOUT_S = 160
#: set-up-only processes per untraced run, besides the measuring one: at
#: least the first number, then more while they have cost less than
#: SETUP_PROBE_BUDGET_S in all, up to the second number
SETUP_PROBES = (2, 6)
SETUP_PROBE_BUDGET_S = 1.5
#: largest accepted gap between summed span self times and traced wall
SELF_TIME_TOLERANCE = 0.05
#: simulated statistics: identical between two runs of one seed, or a bug
EXACT = ("sim_messages", "sim.steps", "sim.bits", "service.latency_p99_steps", "failed")


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(c_loop_loaded: bool) -> Dict[str, Any]:
    return {
        "cpus": {
            "nproc": os.cpu_count(),
            "sched_getaffinity": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "core.c_loop_loaded": c_loop_loaded,
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON", ""),
    }


def preflight() -> bool:
    """Build (first run in a checkout) and load the C loop, untimed.

    Done in the parent so a first-ever ``cc`` run is never inside a
    worker's ``setup_s``.  Returns whether the C loop is in use.
    """
    BUILD.mkdir(exist_ok=True)
    os.environ["REPRO_ARRAYLOOP_CACHE"] = str(BUILD / "arrayloop")
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import arrayloop

    return arrayloop.load() is not None


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
def _spawn(scratch: str, workload: str, seed: int, seconds: float, *flags: str) -> Dict[str, Any]:
    """Run one worker pass to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = scratch
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--t0", repr(time.monotonic()), *flags,
    ]
    # Own session: a timeout must take the campaign's pool workers too.
    proc = subprocess.Popen(
        command, env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: worker exceeded {WORKER_TIMEOUT_S}s, killed")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(
    scratch: str,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    worker_flags: List[str],
    spans_out: Optional[str],
) -> Dict[str, Any]:
    """All passes of one workload, folded into one record."""
    share = seconds / 2 if trace else seconds
    plain = _spawn(scratch, workload, seed, share, *worker_flags)
    # The fastest repeat, not the median: the work is deterministic and the
    # noise of a shared box is one-sided (README.md, "Why the minimum").
    wall_s = min(plain["walls"])
    problems = list(plain["errors"])
    if not plain["repeatable"]:
        problems.append("simulated statistics differ between repeats")
    record: Dict[str, Any] = {
        "seed": seed,
        "repeats": plain["repeats"],
        "wall_median_s": statistics.median(plain["walls"]),
        "wall_max_s": max(plain["walls"]),
        "fingerprint": plain["fingerprint"],
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "exact": {
            "sim.steps": plain["steps"],
            "sim.bits": plain["bits"],
            "service.latency_p99_steps": plain["latency_p99"],
        },
    }

    if not trace:
        setups = [plain["setup_s"]]
        fewest, most = SETUP_PROBES
        while len(setups) <= fewest or (
            len(setups) <= most and sum(setups[1:]) < SETUP_PROBE_BUDGET_S
        ):
            probe = _spawn(scratch, workload, seed, 0, "--setup-only", *worker_flags)
            setups.append(probe["setup_s"])
        record["setup_samples_s"] = setups
        record["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "ops_per_s": plain["ops"] / min(plain["inner_walls"]),
            "msgs_per_s": plain["messages"] / wall_s,
            "peak_rss_mb": plain["peak_rss_mb"],
            "sim_messages": plain["messages"],
        }
    else:
        flags = ["--trace", "1", *worker_flags]
        if spans_out:
            flags += ["--spans-out", spans_out]
        traced = _spawn(scratch, workload, seed, share, *flags)
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = min(traced["walls"]) / wall_s
        if plain["steps"] is not None:
            layers["sim.steps_per_s"] = plain["steps"] / wall_s
        record["per_layer"] = layers
        record["traced_repeats"] = traced["repeats"]
        record["absent_spans"] = traced["absent"]
        record["attempted"] += traced["attempted"]
        record["failed"] += traced["failed"]
        problems += traced["errors"]
        if not traced["repeatable"] or traced["fingerprint"] != plain["fingerprint"]:
            problems.append("simulated statistics differ under tracing")
        if traced["self_time_gap"] > SELF_TIME_TOLERANCE:
            problems.append(
                f"span self times miss the traced wall by {traced['self_time_gap']:.1%}"
            )

    record["problems"] = problems
    record["correct"] = record["failed"] == 0 and not problems
    return record


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def contract_line(spec: Dict[str, Any], record: Dict[str, Any], trace: bool) -> str:
    """The one-line result: every declared metric of the pass, as measured.

    A per-layer metric the workload does not exercise, or whose span
    target is gone (warned about separately), reads 0 here.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    values = record["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"]) or 0, "unit": m["unit"]}
        for m in declared
    }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(spec: Dict[str, Any], name: str, record: Dict[str, Any], trace: bool) -> None:
    print(f"\n== {name}  seed={record['seed']}  repeats={record['repeats']}"
          f"  wall median/max {record['wall_median_s']:.4f}/{record['wall_max_s']:.4f} s"
          f"  fail_ratio {record['failed']}/{record['attempted']}")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    for metric, value in record[section].items():
        shown = "null (span target absent)" if value is None else f"{value:.6g}"
        print(f"  {metric:<34} {shown:>14} {units.get(metric, '')}")
        if value is None:
            print(f"WARNING: {name}: {metric} is null -- the private name it "
                  "wraps no longer exists; fix benchmarks/perf/workloads.py",
                  file=sys.stderr)
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def compare(spec: Dict[str, Any], path_a: str, path_b: str) -> int:
    """Agreement of two result files of one commit and one seed."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    disagreements = 0
    print(f"{'workload':<22}{'metric':<28}{'A':>14}{'B':>14}{'rel.diff':>10}{'bound':>8}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        rec_a, rec_b = a["workloads"][name], b["workloads"][name]
        if rec_a["seed"] != rec_b["seed"]:
            raise SystemExit(f"{name}: seeds differ; agreement needs one seed")
        if rec_a["fingerprint"] != rec_b["fingerprint"]:
            disagreements += 1
            print(f"{name:<22}fingerprint of the simulated statistics differs  DISAGREE")
        rows = dict(rec_a.get("end_to_end", {}), **rec_a["exact"], failed=rec_a["failed"])
        other = dict(rec_b.get("end_to_end", {}), **rec_b["exact"], failed=rec_b["failed"])
        for metric, value_a in rows.items():
            value_b = other.get(metric)
            if value_a is None or value_b is None:
                continue
            exact = metric in EXACT
            diff = (value_b - value_a) / value_a if value_a else float(value_b != value_a)
            bad = value_a != value_b if exact else abs(diff) > bounds[metric]
            disagreements += bad
            print(f"{name:<22}{metric:<28}{value_a:>14.6g}{value_b:>14.6g}{diff:>+10.2%}"
                  f"{'exact' if exact else format(bounds[metric], '.0%'):>8}"
                  f"{'  DISAGREE' if bad else ''}")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (default: all six)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced pass: print the per-layer ledger")
    parser.add_argument("--out", help="write every record as one JSON document")
    parser.add_argument("--trace-out", help="write the spans of the traced passes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # For test_perf_selfcheck.py only.
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-failure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library under {ROOT / 'src'}: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)
    worker_flags = [
        flag for flag, on in (("--toy", args.toy), ("--inject-failure", args.inject_failure))
        if on
    ]

    c_loop = preflight()
    env = environment(c_loop)
    print("environment: " + json.dumps(env))
    if not c_loop:
        print("WARNING: the pure-Python delivery loop ran (no C compiler, or "
              "REPRO_PURE_PYTHON set): host-time numbers are NOT comparable "
              "with runs that used the C loop.", file=sys.stderr)

    records: Dict[str, Any] = {}
    spans: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="scratch-") as scratch:
        for name in names:
            spans_file = os.path.join(scratch, "spans.json") if args.trace_out else None
            record = measure(scratch, name, args.seed, seconds, trace, worker_flags, spans_file)
            records[name] = record
            if spans_file:
                spans[name] = json.loads(Path(spans_file).read_text())
            print_record(spec, name, record, trace)
            print(contract_line(spec, record, trace), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"env": env, "seconds": seconds, "trace": trace, "workloads": records},
            indent=1) + "\n")
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps({"env": env, "workloads": spans}) + "\n")
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
