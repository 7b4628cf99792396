"""One workload, one pass, in a process of its own (spawned by run.py).

Fresh process per pass so that ``peak_rss_mb``, heap state and import
cost belong to one workload.  Order of business: import the library,
load the C loop, warm up -- that is ``setup_s`` -- then timed repeats of
the same iteration until ``--seconds`` have passed (at least two, so the
simulated statistics can be compared between repeats), then, in the
traced pass only, the extra iterations some per-layer metrics need.
The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from collections import Counter

#: fewest timed repeats: the fingerprint check needs two to compare
MIN_REPEATS = 2


def _peak_rss_mb() -> float:
    """High-water RSS in MiB, forked pool workers included."""
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return usage / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's time.monotonic() when it spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    from repro.core import arrayloop

    import workloads
    from spans import SpanRecorder

    arrayloop.load()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, toy=args.toy, inject_failure=args.inject_failure
    )
    rss_after_import = _peak_rss_mb()
    workload.warmup()
    gc.collect()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = counts = None
    if args.trace:
        rec, counts = SpanRecorder(), Counter()
        workloads.install_spans(rec, counts, workload)

    outcomes, walls = [], []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        gc.collect()
        if rec is None:
            start = time.perf_counter()
            outcome = workload.iteration()
            walls.append(time.perf_counter() - start)
        else:
            with rec.timed_iteration():
                start = time.perf_counter()
                outcome = workload.iteration()
                walls.append(time.perf_counter() - start)
        outcomes.append(outcome)
        if len(walls) == 1:
            # Sampled at a fixed point of the program (warm-up plus one
            # iteration) so it does not depend on how many repeats fit.
            peak_rss_mb = _peak_rss_mb()

    first = outcomes[0]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "repeats": len(walls),
        "walls": walls,
        "inner_walls": [o.inner_s for o in outcomes],
        "steps": first.steps,
        "messages": first.messages,
        "bits": first.bits,
        "ops": first.ops,
        "latency_p99": first.extras.get("latency_p99"),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "errors": [e for o in outcomes for e in o.errors][:8],
        "fingerprint": first.fingerprint,
        "repeatable": all(o.fingerprint == first.fingerprint for o in outcomes),
        "peak_rss_mb": peak_rss_mb,
        "layers": None,
    }

    if rec is not None:
        extra = workload.extra_traced(outcomes)
        rec.restore()
        result["layers"] = workloads.layer_metrics(
            workload,
            rec,
            counts,
            outcomes,
            extra,
            fastest=walls.index(min(walls)),
            rss_growth_kb=1024.0 * (peak_rss_mb - rss_after_import),
        )
        result["absent"] = rec.absent
        # Every span nests under an iteration root, so self times must add
        # up to the traced wall; a gap means spans leaked or overlapped.
        self_total = sum(
            totals.self_time
            for by_iteration in rec.per_iteration().values()
            for totals in by_iteration.values()
        )
        result["self_time_gap"] = abs(self_total - sum(walls)) / sum(walls)
        if args.spans_out:
            rec.write(
                args.spans_out,
                meta={k: result[k] for k in ("workload", "seed", "repeats", "walls")},
            )

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
