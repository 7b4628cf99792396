"""The six benchmark workloads and the per-layer ledger read off their spans.

An *iteration* is a fixed unit of work derived only from the seed, so
its simulated statistics (steps, messages, bits, leaders) repeat exactly;
host time is what varies.  Every workload calls the library through
module attributes (``experiments.build_family`` rather than a name
imported into this file) so that the traced pass, which replaces those
attributes by span wrappers (:mod:`spans`), sees the benchmark's own
calls too.  The untraced pass runs this file with nothing replaced.

Sizes were fitted to a 2-CPU box so that ``--seconds 10`` gives every
workload at least two timed repeats; README.md records where they differ
from the sizes first proposed and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis import experiments
from repro.campaign import report as campaign_report
from repro.campaign.runner import CampaignRunner
from repro.campaign.store import CampaignStore
from repro.core import adhoc, arrayloop, arraystate, generic, runner
from repro.core import result as core_result
from repro.faults import harness
from repro.obs.events import Recorder
from repro.obs.metrics import Histogram
from repro.parallel import jobs as parallel_jobs
from repro.parallel.executor import ParallelExecutor
from repro.service import driver as service_driver
from repro.service import slo as service_slo
from repro.service import workload as service_workload
from repro.sim.network import Simulator
from repro.sim.trace import MessageStats
from repro.verification import invariants

from spans import SpanRecorder

__all__ = ["WORKLOADS", "Outcome", "install_spans", "layer_metrics"]


@dataclass
class Outcome:
    """What one iteration produced, simulated statistics and verdicts."""

    #: simulator steps, ``None`` where the workload cannot see them
    steps: Optional[int] = None
    messages: int = 0
    bits: Optional[int] = None
    #: completed work units (discoveries, trials, service operations, cells)
    ops: int = 0
    #: wall-clock of the call ``ops_per_s`` divides by
    inner_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: sha256 over every simulated statistic of the iteration
    fingerprint: str = ""
    #: exact workload-specific statistics the per-layer ledger reports
    extras: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base: sizes, verdict accounting, fingerprinting."""

    name = ""
    #: full-size and toy (self-check) parameters
    FULL: Dict[str, Any] = {}
    TOY: Dict[str, Any] = {}
    #: parameters of the warm-up instance (same code path, small)
    WARM: Dict[str, Any] = {}
    #: per-layer metric groups this workload exercises (see layer_metrics)
    groups: tuple = ()

    def __init__(self, seed: int, *, toy: bool = False, inject_failure: bool = False):
        self.seed = seed
        self.params = dict(self.TOY if toy else self.FULL)
        self.inject_failure = inject_failure

    # -- verdicts -------------------------------------------------------
    def _begin(self) -> Outcome:
        self._digest = hashlib.sha256()
        # The self-check's injected failure: the first verdict of every
        # iteration is forced to fail, whatever the library reported.
        self._poison = self.inject_failure
        return Outcome()

    def _tally(self, out: Outcome, what: str, attempted: int = 1, failed: int = 0) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        if self._poison:
            self._poison = False
            failed, what = max(failed, 1), f"injected failure ({what})"
        out.attempted += attempted
        out.failed += failed
        if failed and len(out.errors) < 8:
            out.errors.append(what)

    def _stamp(self, *items: Any) -> None:
        self._digest.update(repr(items).encode())

    def _finish(self, out: Outcome) -> Outcome:
        out.ops = out.attempted - out.failed
        out.fingerprint = self._digest.hexdigest()
        return out

    # -- interface ------------------------------------------------------
    def warmup(self) -> None:
        params, self.params = self.params, dict(self.WARM)
        try:
            self.iteration()
        finally:
            self.params = params

    def iteration(self) -> Outcome:
        raise NotImplementedError

    def extra_traced(self, outcomes: List[Outcome]) -> Dict[str, Any]:
        """Extra untimed iterations only the traced pass pays for."""
        return {}


def _stats_items(stats: MessageStats) -> tuple:
    return (
        tuple(sorted(stats.messages_by_type.items())),
        tuple(sorted(stats.bits_by_type.items())),
    )


class DiscoverSmall(Workload):
    """``count`` verified Generic discoveries at n=128 on the object entry.

    The inner loop of every experiment and campaign cell: per-run fixed
    costs (node objects, engine choice, column conversion, materialize,
    collect, verify) dominate and the delivery loop does little.
    """

    name = "discover-small"
    FULL = {"n": 128, "count": 128}
    TOY = {"n": 32, "count": 6}
    WARM = {"n": 64, "count": 8}
    groups = ("graphs", "loop", "object", "latency", "verify", "obs")

    def discover_one(self, s: int, recorder: Optional[Recorder] = None):
        graph = experiments.build_family("sparse-random", self.params["n"], s)
        if recorder is None:
            result = generic.run_generic(graph, seed=s)
        else:
            # run_generic has no obs seam; this is its body with one.
            sim, nodes = runner.build_simulation(
                graph, "generic", seed=s, obs=recorder
            )
            sim.run(runner.default_step_budget(graph))
            result = core_result.collect_result(graph, nodes, sim, "generic")
        invariants.verify_discovery(result, graph)
        return result

    def iteration(self, recorder_factory=None) -> Outcome:
        out = self._begin()
        out.steps = out.bits = 0
        start = time.perf_counter()
        for s in range(self.seed, self.seed + self.params["count"]):
            try:
                result = self.discover_one(
                    s, recorder_factory() if recorder_factory else None
                )
            except Exception as exc:  # a raising discovery is a failed one
                self._tally(out, f"seed {s}: {type(exc).__name__}: {exc}", failed=1)
                continue
            self._tally(out, f"seed {s}")
            out.steps += result.steps
            out.messages += result.total_messages
            out.bits += result.total_bits
            self._stamp(result.steps, _stats_items(result.stats), result.leaders)
        out.inner_s = time.perf_counter() - start
        return self._finish(out)

    def extra_traced(self, outcomes: List[Outcome]) -> Dict[str, Any]:
        # obs.record_overhead_ratio: the same iteration with a Recorder
        # attached (which drops every run to the object loop) over without.
        recorded = self.iteration(recorder_factory=Recorder).inner_s
        plain = min(o.inner_s for o in outcomes)
        return {"obs.record_overhead_ratio": recorded / plain}


class DiscoverAtScale(Workload):
    """One verified discovery straight off the graph (``run_at_scale``)."""

    family = ""
    variant = ""
    groups = ("graphs", "loop", "array")

    def discover_one(self):
        graph = experiments.build_family(self.family, self.params["n"], self.seed)
        return runner.run_at_scale(graph, self.variant, seed=self.seed)

    def iteration(self) -> Outcome:
        out = self._begin()
        start = time.perf_counter()
        try:
            result = self.discover_one()
        except Exception as exc:  # _verify_scale raises on a bad outcome
            self._tally(out, f"{type(exc).__name__}: {exc}", failed=1)
        else:
            self._tally(out, "run_at_scale not verified", failed=not result.verified)
            out.steps = result.steps
            out.messages = result.total_messages
            out.bits = result.total_bits
            self._stamp(result.steps, _stats_items(result.stats), result.leaders)
        out.inner_s = time.perf_counter() - start
        return self._finish(out)


class DiscoverScale(DiscoverAtScale):
    """Sparse Generic at n=30000: the delivery loop and the knowledge
    columns do almost all the work (the scaling cliff and the footprint)."""

    name = "discover-scale"
    family, variant = "sparse-random", "generic"
    FULL = {"n": 30000}
    TOY = {"n": 64}

    def warmup(self) -> None:
        # Full size on purpose: growing the heap to its working size makes
        # the first run up to 60% slower than the ones after it.
        self.iteration()


class DiscoverDenseAdhoc(DiscoverAtScale):
    """Dense Ad-hoc at n=20000 (about 300k edges): the same array engine
    used differently -- graph build is a third of the iteration, column
    fill and id-set unions carry n log n edges, and pointer-path
    search/release replaces conquer broadcasts."""

    name = "discover-dense-adhoc"
    family, variant = "dense-random", "adhoc"
    FULL = {"n": 20000}
    TOY = {"n": 64}
    WARM = {"n": 2000}


class ChaosLoss20(Workload):
    """``trials`` chaos trials under 20% loss on the object loop.

    Fault injector + selective-repeat transport + stepwise monitors; the
    array engine declines, and most steps are timer ticks that deliver
    nothing.  Time to quiescence is set by the last retransmission timer,
    so one trial's step count swings by +-12% with the seed: the
    iteration sums 16 small trials to keep ``wall_s`` steady across seeds.
    """

    name = "chaos-loss20"
    FULL = {"n": 128, "trials": 16}
    TOY = {"n": 24, "trials": 2}
    WARM = {"n": 32, "trials": 2}
    groups = ("graphs", "object", "monitor", "faults")

    def iteration(self) -> Outcome:
        out = self._begin()
        out.steps = out.bits = 0
        totals: Counter = Counter()
        start = time.perf_counter()
        for s in range(self.seed, self.seed + self.params["trials"]):
            trial = harness.run_chaos_trial(
                "loss-20",
                "generic",
                "sparse-random",
                self.params["n"],
                s,
                monitor_every=64,
            )
            self._tally(
                out,
                f"seed {s}: outcome {trial.outcome} {trial.detail}",
                failed=not (trial.outcome == "ok" and trial.properties_ok),
            )
            out.steps += trial.steps
            out.messages += trial.total_messages
            out.bits += trial.total_bits
            counted = {
                "overhead_messages": trial.overhead_messages,
                "retransmissions": trial.retransmissions,
                "nacks": trial.nacks,
                "undeliverable": trial.undeliverable,
                "injected": trial.faults_injected,
                "wakes": trial.n,
            }
            totals.update(counted)
            self._stamp(
                trial.steps,
                trial.total_messages,
                trial.total_bits,
                trial.outcome,
                sorted(counted.items()),
                sorted(trial.fault_counts.items()),
            )
        out.inner_s = time.perf_counter() - start
        out.extras = dict(totals)
        return self._finish(out)


class ServePoisson(Workload):
    """One steady-state service run: Poisson arrivals at 50/kstep.

    Open loop in *virtual* time (arrivals are scheduled regardless of
    progress; probe latency counts virtual steps from injection), closed
    on the host: one client, the next step runs when the last returned.
    """

    name = "serve-poisson"
    FULL = {"n": 1024, "duration": 200_000}
    TOY = {"n": 32, "duration": 2000}
    WARM = {"n": 128, "duration": 5000}
    groups = ("graphs", "loop", "object", "service")

    def iteration(self) -> Outcome:
        out = self._begin()
        graph = experiments.build_family("sparse-random", self.params["n"], self.seed)
        network = adhoc.AdhocNetwork(graph, seed=self.seed)
        load = service_workload.build_workload(
            "poisson",
            graph,
            rate=50.0,
            duration=self.params["duration"],
            seed=self.seed,
        )
        drive_start = time.perf_counter()
        report = service_driver.ServiceDriver(network, load).run()
        out.inner_s = time.perf_counter() - drive_start
        summary = service_slo.summarize_service(report)

        lost = summary.probes_incomplete + summary.probes_dropped
        self._tally(
            out,
            f"{lost} probes lost, budget_exhausted={report.budget_exhausted}",
            attempted=summary.operations,
            failed=summary.operations if report.budget_exhausted else lost,
        )
        stats = network.sim.stats
        out.steps = report.warmup_steps + report.steps_executed
        out.messages = stats.total_messages
        out.bits = stats.total_bits
        histogram = sorted(Counter(p.latency for p in report.probes).items(), key=repr)
        self._stamp(
            out.steps,
            _stats_items(stats),
            sorted(report.injected.items()),
            histogram,
        )
        out.extras = {
            "ops": summary.operations,
            "service_steps": report.steps_executed,
            "probes_deferred": summary.deferrals,
            "probes_incomplete": summary.probes_incomplete,
            "latency_p50": summary.latency_p50,
            "latency_p95": summary.latency_p95,
            "latency_p99": summary.latency_p99,
        }
        return self._finish(out)


class CampaignGrid(Workload):
    """One fresh campaign over the near-linear sweep in a temp dir.

    The harness spine: job keys -> fork pool -> spool -> SQLite commit ->
    report fold.  Cells are about 90 ms so harness overhead shows.  The
    write path (``CampaignRunner.run``) and the read path (fold + report)
    are timed separately.
    """

    name = "campaign-grid"
    FULL = {"cells": 48, "ns": (64, 128, 256)}
    TOY = {"cells": 8, "ns": (16, 32)}
    WARM = {"cells": 4, "ns": (32,)}
    groups = ("parallel", "campaign")

    def __init__(self, seed: int, **kwargs: Any):
        super().__init__(seed, **kwargs)
        self.workers = min(2, os.cpu_count() or 1)

    def iteration(self, workers: Optional[int] = None) -> Outcome:
        workers = self.workers if workers is None else workers
        cells = self.params["cells"]
        out = self._begin()
        # TMPDIR points inside the checkout (run.py sets it); the store,
        # its WAL and the executor's spool all die with this directory.
        with tempfile.TemporaryDirectory(prefix="campaign-") as tmp:
            path = os.path.join(tmp, "campaign.db")
            jobs = parallel_jobs.sweep_jobs(
                "near-linear",
                range(self.seed, self.seed + cells),
                {"ns": self.params["ns"]},
            )
            store = CampaignStore.create(path, jobs)
            try:
                run_start = time.perf_counter()
                ran = CampaignRunner(
                    store, workers=workers, handle_signals=False
                ).run()
                out.inner_s = time.perf_counter() - run_start
                campaign_report.fold_done_cells(store)
                tables = campaign_report.report_tables(store)

                done = list(store.cells("done"))
                audit = store.compute_stats()
                db_bytes = sum(
                    os.path.getsize(path + suffix)
                    for suffix in ("", "-wal", "-shm")
                    if os.path.exists(path + suffix)
                )
            finally:
                store.close()
        out.messages = sum(cell.result["messages"] or 0 for cell in done)
        recomputed = sum(1 for cell in done if cell.compute_count != 1)
        clean = ran.drained and audit == {"computed": cells, "redundant": 0} and tables
        self._tally(
            out,
            f"{len(done)}/{cells} cells done, {recomputed} recomputed, audit {audit}",
            attempted=cells,
            failed=max(cells - len(done) + recomputed, 0 if clean else 1),
        )
        self._stamp(json.dumps(tables, sort_keys=True), out.messages)
        out.extras = {"workers": workers, "db_bytes": db_bytes}
        return self._finish(out)

    def extra_traced(self, outcomes: List[Outcome]) -> Dict[str, Any]:
        # parallel.serial_cells_per_s / parallel.speedup: the same grid on
        # one in-process worker.
        serial = self.iteration(workers=1)
        return {"serial_cells_per_s": serial.ops / serial.inner_s}


WORKLOADS = {
    cls.name: cls
    for cls in (
        DiscoverSmall,
        DiscoverScale,
        DiscoverDenseAdhoc,
        ChaosLoss20,
        ServePoisson,
        CampaignGrid,
    )
}


# ----------------------------------------------------------------------
# The traced pass: where the wrappers go and what is read off them
# ----------------------------------------------------------------------
def install_spans(rec: SpanRecorder, counts: Counter, workload: Workload) -> None:
    """Replace every layer boundary the ledger reads by a span wrapper.

    ``counts`` collects what crosses those boundaries (steps returned,
    engine chosen, edges built, bytes pickled), keyed like the metrics.
    """

    def graph_built(graph, _args, _kwargs):
        counts["graphs.edges"] += graph.n_edges
        counts["graphs.max_n"] = max(counts["graphs.max_n"], graph.n)

    def loop_ran(executed, _args, _kwargs):
        counts["core.loop_steps"] += executed

    def sim_ran(executed, args, _kwargs):
        counts["sim.run_steps"] += executed
        counts["core.engine_runs." + str(args[0]._last_run_path)] += 1

    def executor_ran(results, args, _kwargs):
        counts["parallel.cell_compute_s"] += sum(r.wall for r in results)
        counts["parallel.job_bytes"] += sum(len(pickle.dumps(j)) for j in args[1])
        counts["parallel.result_bytes"] += sum(len(pickle.dumps(r)) for r in results)
        counts["parallel.results"] += len(results)

    fn, cls = rec.wrap_function, rec.wrap
    fn("repro.analysis.experiments", "build_family", "graphs.build", graph_built)

    cls(arraystate.IdSpace, "__init__", "core.idspace")
    cls(arraystate.ArrayCore, "__init__", "core.fill")
    cls(arraystate.ArrayCore, "run_loop", "core.loop", loop_ran)
    cls(MessageStats, "record_indexed", "core.fold")
    fn("repro.core.arraystate", "_graph_components", "core.components")
    fn("repro.core.arraystate", "_verify_scale", "core.verify")
    fn("repro.core.arraystate", "run_graph", "core.run_graph")

    fn("repro.core.runner", "build_simulation", "core.build_sim")
    cls(Simulator, "run", "sim.run", sim_ran)
    fn("repro.core.arraystate", "_build_from_sim", "core.convert")
    fn("repro.core.arraystate", "_materialize_to_sim", "core.materialize")
    fn("repro.core.result", "collect_result", "core.collect")
    discovers = next(
        (c for c in type(workload).__mro__ if "discover_one" in vars(c)), None
    )
    if discovers is not None:
        cls(discovers, "discover_one", "discovery")

    fn("repro.verification.invariants", "verify_discovery", "verification.verify")
    fn("repro.verification.monitor", "check_safety_now", "verification.monitor")

    fn("repro.faults.harness", "run_chaos_trial", "faults.trial")

    fn("repro.service.workload", "build_workload", "service.build_workload")
    cls(adhoc.AdhocNetwork, "run", "service.warmup")
    cls(service_driver.ServiceDriver, "run", "service.drive")
    fn("repro.service.slo", "summarize_service", "service.summarize")

    fn("repro.parallel.jobs", "sweep_jobs", "parallel.jobs_key")
    cls(parallel_jobs.Job, "key", "parallel.jobs_key")
    cls(ParallelExecutor, "run", "parallel.executor_run", executor_ran)

    cls(CampaignStore, "create", "campaign.create")
    cls(CampaignStore, "claim", "campaign.claim")
    cls(CampaignStore, "complete", "campaign.complete")
    cls(CampaignStore, "heartbeat", "campaign.heartbeat")
    fn("repro.campaign.report", "fold_done_cells", "campaign.report")
    fn("repro.campaign.report", "report_tables", "campaign.report")


#: ``metric -> span name`` for the metrics that are simply a span's total
#: seconds in the fastest timed iteration.
_SPAN_SECONDS = {
    "graphs": {"graphs.build_s": "graphs.build"},
    "loop": {"core.loop_s": "core.loop"},
    "array": {
        "core.idspace_s": "core.idspace",
        "core.fill_s": "core.fill",
        "core.fold_s": "core.fold",
        "core.components_s": "core.components",
        "core.verify_s": "core.verify",
    },
    "object": {
        "core.build_sim_s": "core.build_sim",
        "sim.run_s": "sim.run",
        "core.convert_s": "core.convert",
        "core.materialize_s": "core.materialize",
        "core.collect_s": "core.collect",
    },
    "verify": {"verification.verify_s": "verification.verify"},
    "monitor": {"verification.monitor_s": "verification.monitor"},
    "faults": {"faults.trial_s": "faults.trial"},
    "service": {
        "service.build_workload_s": "service.build_workload",
        "service.warmup_s": "service.warmup",
        "service.drive_s": "service.drive",
        "service.summarize_s": "service.summarize",
    },
    "parallel": {
        "parallel.jobs_key_s": "parallel.jobs_key",
        "parallel.executor_run_s": "parallel.executor_run",
    },
    "campaign": {
        "campaign.create_s": "campaign.create",
        "campaign.claim_s": "campaign.claim",
        "campaign.complete_s": "campaign.complete",
        "campaign.heartbeat_s": "campaign.heartbeat",
        "campaign.report_s": "campaign.report",
    },
}

#: ``metric -> span name`` for that iteration's call counts.
_SPAN_CALLS = {
    "object": {"sim.run_calls": "sim.run"},
    "monitor": {"verification.monitor_calls": "verification.monitor"},
    "parallel": {"parallel.executor_calls": "parallel.executor_run"},
    "campaign": {
        "campaign.claim_calls": "campaign.claim",
        "campaign.complete_calls": "campaign.complete",
    },
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: Workload,
    rec: SpanRecorder,
    counts: Counter,
    outcomes: List[Outcome],
    extra: Dict[str, Any],
    fastest: int,
    rss_growth_kb: float,
) -> Dict[str, Optional[float]]:
    """The per-layer ledger of one traced pass.

    Only the groups the workload exercises are reported; a metric whose
    span target no longer exists is ``None``.  Times are those of the
    ``fastest`` timed iteration -- the one ``wall_s`` reports -- so a
    workload's layer times add up to a wall-clock that was really
    measured.  What the wrappers counted is deterministic per iteration
    and averaged over the timed iterations.
    """
    per_iteration = rec.per_iteration()
    repeats = len(outcomes)
    last = outcomes[-1]
    out: Dict[str, Optional[float]] = {}

    def seconds(span: str, which: str = "total") -> Optional[float]:
        if span in rec.absent:
            return None
        totals = per_iteration.get(span, {}).get(fastest)
        return getattr(totals, which) if totals is not None else 0.0

    def per_repeat(key: str) -> float:
        return counts[key] / repeats

    for group in workload.groups:
        for metric, span in _SPAN_SECONDS.get(group, {}).items():
            out[metric] = seconds(span)
        for metric, span in _SPAN_CALLS.get(group, {}).items():
            out[metric] = seconds(span, "calls")

    groups = set(workload.groups)
    if "graphs" in groups:
        out["graphs.edges"] = per_repeat("graphs.edges")
    if "loop" in groups:
        loop_s = out["core.loop_s"]
        out["core.loop_steps_per_s"] = (
            None if loop_s is None else _ratio(per_repeat("core.loop_steps"), loop_s)
        )
    if "array" in groups:
        out["core.run_graph_self_s"] = seconds("core.run_graph", "self_time")
        out["core.rss_per_node_kb"] = _ratio(rss_growth_kb, counts["graphs.max_n"])
    if "object" in groups:
        calls = out["sim.run_calls"]
        out["sim.steps_per_run_call"] = (
            None if calls is None else _ratio(per_repeat("sim.run_steps"), calls)
        )
        for engine in ("array", "fast", "legacy"):
            key = "core.engine_runs." + engine
            out[key] = None if "sim.run" in rec.absent else per_repeat(key)
    if "latency" in groups:
        latency_ms = Histogram()
        for duration in rec.durations("discovery"):
            latency_ms.observe(1e3 * duration)
        out["core.discovery_ms_p50"] = latency_ms.percentile(50)
        out["core.discovery_ms_p99"] = latency_ms.percentile(99)
    if "faults" in groups:
        x = last.extras
        out["faults.injected"] = x["injected"]
        out["faults.retransmissions"] = x["retransmissions"]
        out["faults.nacks"] = x["nacks"]
        out["faults.undeliverable"] = x["undeliverable"]
        out["faults.overhead_share"] = _ratio(x["overhead_messages"], last.messages)
        out["faults.goodput_ratio"] = _ratio(
            last.messages - x["overhead_messages"], last.messages
        )
        out["faults.idle_step_share"] = _ratio(
            last.steps - last.messages - x["wakes"], last.steps
        )
    if "service" in groups:
        x = last.extras
        out["service.ops"] = x["ops"]
        out["service.steps_per_op"] = _ratio(x["service_steps"], x["ops"])
        out["service.probes_deferred"] = x["probes_deferred"]
        out["service.probes_incomplete"] = x["probes_incomplete"]
        out["service.latency_p50_steps"] = x["latency_p50"]
        out["service.latency_p95_steps"] = x["latency_p95"]
        out["service.latency_p99_steps"] = x["latency_p99"]
    if "parallel" in groups:
        x = last.extras
        run_s = out["parallel.executor_run_s"]
        compute = per_repeat("parallel.cell_compute_s")
        out["parallel.pickle_bytes_per_job"] = _ratio(
            counts["parallel.job_bytes"], counts["parallel.results"]
        )
        out["parallel.pickle_bytes_per_result"] = _ratio(
            counts["parallel.result_bytes"], counts["parallel.results"]
        )
        out["parallel.cell_compute_s"] = compute
        out["parallel.efficiency"] = (
            None if run_s is None else _ratio(compute, x["workers"] * run_s)
        )
        cells_per_s = max(o.ops / o.inner_s for o in outcomes)
        out["parallel.serial_cells_per_s"] = extra["serial_cells_per_s"]
        out["parallel.speedup"] = _ratio(cells_per_s, extra["serial_cells_per_s"])
    if "campaign" in groups:
        out["campaign.db_bytes"] = last.extras["db_bytes"]
    if "obs" in groups:
        out["obs.record_overhead_ratio"] = extra["obs.record_overhead_ratio"]

    out["core.c_loop_loaded"] = 1 if arrayloop.load() is not None else 0
    if last.steps is not None:
        out["sim.steps"] = last.steps
    if last.bits is not None:
        out["sim.bits"] = last.bits
    out["trace.spans"] = rec.timed_span_count() / repeats
    return out
