"""Latency SLOs, throughput, and amortized cost from a service run.

Turns a :class:`~repro.service.driver.ServiceReport` into the numbers a
service operator (or Theorem 8) cares about:

* **latency percentiles** -- p50/p95/p99 virtual-time probe latency,
  computed from the exact discrete latency histogram via the
  :meth:`~repro.obs.metrics.Histogram.percentile` helper (nearest-rank,
  so integer step latencies stay integers);
* **throughput** -- completed probes and injected operations per 1000
  steps of the service clock;
* **reconvergence lag** -- per churn burst, steps past the window's
  close until the system next reached a quiescent census;
* **amortized cost** -- cumulative service messages per operation as the
  operation count grows, normalized by ``alpha(m, n + n-hat)``.  Theorem
  8 says the total work for ``m`` operations is ``O(m * alpha(m, n +
  n-hat))``; empirically the normalized column should stay bounded (and
  flatten) as ``m`` grows, which :func:`amortized_table` exposes row by
  row and ``tests/test_service_slo.py`` pins across scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import RunEvent
from repro.obs.timeline import Timeline
from repro.service.driver import ServiceReport
from repro.unionfind.ackermann import alpha

__all__ = [
    "SLOSummary",
    "summarize_service",
    "slo_table",
    "amortized_table",
    "service_timeline",
]

Rows = List[List[Any]]
Table = Tuple[List[str], Rows]


@dataclass(frozen=True)
class SLOSummary:
    """The headline numbers of one steady-state run."""

    operations: int
    probes_total: int
    probes_completed: int
    probes_immediate: int
    probes_incomplete: int
    probes_dropped: int
    deferrals: int
    latency_p50: Optional[float]
    latency_p95: Optional[float]
    latency_p99: Optional[float]
    latency_mean: Optional[float]
    latency_max: Optional[int]
    throughput_per_kstep: float
    offered_per_kstep: float
    amortized_cost: float
    alpha_bound: int
    amortized_over_alpha: float
    bursts_total: int
    bursts_reconverged: int
    reconvergence_lag_mean: Optional[float]
    reconvergence_lag_max: Optional[int]


def summarize_service(report: ServiceReport) -> SLOSummary:
    """Compute every SLO quantity from one finished run."""
    completed = report.completed_probes
    latencies = [probe.latency for probe in completed]
    histogram = report.latency_histogram()
    quantiles = histogram.quantiles((50.0, 95.0, 99.0))
    clock = max(1, report.clock)
    joined = report.injected.get("join", 0)
    operations = report.operations
    bound = alpha(max(1, operations), report.n_initial + joined)
    lags = [burst.lag for burst in report.bursts if burst.lag is not None]
    return SLOSummary(
        operations=operations,
        probes_total=len(report.probes),
        probes_completed=len(completed),
        probes_immediate=sum(1 for probe in completed if probe.immediate),
        probes_incomplete=report.incomplete_probes,
        probes_dropped=report.dropped_probes,
        deferrals=report.deferrals,
        latency_p50=quantiles["p50"],
        latency_p95=quantiles["p95"],
        latency_p99=quantiles["p99"],
        latency_mean=(sum(latencies) / len(latencies)) if latencies else None,
        latency_max=max(latencies) if latencies else None,
        throughput_per_kstep=1000.0 * len(completed) / clock,
        offered_per_kstep=1000.0 * operations / clock,
        amortized_cost=report.amortized_cost,
        alpha_bound=bound,
        amortized_over_alpha=report.amortized_cost / max(1, bound),
        bursts_total=len(report.bursts),
        bursts_reconverged=sum(
            1 for burst in report.bursts if burst.reconverged_at is not None
        ),
        reconvergence_lag_mean=(sum(lags) / len(lags)) if lags else None,
        reconvergence_lag_max=max(lags) if lags else None,
    )


def _cell(value: Optional[float], digits: int = 1) -> Any:
    """Numbers render as-is; absent measurements render as ``-``."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return round(value, digits)
    return value


def slo_table(report: ServiceReport, summary: Optional[SLOSummary] = None) -> Table:
    """The latency / throughput table ``serve-sim`` prints."""
    if summary is None:
        summary = summarize_service(report)
    headers = ["quantity", "value"]
    rows: Rows = [
        ["workload", f"{report.workload_kind} rate={report.rate:g}/kstep"],
        ["initial nodes", report.n_initial],
        ["service clock (steps)", report.clock],
        ["steps executed", report.steps_executed],
        ["operations injected", summary.operations],
        ["  joins", report.injected.get("join", 0)],
        ["  links", report.injected.get("link", 0)],
        ["  probes", report.injected.get("probe", 0)],
        ["probes completed", summary.probes_completed],
        ["  answered locally", summary.probes_immediate],
        ["  deferral retries", summary.deferrals],
        ["  incomplete", summary.probes_incomplete],
        *([["  dropped", summary.probes_dropped]] if summary.probes_dropped else []),
        ["probe latency p50 (steps)", _cell(summary.latency_p50)],
        ["probe latency p95 (steps)", _cell(summary.latency_p95)],
        ["probe latency p99 (steps)", _cell(summary.latency_p99)],
        ["probe latency mean (steps)", _cell(summary.latency_mean, 2)],
        ["probe latency max (steps)", _cell(summary.latency_max)],
        ["throughput (probes/kstep)", _cell(summary.throughput_per_kstep, 3)],
        ["offered load (ops/kstep)", _cell(summary.offered_per_kstep, 3)],
        ["service messages", report.service_messages],
        ["amortized msgs/op", _cell(summary.amortized_cost, 2)],
        ["alpha(m, n+n^)", summary.alpha_bound],
        ["amortized / alpha", _cell(summary.amortized_over_alpha, 2)],
    ]
    if report.bursts:
        rows.extend(
            [
                ["churn bursts", summary.bursts_total],
                ["  reconverged", summary.bursts_reconverged],
                ["  lag mean (steps)", _cell(summary.reconvergence_lag_mean, 1)],
                ["  lag max (steps)", _cell(summary.reconvergence_lag_max)],
            ]
        )
    if report.budget_exhausted:
        rows.append(["step budget", f"EXHAUSTED at {report.step_budget}"])
    return headers, rows


def amortized_table(report: ServiceReport) -> Table:
    """The Theorem 8 curve: cumulative cost per operation as ``m`` grows."""
    joined = report.injected.get("join", 0)
    n_hat = report.n_initial + joined
    headers = ["ops (m)", "messages", "msgs/op", "alpha(m, n+n^)", "msgs/(op*alpha)"]
    rows: Rows = []
    for operations, messages in report.curve:
        bound = alpha(max(1, operations), n_hat)
        per_op = messages / max(1, operations)
        rows.append(
            [operations, messages, round(per_op, 2), bound, round(per_op / max(1, bound), 2)]
        )
    return headers, rows


def service_timeline(
    report: ServiceReport, meta: Optional[Dict[str, Any]] = None
) -> Timeline:
    """Package a run for JSONL export (``repro trace summarize`` etc.).

    Events are service-level, not transport-level: one ``service-op`` per
    completed probe at its completion step (value = latency), so long
    steady-state runs export compactly; the sampled metrics timeline
    carries the rest (backlog, census, injected counters).
    """
    events = [
        RunEvent(
            step=probe.completed_at,
            kind="service-op",
            node=probe.target,
            msg_type="probe",
            value=probe.latency,
        )
        for probe in report.completed_probes
    ]
    events.sort(key=lambda event: event.step)
    return Timeline(
        meta={
            "command": "serve-sim",
            "workload": report.workload_kind,
            "rate": report.rate,
            "duration": report.duration,
            "seed": report.seed,
            "n": report.n_initial,
            **(meta or {}),
        },
        events=events,
        samples=list(report.metrics.samples) if report.metrics is not None else [],
    )
