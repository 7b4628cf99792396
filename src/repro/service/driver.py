"""The steady-state service driver: open-loop load, no terminal quiescence.

Every other harness in the repo runs *convergence* experiments -- start,
quiesce, verify.  :class:`ServiceDriver` instead treats the Dynamic
Ad-hoc system (Section 6) as a long-running service: it replays a
:class:`~repro.service.workload.Workload` against a live
:class:`~repro.core.adhoc.AdhocNetwork`, injecting each join / link /
probe at its virtual-time arrival while the simulator keeps executing,
and tracks every probe from injection to answer.

The service clock
-----------------
Virtual time is the executed-step counter: each atomic delivery or
wake-up advances the clock by one.  When the system goes idle *between*
arrivals the clock jumps forward to the next arrival (idle virtual time
is free -- nothing is pending, so no steps exist to execute).  A probe's
latency is therefore "steps of system work between injection and
answer", the asynchronous analogue of wall-clock service latency.

The driver does not supervise single steps: it runs the simulator to
the next instant at which it has something to do (an arrival, a retry, a
metrics sample, the end of the budget) and reads afterwards, from the
step stamps the initiating nodes left, when each probe was answered.

Probes that cannot be injected yet -- the target is still asleep (a join
whose wake-up has not fired) or already has a probe of its own
outstanding (the protocol carries one per initiator) -- are *deferred*
and retried a few steps later; the deferral count is part of the report,
since under overload it is exactly the queueing the open-loop model is
supposed to expose.

Budgets
-------
A steady-state run cannot rely on quiescence to terminate, so the driver
enforces a hard ``step_budget``; exhausting it sets
``report.budget_exhausted`` rather than raising -- for an overloaded
service that *is* the result.  After the workload window closes the
driver drains remaining in-flight work (bounded by the same budget) so
late probes still resolve to latencies instead of being lost.

Faults in the service loop
--------------------------
Pass ``faults=FaultPlan(...)`` (written in *window-relative* virtual
time) and the driver attaches a seeded
:class:`~repro.faults.FaultInjector` to the simulator **after** warmup,
shifting every time-anchored spec by the steps warmup consumed
(:meth:`FaultPlan.shifted`).  Warmup therefore always establishes a
clean converged census; the faults hit the *steady state*, which is the
regime the latency SLOs describe.  Build the network with
``AdhocNetwork(reliable=True)`` when the plan drops messages -- the
protocol assumes exactly-once FIFO channels, and without the transport
a lossy open-loop run measures a broken system, not a degraded one.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, Optional, Tuple

from repro.core.adhoc import AdhocNetwork, ProbeHandle
from repro.core.dynamic import NodeId
from repro.faults.plan import FaultInjector, FaultPlan
from repro.obs.metrics import (
    DEFAULT_CADENCE,
    Histogram,
    MetricsRegistry,
    MetricsTimeline,
)
from repro.service.workload import Workload
from repro.verification.invariants import verify_discovery

__all__ = ["ProbeRecord", "BurstRecord", "ServiceReport", "ServiceDriver"]

#: Steps between retries of a deferred probe.
DEFER_RETRY_GAP = 8
#: A probe still deferred after this many retries is dropped (counted).
DEFER_MAX_RETRIES = 64


@dataclass
class ProbeRecord:
    """One tracked probe: injection, completion, latency (virtual steps)."""

    at: int
    target: NodeId
    completed_at: Optional[int] = None
    immediate: bool = False
    #: given up after ``DEFER_MAX_RETRIES`` deferrals, never injected.
    dropped: bool = False

    @property
    def latency(self) -> Optional[int]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.at


@dataclass
class BurstRecord:
    """One churn-burst window and the service's recovery from it."""

    start: int
    end: int
    reconverged_at: Optional[int] = None
    verified: Optional[bool] = None

    @property
    def lag(self) -> Optional[int]:
        """Steps past the window's close until the census reconverged."""
        if self.reconverged_at is None:
            return None
        return max(0, self.reconverged_at - self.end)


@dataclass
class ServiceReport:
    """Everything one steady-state run produced."""

    workload_kind: str
    rate: float
    duration: int
    seed: int
    n_initial: int
    warmup_steps: int = 0
    warmup_messages: int = 0
    clock: int = 0
    steps_executed: int = 0
    step_budget: int = 0
    budget_exhausted: bool = False
    injected: Dict[str, int] = field(default_factory=dict)
    deferrals: int = 0
    dropped_probes: int = 0
    probes: List[ProbeRecord] = field(default_factory=list)
    bursts: List[BurstRecord] = field(default_factory=list)
    #: cumulative ``(operations injected, service messages)`` checkpoints,
    #: roughly geometric in operation count -- the amortized-cost curve.
    curve: List[Tuple[int, int]] = field(default_factory=list)
    service_messages: int = 0
    service_bits: int = 0
    metrics: Optional[MetricsTimeline] = None
    #: What the attached fault injector actually did during the window
    #: (per-kind counts), empty for fault-free runs.
    fault_counts: Dict[str, int] = field(default_factory=dict)
    #: Aggregated reliable-transport telemetry (retransmissions, acks,
    #: undeliverable, ...) when the network runs the transport, else empty.
    transport_totals: Dict[str, int] = field(default_factory=dict)

    @property
    def operations(self) -> int:
        """Total injected operations (joins + links + probes)."""
        return sum(self.injected.values())

    @property
    def completed_probes(self) -> List[ProbeRecord]:
        return [p for p in self.probes if p.completed_at is not None]

    @property
    def incomplete_probes(self) -> int:
        """Probes injected but still unanswered (dropped ones excluded:
        those are ``dropped_probes``, and each probe counts once)."""
        return sum(1 for p in self.probes if p.completed_at is None and not p.dropped)

    def latency_histogram(self) -> Histogram:
        """Completed-probe latencies as an exact discrete histogram."""
        histogram = Histogram()
        for probe in self.completed_probes:
            histogram.observe(probe.latency)
        return histogram

    @property
    def amortized_cost(self) -> float:
        """Service messages per injected operation (Theorem 8's quantity)."""
        return self.service_messages / max(1, self.operations)


class ServiceDriver:
    """Drive an :class:`AdhocNetwork` under an open-loop workload.

    Parameters
    ----------
    network:
        A (fresh or pre-warmed) Dynamic Ad-hoc handle.  The driver runs
        it to quiescence once before the clock starts -- the initial
        census is warmup, not service load.
    workload:
        The arrival schedule to inject.
    step_budget:
        Hard cap on executed steps (warmup excluded); ``None`` derives a
        generous default from the duration and workload size.
    cadence:
        Virtual-time sampling cadence for the metrics timeline (the same
        meaning as :func:`repro.obs.metrics.attach_metrics`).
    verify_on_reconvergence:
        After each churn burst's window closes and the system next goes
        quiescent, run the full discovery invariants (slow; tests use it
        to pin that the service returns to a *converged* census between
        bursts).
    faults:
        A :class:`~repro.faults.FaultPlan` in window-relative virtual
        time, attached (seeded with ``fault_seed``) after warmup -- see
        the module docstring.  The network must not already carry an
        injector of its own.
    """

    def __init__(
        self,
        network: AdhocNetwork,
        workload: Workload,
        *,
        step_budget: Optional[int] = None,
        cadence: int = DEFAULT_CADENCE,
        verify_on_reconvergence: bool = False,
        faults: Optional[FaultPlan] = None,
        fault_seed: int = 0,
    ) -> None:
        self.net = network
        self.workload = workload
        if faults is not None and network.sim.faults is not None:
            raise ValueError(
                "the network already has a fault injector attached; pass the "
                "plan to ServiceDriver(faults=...) or to the network, not both"
            )
        self.faults = faults
        self.fault_seed = fault_seed
        if step_budget is None:
            # Enough for every operation to cost hundreds of steps plus a
            # drain tail; an overloaded service hits this and reports it.
            step_budget = 50_000 + 100 * workload.duration + 500 * len(workload.events)
        if step_budget < 1:
            raise ValueError(f"step_budget must be >= 1, got {step_budget}")
        self.step_budget = step_budget
        self.verify_on_reconvergence = verify_on_reconvergence
        self._cadence = cadence
        self._clock = 0

    # -- metrics wiring -------------------------------------------------
    def _build_metrics(self) -> MetricsTimeline:
        sim = self.net.sim
        registry = MetricsRegistry()
        registry.gauge("service-clock", lambda: self._clock)
        registry.gauge("in-flight", sim.in_flight)
        registry.gauge("messages-total", lambda: sim.stats.total_messages)
        registry.gauge("nodes-total", lambda: len(sim.nodes))
        self._c_join = registry.counter("injected-joins")
        self._c_link = registry.counter("injected-links")
        self._c_probe = registry.counter("injected-probes")
        self._c_done = registry.counter("probes-completed")
        self._c_defer = registry.counter("probes-deferred")
        self._h_latency = registry.histogram("probe-latency")
        return MetricsTimeline(registry, cadence=self._cadence)

    # -- the run loop ---------------------------------------------------
    def run(self) -> ServiceReport:
        net, workload = self.net, self.workload
        sim = net.sim
        report = ServiceReport(
            workload_kind=workload.kind,
            rate=workload.rate,
            duration=workload.duration,
            seed=workload.seed,
            n_initial=len(net.graph.nodes),
            step_budget=self.step_budget,
            bursts=[BurstRecord(start, end) for start, end in workload.bursts],
        )
        report.warmup_steps = net.run()
        report.warmup_messages = sim.stats.total_messages
        warmup_stats = sim.stats.snapshot()
        warmup_bits = sim.stats.total_bits

        injector: Optional[FaultInjector] = None
        if self.faults is not None:
            # Anchor the window-relative plan to the steps warmup actually
            # consumed, then let the injector loose on the steady state.
            injector = FaultInjector(
                self.faults.shifted(sim.steps), seed=self.fault_seed
            )
            sim.faults = injector

        metrics = report.metrics = self._build_metrics()

        events = workload.events
        arrival_times = [scheduled.at for scheduled in events]
        # A burst is "fully injected" once the arrival index passes every
        # event due strictly before its window closes.
        burst_thresholds = [
            bisect_left(arrival_times, burst.end) for burst in report.bursts
        ]
        next_burst = 0  # bursts settle in order

        next_index = 0
        retries: List[Tuple[int, int, int]] = []  # (due, probe index, deferrals)
        outstanding: Dict[int, ProbeHandle] = {}  # probe-list index -> handle
        next_curve_at = 1
        self._clock = 0

        def inject(event) -> None:
            kind = event[0]
            report.injected[kind] = report.injected.get(kind, 0) + 1
            if kind == "join":
                net.add_node(*event[1:])  # (node id, known ids)
                self._c_join.inc()
            elif kind == "link":
                net.add_link(*event[1:])  # (u, v)
                self._c_link.inc()
            else:
                report.probes.append(ProbeRecord(at=self._clock, target=event[1]))
                self._c_probe.inc()
                self._launch_probe(len(report.probes) - 1, 0, report, outstanding, retries)

        def checkpoint_curve(force: bool = False) -> None:
            nonlocal next_curve_at
            operations = report.operations
            if operations < 1:
                return
            messages = sim.stats.total_messages - report.warmup_messages
            if operations >= next_curve_at:
                report.curve.append((operations, messages))
                while next_curve_at <= operations:
                    next_curve_at *= 2
            elif force and (
                not report.curve or report.curve[-1][0] != operations
            ):
                report.curve.append((operations, messages))

        while True:
            # 1. inject everything due now: scheduled arrivals, then retries
            injected_any = False
            while next_index < len(events) and events[next_index].at <= self._clock:
                inject(events[next_index].event)
                next_index += 1
                injected_any = True
            while retries and retries[0][0] <= self._clock:
                _due, index, deferred = heapq.heappop(retries)
                self._launch_probe(index, deferred, report, outstanding, retries)
                injected_any = True
            if injected_any:
                checkpoint_curve()

            # 2. run to the event horizon: the driver has nothing to do
            #    before the next arrival, retry or metrics sample, so the
            #    steps up to the earliest of them need no supervision.
            budget_left = self.step_budget - report.steps_executed
            if budget_left <= 0:
                report.budget_exhausted = True
                break
            next_due = min(
                events[next_index].at if next_index < len(events) else inf,
                retries[0][0] if retries else inf,
            )
            horizon = min(
                budget_left,
                next_due - self._clock,
                max(1, metrics.next_due - self._clock),
            )
            executed = sim.run_for(horizon)
            if executed:
                report.steps_executed += executed
                self._clock += executed
                self._collect_completions(report, outstanding, metrics)
            if executed == horizon:
                continue

            # 3. quiescent: every burst whose arrivals are all in has
            #    reconverged; then jump the idle clock
            while (
                next_burst < len(report.bursts)
                and next_index >= burst_thresholds[next_burst]
            ):
                burst = report.bursts[next_burst]
                burst.reconverged_at = self._clock
                if self.verify_on_reconvergence:
                    verify_discovery(net.result(), net.graph)
                    burst.verified = True
                next_burst += 1
            if next_due == inf:
                break  # schedule exhausted and the system is at rest
            self._clock = next_due
            metrics.tick(self._clock)

        delta = sim.stats.delta_since(warmup_stats)
        report.clock = self._clock
        report.service_messages = delta.total_messages
        report.service_bits = sim.stats.total_bits - warmup_bits
        if injector is not None:
            report.fault_counts = dict(injector.counts)
        if self.net.reliable:
            from repro.faults.reliable import ReliableNode, transport_totals

            wrappers = {
                node.node_id: node
                for node in sim.nodes.values()
                if isinstance(node, ReliableNode)
            }
            report.transport_totals = transport_totals(wrappers)
        checkpoint_curve(force=True)
        metrics.finish(self._clock)
        return report

    # -- probe bookkeeping ----------------------------------------------
    def _launch_probe(self, index, deferred, report, outstanding, retries):
        """Inject probe ``index`` now; while its target is asleep or busy,
        park it for a retry instead, or drop it after too many of those."""
        record = report.probes[index]
        if self.net.can_probe(record.target):
            handle = self.net.probe_async(record.target)
            if handle.done:
                record.completed_at = self._clock
                record.immediate = True
                self._finish_probe(record)
            else:
                outstanding[index] = handle
        elif deferred >= DEFER_MAX_RETRIES:
            record.dropped = True
            report.dropped_probes += 1
        else:
            report.deferrals += 1
            self._c_defer.inc()
            heapq.heappush(
                retries, (self._clock + DEFER_RETRY_GAP, index, deferred + 1)
            )

    def _collect_completions(self, report, outstanding, metrics):
        """Close the stretch that just ran: date every probe answered in
        it from its node's step stamp and take the sample due at its end.
        A sample at step ``t`` shows the counters *before* step ``t``'s own
        completion is folded in, so that record is finished after the tick.
        """
        offset = self._clock - self.net.sim.steps  # constant while busy
        at_horizon = []
        for index, handle in list(outstanding.items()):
            step = handle.answered_at
            if step is None:
                continue
            del outstanding[index]
            record = report.probes[index]
            record.completed_at = step + offset
            if record.completed_at < self._clock:
                self._finish_probe(record)
            else:
                at_horizon.append(record)
        metrics.tick(self._clock)
        for record in at_horizon:
            self._finish_probe(record)

    def _finish_probe(self, record: ProbeRecord) -> None:
        self._c_done.inc()
        self._h_latency.observe(record.latency)
