"""Chaos harness: fault scenarios x protocol variants, safety-checked.

One *chaos trial* runs one discovery variant on one graph under one named
fault scenario, with the stepwise safety monitor watching every step, and
bins the execution into the outcome taxonomy of
:mod:`repro.verification.degradation`:

``ok`` / ``recovered`` / ``degraded`` / ``stalled`` / ``detected`` are all
acceptable ways for a protocol to meet faults -- the report measures how
gracefully each variant degrades (``recovered`` is the crash-recovery
model's best case: full properties despite nodes crashing and restarting
mid-run).  ``violated`` (a stepwise invariant broke, or safety failed at
rest) is never acceptable under any plan: the chaos sweep's hard
assertion, and the CI smoke job's exit code, is ``violations == 0``.

The sweep entry point :func:`exp_chaos` returns a plain ``(headers, rows)``
table so it plugs into ``SWEEPABLE_EXPERIMENTS``: ``python -m repro chaos``
runs it as a one-shot campaign, one cell per seed
(:func:`~repro.campaign.runner.run_sweep`).  Boolean verdicts are
encoded as 0/1 ints on purpose: the sweep aggregator averages numeric
columns across seeds, turning the flags into rates (e.g. ``safe = 1.0``
means safety held on every seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.analysis.experiments import build_family
from repro.core.node import ProtocolError
from repro.core.runner import build_simulation, default_step_budget
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.recovery import attach_recovery
from repro.faults.reliable import ReliableNode, retransmission_overhead, transport_totals
from repro.faults.scenarios import FAULT_SCENARIOS, build_scenario
from repro.obs.events import Recorder
from repro.sim.network import SimulationError, StepLimitExceeded
from repro.verification.degradation import (
    OUTCOME_DEGRADED,
    OUTCOME_DETECTED,
    OUTCOME_OK,
    OUTCOME_RECOVERED,
    OUTCOME_STALLED,
    OUTCOME_VIOLATED,
    SurvivalReport,
    verify_surviving,
)
from repro.verification.monitor import (
    SafetyViolation,
    StepwiseMonitor,
    check_safety_now,
)

NodeId = Hashable
Rows = List[List[Any]]
Table = Tuple[List[str], Rows]

__all__ = [
    "ChaosTrial",
    "run_chaos_trial",
    "exp_chaos",
    "CHAOS_HEADERS",
]


@dataclass
class ChaosTrial:
    """Everything measured about one chaotic execution."""

    scenario: str
    variant: str
    family: str
    n: int
    seed: int
    reliable: bool
    transport: str  # "sr", or "raw" when ``reliable`` is off
    plan: FaultPlan
    outcome: str
    quiesced: bool
    safety_ok: bool
    survival: SurvivalReport
    steps: int
    total_messages: int
    total_bits: int
    overhead_messages: int
    overhead_bits: int
    retransmissions: int
    nacks: int
    undeliverable: int
    faults_injected: int
    n_recovered: int = 0
    reconverge_steps: int = 0
    epoch_fences: int = 0
    fault_counts: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    @property
    def properties_ok(self) -> bool:
        return self.survival.properties_ok


def _check_monitor_every(monitor_every: int) -> None:
    if monitor_every < 1:
        raise ValueError(f"monitor_every must be >= 1, got {monitor_every}")


def run_chaos_trial(
    scenario: "str | FaultPlan" = "baseline",
    variant: str = "generic",
    family: str = "sparse-random",
    n: int = 32,
    seed: int = 0,
    *,
    reliable: bool = True,
    monitor_every: int = 1,
    budget_factor: int = 8,
    base_timeout: Optional[int] = None,
    max_retries: int = 6,
    recorder: Optional[Recorder] = None,
    checkpoint_every: int = 8,
) -> ChaosTrial:
    """Run one variant under one fault scenario and classify the outcome.

    ``scenario`` is a name from :data:`~repro.faults.FAULT_SCENARIOS` or a
    literal :class:`FaultPlan` (property-style tests throw arbitrary plans
    at the protocols this way).  ``reliable`` wraps every node in the
    selective-repeat transport; the trial's ``transport`` field reads
    ``"sr"``, or ``"raw"`` for a bare run.

    Never raises on degradation: stalls, loud protocol errors and property
    misses come back as outcomes.  In particular a
    :class:`~repro.sim.network.StepLimitExceeded` -- the simulator ran out
    of step budget -- is binned as ``stalled``, not ``detected``: budget
    exhaustion is the *definition* of a stall, and letting it fall through
    to the generic ``SimulationError`` handler (or worse, propagate raw
    and poison a sweep shard) misreports livelocks as protocol-detected
    faults.  Only genuinely unexpected exceptions (bugs in the harness
    itself) propagate.

    ``recorder`` attaches a run-event :class:`~repro.obs.events.Recorder`
    to the trial's simulator (``None`` keeps the zero-overhead path).

    ``budget_factor`` scales the fault-free step budget -- retransmission
    timers and deferred deliveries all charge steps, so chaotic runs are
    legitimately longer than clean ones.
    """
    _check_monitor_every(monitor_every)
    graph = build_family(family, n, seed)
    if isinstance(scenario, FaultPlan):
        plan, scenario = scenario, scenario.describe()
    else:
        plan = build_scenario(scenario, graph, seed)
    injector = FaultInjector(plan, seed=seed)
    sim, nodes = build_simulation(
        graph,
        variant,
        seed=seed,
        faults=injector,
        reliable=reliable,
        base_timeout=base_timeout,
        max_retries=max_retries,
        obs=recorder,
    )
    if plan.recoveries and not reliable:
        raise ValueError(
            "crash-recovery scenarios need reliable=True: epoch fencing "
            "lives in the ReliableNode transport wrapper"
        )
    manager = attach_recovery(sim, injector, checkpoint_every=checkpoint_every)
    monitor = StepwiseMonitor(sim, nodes, every=monitor_every)
    budget = budget_factor * default_step_budget(graph)
    violated = detected = stalled = False
    detail = ""
    try:
        # ``max(1, ...)``: a budget of zero has always bought one step.
        _, stalled = monitor.advance(max(1, budget))
        if stalled:
            detail = f"no quiescence within {budget} steps"
    except SafetyViolation as exc:
        violated, detail = True, str(exc)
    except ProtocolError as exc:
        detected, detail = True, str(exc)
    except StepLimitExceeded as exc:
        # Must precede SimulationError (its base class): running out of
        # steps is a stall in the degradation taxonomy, not a detection.
        stalled, detail = True, str(exc)
    except SimulationError as exc:
        detected, detail = True, str(exc)
    if not violated:
        # Safety at rest: whatever state the run ended in (quiescent,
        # stalled, or mid-flight after a loud failure) must satisfy I1-I4.
        try:
            check_safety_now(nodes, step=sim.steps)
        except SafetyViolation as exc:
            violated, detail = True, str(exc)
    quiesced = sim.is_quiescent and not (violated or detected or stalled)
    survival = verify_surviving(
        graph, nodes, sim, variant, injector.crashed_nodes(sim.steps)
    )
    n_recovered = manager.n_recovered if manager is not None else 0
    reconverge_steps = 0
    if manager is not None and quiesced and manager.recovered_at:
        # Time-to-reconverge: quiescence relative to the *last* restart.
        reconverge_steps = sim.steps - max(manager.recovered_at.values())
    if violated:
        outcome = OUTCOME_VIOLATED
    elif detected:
        outcome = OUTCOME_DETECTED
    elif stalled:
        outcome = OUTCOME_STALLED
    elif quiesced and survival.properties_ok:
        outcome = OUTCOME_RECOVERED if n_recovered else OUTCOME_OK
    else:
        outcome = OUTCOME_DEGRADED
        if not detail:
            detail = survival.detail
    overhead = retransmission_overhead(sim.stats)
    if reliable:
        totals = transport_totals(
            {
                node_id: wrapper
                for node_id, wrapper in sim.nodes.items()
                if isinstance(wrapper, ReliableNode)
            }
        )
    else:
        totals = {
            "retransmissions": 0,
            "nacks_sent": 0,
            "undeliverable": 0,
            "epoch_fenced": 0,
        }
    return ChaosTrial(
        scenario=scenario,
        variant=variant,
        family=family,
        n=graph.n,
        seed=seed,
        reliable=reliable,
        transport="sr" if reliable else "raw",
        plan=plan,
        outcome=outcome,
        quiesced=quiesced,
        safety_ok=not violated,
        survival=survival,
        steps=sim.steps,
        total_messages=sim.stats.total_messages,
        total_bits=sim.stats.total_bits,
        overhead_messages=overhead["overhead_messages"],
        overhead_bits=overhead["overhead_bits"],
        retransmissions=totals["retransmissions"],
        nacks=totals["nacks_sent"],
        undeliverable=totals["undeliverable"],
        faults_injected=injector.total_injected,
        n_recovered=n_recovered,
        reconverge_steps=reconverge_steps,
        epoch_fences=totals["epoch_fenced"],
        fault_counts=dict(injector.counts),
        detail=detail,
    )


#: Column order of :func:`exp_chaos`.  Verdict flags are 0/1 ints so the
#: sweep aggregator turns them into across-seed rates.
CHAOS_HEADERS = [
    "scenario",
    "variant",
    "n",
    "quiesced",
    "safe",
    "props",
    "survivors",
    "components",
    "steps",
    "messages",
    "overhead-msgs",
    "retrans",
    "nacks",
    "undeliv",
    "faults",
    "recovered",
    "reconverge",
    "epoch-fences",
]


def exp_chaos(
    scenarios: Sequence[str] = tuple(FAULT_SCENARIOS),
    variants: Sequence[str] = ("generic",),
    n: int = 32,
    family: str = "sparse-random",
    seed: int = 0,
    *,
    reliable: bool = True,
    monitor_every: int = 1,
    budget_factor: int = 8,
) -> Table:
    """EXP-chaos: degradation table over scenarios x variants (one seed).

    The sweepable entry point: ``python -m repro sweep -e chaos`` and the
    ``chaos`` subcommand fan seeds of this function out over worker
    processes and aggregate the 0/1 verdict columns into rates.
    """
    _check_monitor_every(monitor_every)
    rows: Rows = []
    for scenario in scenarios:
        for variant in variants:
            trial = run_chaos_trial(
                scenario,
                variant,
                family,
                n,
                seed,
                reliable=reliable,
                monitor_every=monitor_every,
                budget_factor=budget_factor,
            )
            rows.append(
                [
                    scenario,
                    variant,
                    trial.n,
                    int(trial.quiesced),
                    int(trial.safety_ok),
                    int(trial.properties_ok),
                    trial.survival.n_survivors,
                    trial.survival.n_components,
                    trial.steps,
                    trial.total_messages,
                    trial.overhead_messages,
                    trial.retransmissions,
                    trial.nacks,
                    trial.undeliverable,
                    trial.faults_injected,
                    trial.n_recovered,
                    trial.reconverge_steps,
                    trial.epoch_fences,
                ]
            )
    return CHAOS_HEADERS, rows
