"""Composable fault injection and recovery for the discovery simulator.

Four layers, importable in one place:

* :mod:`repro.faults.plan` -- declarative, seeded :class:`FaultPlan` data
  (loss, duplication, crash-stop, crash-recovery, transient partitions,
  delay bursts) and the :class:`FaultInjector` that executes a plan against
  one run through the simulator's
  :class:`~repro.sim.network.ChannelInterceptor` hooks;
* :mod:`repro.faults.reliable` -- the ack/retransmit transport wrapper
  that restores exactly-once FIFO channels over a faulty network, plus the
  incarnation-epoch fencing the crash-recovery model relies on;
* :mod:`repro.faults.recovery` -- durable checkpoints and the
  :class:`RecoveryManager` that crashes nodes, restarts them from a
  snapshot under a new epoch, and rejoins them to their component;
* :mod:`repro.faults.scenarios` / :mod:`repro.faults.harness` -- named
  chaos scenarios and the safety-checked sweep harness behind
  ``python -m repro chaos``.
"""

from repro.faults.harness import (
    CHAOS_HEADERS,
    ChaosTrial,
    exp_chaos,
    run_chaos_trial,
)
from repro.faults.plan import (
    CrashSpec,
    DelayBurst,
    FaultInjector,
    FaultPlan,
    PartitionSpec,
    RecoverySpec,
)
from repro.faults.recovery import (
    Checkpoint,
    CheckpointStore,
    RecoveryManager,
    attach_recovery,
)
from repro.faults.reliable import (
    OVERHEAD_TYPES,
    RT_ACK,
    RT_NACK,
    RT_RETRANS,
    Ack,
    Data,
    Nack,
    ReliableNode,
    retransmission_overhead,
    transport_totals,
)
from repro.faults.scenarios import (
    FAULT_SCENARIOS,
    RECOVERY_SCENARIOS,
    build_scenario,
    pick_crash_victims,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "CrashSpec",
    "RecoverySpec",
    "PartitionSpec",
    "DelayBurst",
    "ReliableNode",
    "Data",
    "Ack",
    "Nack",
    "RT_RETRANS",
    "RT_ACK",
    "RT_NACK",
    "OVERHEAD_TYPES",
    "retransmission_overhead",
    "transport_totals",
    "Checkpoint",
    "CheckpointStore",
    "RecoveryManager",
    "attach_recovery",
    "FAULT_SCENARIOS",
    "RECOVERY_SCENARIOS",
    "build_scenario",
    "pick_crash_victims",
    "ChaosTrial",
    "run_chaos_trial",
    "exp_chaos",
    "CHAOS_HEADERS",
]
