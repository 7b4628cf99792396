"""Named fault scenarios for the chaos harness.

Every scenario is a factory ``(graph, seed) -> FaultPlan``: plans that
involve concrete nodes (crashes, partitions) or step windows need to see
the topology and the system size, since fault windows are expressed in
executed simulator steps and a sensible window scales with ``n``.

The registry doubles as the CLI vocabulary of ``python -m repro chaos
--scenarios ...`` and as the row space of the chaos degradation report.
Scenario choices are seeded -- the same ``(graph, seed)`` always yields the
same plan, so chaos sweep rows are replayable.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Callable, Dict, Hashable, List

from repro.faults.plan import (
    CrashSpec,
    DelayBurst,
    FaultPlan,
    PartitionSpec,
    RecoverySpec,
)
from repro.graphs.knowledge_graph import KnowledgeGraph

NodeId = Hashable

__all__ = [
    "FAULT_SCENARIOS",
    "RECOVERY_SCENARIOS",
    "build_scenario",
    "pick_crash_victims",
]


def pick_crash_victims(graph: KnowledgeGraph, count: int, seed: int) -> List[NodeId]:
    """Choose ``count`` crash victims, preferring *unknown* nodes.

    Nodes with in-degree 0 are in nobody's initial ``local`` set, so their
    ids never circulate and the survivors' execution is exactly the
    execution of the induced surviving subgraph -- crashing them degrades
    connectivity but not liveness.  Higher in-degree victims make the
    protocol reference dead ids and stall parts of the system; sorting by
    in-degree makes small counts benign and larger counts progressively
    nastier, which is the gradient a chaos sweep wants to walk.
    """
    rng = Random(seed)
    candidates = list(graph.nodes)
    rng.shuffle(candidates)  # tie-break independent of generator order
    in_degree = Counter(v for u in candidates for v in graph.successors(u))
    candidates.sort(key=in_degree.__getitem__)  # one pass, not n in_degree scans
    return candidates[: max(0, min(count, graph.n - 1))]


def _crash_plan(
    graph: KnowledgeGraph, seed: int, count: int, *, loss: float = 0.0
) -> FaultPlan:
    victims = pick_crash_victims(graph, count, seed)
    return FaultPlan(
        loss=loss, crashes=tuple(CrashSpec(node, at_step=0) for node in victims)
    )


def _partition_plan(graph: KnowledgeGraph, seed: int) -> FaultPlan:
    rng = Random(seed)
    n = graph.n
    island_size = max(1, n // 4)
    island = frozenset(rng.sample(list(graph.nodes), k=island_size))
    # Cut the island off early, heal mid-execution: discovery runs for
    # Theta(n log n) steps, so [n, 6n) lands inside the active phase.
    return FaultPlan(partitions=(PartitionSpec(island, start=n, heal=6 * n),))


def _delay_plan(graph: KnowledgeGraph, seed: int) -> FaultPlan:
    n = graph.n
    return FaultPlan(delays=(DelayBurst(start=2 * n, duration=4 * n, fraction=0.75),))


def _stress_plan(graph: KnowledgeGraph, seed: int) -> FaultPlan:
    rng = Random(seed)
    n = graph.n
    island = frozenset(rng.sample(list(graph.nodes), k=max(1, n // 5)))
    victims = pick_crash_victims(graph, 2, seed)
    return FaultPlan(
        loss=0.1,
        duplicate=0.05,
        crashes=tuple(CrashSpec(node, at_step=0) for node in victims),
        partitions=(PartitionSpec(island, start=2 * n, heal=5 * n),),
        delays=(DelayBurst(start=n, duration=2 * n, fraction=0.5),),
    )


def _recovery_plan(
    graph: KnowledgeGraph,
    seed: int,
    count: int,
    *,
    amnesia: bool = True,
    loss: float = 0.0,
    stagger: int = 0,
) -> FaultPlan:
    """Crash ``count`` victims mid-run and bring them all back.

    Windows scale with ``n`` like the other scenarios: the crash lands
    around step ``n`` (inside the active discovery phase) and recovery at
    ``4n`` (well before the Theta(n log n) execution winds down), so the
    restarted nodes must genuinely re-attach to a live, evolving system.
    ``stagger`` offsets successive victims' windows for churn scenarios.
    """
    n = graph.n
    victims = pick_crash_victims(graph, count, seed)
    recoveries = tuple(
        RecoverySpec(
            node,
            crash_step=n + i * stagger,
            recover_step=4 * n + i * stagger,
            amnesia=amnesia,
        )
        for i, node in enumerate(victims)
    )
    return FaultPlan(loss=loss, recoveries=recoveries)


#: name -> (graph, seed) -> FaultPlan.  Keep names CLI-friendly.
FAULT_SCENARIOS: Dict[str, Callable[[KnowledgeGraph, int], FaultPlan]] = {
    "baseline": lambda graph, seed: FaultPlan(),
    "loss-5": lambda graph, seed: FaultPlan(loss=0.05),
    "loss-10": lambda graph, seed: FaultPlan(loss=0.10),
    "loss-20": lambda graph, seed: FaultPlan(loss=0.20),
    "dup-10": lambda graph, seed: FaultPlan(duplicate=0.10),
    "crash-2": lambda graph, seed: _crash_plan(graph, seed, 2),
    "partition-heal": _partition_plan,
    "delay-burst": _delay_plan,
    "loss-crash": lambda graph, seed: _crash_plan(graph, seed, 2, loss=0.10),
    "stress": _stress_plan,
    "recover-2": lambda graph, seed: _recovery_plan(graph, seed, 2),
    "recover-ckpt": lambda graph, seed: _recovery_plan(graph, seed, 2, amnesia=False),
    "recover-loss": lambda graph, seed: _recovery_plan(graph, seed, 2, loss=0.10),
    "recover-churn": lambda graph, seed: _recovery_plan(
        graph, seed, 4, stagger=max(1, graph.n // 2)
    ),
}

#: The crash-*recovery* subset of the registry: these plans carry
#: RecoverySpecs and therefore require the reliable transport (epoch
#: fencing lives in ReliableNode), so raw-mode sweeps must skip them.
RECOVERY_SCENARIOS = ("recover-2", "recover-ckpt", "recover-loss", "recover-churn")


def build_scenario(name: str, graph: KnowledgeGraph, seed: int) -> FaultPlan:
    """Instantiate a named scenario for one graph + seed."""
    try:
        factory = FAULT_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_SCENARIOS))
        raise ValueError(f"unknown fault scenario {name!r}; choose from {known}")
    return factory(graph, seed)
