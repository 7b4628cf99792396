"""repro -- a reproduction of *Asynchronous Resource Discovery*
(Ittai Abraham and Danny Dolev, PODC 2003).

The package implements the paper's three algorithms (Generic/Oblivious,
Bounded, Ad-hoc) on a faithful asynchronous reliable-FIFO simulator, the
synchronous baselines it compares against, both lower-bound constructions,
and an evaluation harness that validates every theorem empirically.

Quickstart::

    from repro import random_weakly_connected, run_generic, verify_discovery

    graph = random_weakly_connected(200, extra_edges=400, seed=7)
    result = run_generic(graph, seed=7)
    verify_discovery(result, graph)
    print(result.summary())
"""

from repro.core import (
    AdhocNetwork,
    DiscoveryNode,
    DiscoveryResult,
    ProtocolError,
    run_adhoc,
    run_bounded,
    run_generic,
)
from repro.graphs import (
    KnowledgeGraph,
    complete_binary_tree,
    complete_graph,
    dense_layered,
    directed_cycle,
    directed_path,
    disjoint_union,
    erdos_renyi,
    inverted_star,
    is_strongly_connected,
    is_weakly_connected,
    preferential_attachment,
    random_arborescence,
    random_strongly_connected,
    random_weakly_connected,
    star,
    weakly_connected_components,
)
from repro.core.dynamic import ChurnScenario, random_churn
from repro.overlay import RingOverlay, ring_position
from repro.sim import (
    AdversarialScheduler,
    Adversary,
    GlobalFifoScheduler,
    LifoScheduler,
    MessageStats,
    RandomScheduler,
    RecordingScheduler,
    ReplayScheduler,
    Simulator,
    TimedScheduler,
)
from repro.unionfind import DisjointSet, QuickFind, ackermann, alpha
from repro.verification import (
    InvariantViolation,
    StepwiseMonitor,
    check_all_lemmas,
    staged_liveness_check,
    verify_discovery,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # algorithms
    "run_generic",
    "run_bounded",
    "run_adhoc",
    "AdhocNetwork",
    "DiscoveryNode",
    "DiscoveryResult",
    "ProtocolError",
    # graphs
    "KnowledgeGraph",
    "star",
    "inverted_star",
    "directed_path",
    "directed_cycle",
    "complete_binary_tree",
    "random_arborescence",
    "erdos_renyi",
    "dense_layered",
    "preferential_attachment",
    "random_weakly_connected",
    "random_strongly_connected",
    "complete_graph",
    "disjoint_union",
    "weakly_connected_components",
    "is_weakly_connected",
    "is_strongly_connected",
    # simulation
    "Simulator",
    "MessageStats",
    "GlobalFifoScheduler",
    "LifoScheduler",
    "RandomScheduler",
    "Adversary",
    "AdversarialScheduler",
    "TimedScheduler",
    "RecordingScheduler",
    "ReplayScheduler",
    "ChurnScenario",
    "random_churn",
    "RingOverlay",
    "ring_position",
    "StepwiseMonitor",
    "staged_liveness_check",
    # union-find
    "DisjointSet",
    "QuickFind",
    "alpha",
    "ackermann",
    # verification
    "verify_discovery",
    "check_all_lemmas",
    "InvariantViolation",
]
