"""The Generic (Oblivious) algorithm runner (Section 4, Theorems 3, 5, 7).

The Oblivious model: component sizes are unknown, the graph need only be
weakly connected (per component), and the algorithm cannot detect
termination -- it reaches the problem definition's steady state instead,
which the simulator observes as quiescence.

Guarantees validated after every run (see :mod:`repro.verification`):
exactly one leader per weakly connected component, the leader knows every
id in its component, every non-leader's ``next`` pointer names its leader;
``O(n log n)`` messages and ``O(|E0| log n + n log^2 n)`` bits.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.core.result import DiscoveryResult
from repro.core.runner import run_discovery
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.scheduler import Scheduler

__all__ = ["run_generic"]


def run_generic(
    graph: KnowledgeGraph,
    *,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    wake_order: Optional[Sequence[Hashable]] = None,
    max_steps: Optional[int] = None,
    greedy_queries: bool = False,
    fast: bool = True,
) -> DiscoveryResult:
    """Run the Generic algorithm on ``graph`` until quiescence.

    Parameters
    ----------
    graph:
        The initial knowledge graph ``(V, E0)``.
    seed:
        Use a seeded uniformly-random delivery schedule (ignored when
        ``scheduler`` is given; default is deterministic global-FIFO).
    scheduler:
        Explicit scheduling policy, e.g. an adversarial one.
    wake_order:
        Spontaneous wake-up order (default: graph node order).
    max_steps:
        Step budget; defaults to a generous bound derived from the graph.
    greedy_queries:
        Ablation: disable Section 4.1's query balancing (see
        :class:`~repro.core.node.DiscoveryNode`).
    fast:
        Allow the array core (:mod:`repro.core.arraystate`), which runs a
        plain call straight off the graph with no node objects; results
        are bit-identical, ``fast=False`` forces the object loop.
    """
    return run_discovery(
        graph, "generic", seed=seed, scheduler=scheduler, wake_order=wake_order,
        max_steps=max_steps, greedy_queries=greedy_queries, fast=fast,
    )
