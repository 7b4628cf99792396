"""The Bounded-model runner (Section 4.5.1, Theorems 4, 6).

In the Bounded model every node knows the size of its weakly connected
component.  The variant drops the ``unaware`` bookkeeping entirely; when a
leader's ``done`` set reaches the known component size it broadcasts one
final round of ``conquer`` messages and *terminates* -- the paper's answer
to the termination-detection question of Harchol-Balter et al.

Message complexity drops to ``O(n alpha(n, n))`` because the per-phase
conquer broadcasts of the Generic algorithm (the ``2 n log n`` term of
Lemma 5.8) are replaced by a single final broadcast of ``2n`` messages.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

from repro.core.result import DiscoveryResult
from repro.core.runner import run_discovery
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.scheduler import Scheduler

__all__ = ["run_bounded"]


def run_bounded(
    graph: KnowledgeGraph,
    *,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    wake_order: Optional[Sequence[Hashable]] = None,
    max_steps: Optional[int] = None,
    fast: bool = True,
) -> DiscoveryResult:
    """Run the Bounded algorithm on ``graph`` until quiescence.

    Component sizes are computed from the graph and given to each node,
    exactly the Bounded model's prior knowledge.  At quiescence each
    component's leader is in the ``terminated`` state (explicit termination
    detection, Theorem 4).
    """
    return run_discovery(
        graph, "bounded", seed=seed, scheduler=scheduler, wake_order=wake_order,
        max_steps=max_steps, fast=fast,
    )
