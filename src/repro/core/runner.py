"""Shared machinery for setting up and driving discovery executions."""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence

from repro.core.arraystate import offer_graph, run_graph
from repro.core.node import DiscoveryNode
from repro.core.result import DiscoveryResult, collect_columns, collect_result
from repro.graphs.components import weakly_connected_components
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.obs.events import Recorder
from repro.sim.network import ChannelInterceptor, Simulator
from repro.sim.scheduler import GlobalFifoScheduler, RandomScheduler, Scheduler

NodeId = Hashable

__all__ = [
    "build_simulation",
    "default_step_budget",
    "id_bits_for",
    "run_at_scale",
    "run_discovery",
    "transport_tuning",
]


def id_bits_for(n: int) -> int:
    """Bits per id for an ``n``-node system: ``ceil(log2 n)``, min 1."""
    if n <= 1:
        return 1
    return (n - 1).bit_length()


def transport_tuning(n: int, base_timeout: Optional[int] = None) -> Dict[str, int]:
    """Workload-scaled reliable-transport parameters for an ``n``-node run.

    The all-start-at-once discovery workload front-loads its congestion:
    the opening wave's queueing delay approaches ``base_timeout``, while
    the end-game (serial repair chains on the critical path) runs on a
    drained network where every RTO step is pure waiting.  So the adaptive
    RTO gets a floor well under ``base_timeout`` -- letting drained-phase
    repairs go fast -- and a ceiling under ``2x`` -- bounding how much a
    backoff ladder can stall the critical path under sustained loss.  Class defaults on :class:`~repro.faults.reliable.ReliableNode`
    stay conservative for small hand-built simulations; these values are
    tuned for the n-node discovery workload (``BENCH_faults.json``).
    """
    if base_timeout is None:
        base_timeout = max(32, 4 * n)
    min_rto = max(4, (3 * base_timeout) // 16)
    max_rto = max(min_rto, (7 * base_timeout) // 4)
    return {"base_timeout": base_timeout, "min_rto": min_rto, "max_rto": max_rto}


def default_step_budget(graph: KnowledgeGraph) -> int:
    """A generous step cap that still catches protocol livelocks.

    The algorithms send ``O(n log n)`` protocol messages plus at most
    ``O(|E0|)`` id reports, and every step is a wake-up or one delivery, so
    a large constant times that is safely above any correct execution.
    """
    n = max(graph.n, 2)
    log_n = n.bit_length()
    return 10_000 + 200 * n * (log_n + 2) + 50 * graph.n_edges


def build_simulation(
    graph: KnowledgeGraph,
    variant: str,
    *,
    seed: Optional[int] = None,
    scheduler: Optional[Scheduler] = None,
    keep_trace: bool = False,
    wake_order: Optional[Sequence[NodeId]] = None,
    auto_wake: bool = True,
    greedy_queries: bool = False,
    channel_discipline: str = "fifo",
    channel_seed: int = 0,
    faults: Optional[ChannelInterceptor] = None,
    reliable: bool = False,
    base_timeout: Optional[int] = None,
    max_retries: int = 6,
    obs: Optional[Recorder] = None,
    fast: bool = True,
) -> "tuple[Simulator, Dict[NodeId, DiscoveryNode]]":
    """Create a simulator with one :class:`DiscoveryNode` per graph node.

    ``scheduler`` wins over ``seed``; with neither, delivery is global-FIFO.
    With ``auto_wake`` every node gets a spontaneous wake-up scheduled in
    ``wake_order`` (default: graph order); pass ``auto_wake=False`` for
    custom wake-up regimes (e.g. the Union-Find reduction's sequential
    schedule, where only operation nodes wake spontaneously).

    ``faults`` attaches a :class:`~repro.sim.network.ChannelInterceptor`
    (typically a :class:`~repro.faults.FaultInjector`).  ``reliable=True``
    wraps every protocol node in the selective-repeat transport
    (:class:`~repro.faults.ReliableNode`, tuned by :func:`transport_tuning`)
    so the discovery algorithms keep their exactly-once FIFO model over a
    faulty network; the returned ``nodes`` dict always maps to the *inner*
    protocol nodes, which is what verification and monitoring expect
    (``sim.nodes`` holds the wrappers).

    ``obs`` attaches a :class:`~repro.obs.events.Recorder` so the run
    emits the typed observability events; the default ``None`` keeps the
    simulator on its near-zero-overhead disabled path.

    ``fast`` (default on) lets the simulator offer its runs to the array
    core (:mod:`repro.core.arraystate`), which takes them whenever the
    configuration qualifies; results are bit-identical either way, so
    ``fast=False`` exists for the benchmarks and the differential suites.
    """
    if scheduler is None:
        scheduler = RandomScheduler(seed) if seed is not None else GlobalFifoScheduler()
    sim = Simulator(
        scheduler,
        id_bits=id_bits_for(graph.n),
        keep_trace=keep_trace,
        channel_discipline=channel_discipline,
        channel_seed=channel_seed,
        faults=faults,
        obs=obs,
        fast=fast,
    )
    sizes: Dict[NodeId, int] = {}
    if variant == "bounded":
        for component in weakly_connected_components(graph):
            for member in component:
                sizes[member] = len(component)
    if reliable:
        # Imported here: repro.faults builds on the sim layer, and pulling
        # it in unconditionally would make the core depend on it even for
        # the (common) fault-free runs.
        from repro.faults.reliable import ReliableNode

        tuning = transport_tuning(graph.n, base_timeout)
    nodes: Dict[NodeId, DiscoveryNode] = {}
    for node_id in graph.nodes:
        node = DiscoveryNode(
            node_id,
            graph.successors(node_id),
            variant=variant,
            component_size=sizes.get(node_id),
            greedy_queries=greedy_queries,
        )
        nodes[node_id] = node
        if reliable:
            sim.add_node(ReliableNode(node, max_retries=max_retries, **tuning))
        else:
            sim.add_node(node)
    if auto_wake:
        for node_id in wake_order if wake_order is not None else graph.nodes:
            sim.schedule_wake(node_id)
    return sim, nodes


def run_at_scale(
    graph,
    variant: str = "generic",
    *,
    seed=None,
    max_steps=None,
    greedy_queries: bool = False,
    verify: bool = True,
):
    """The million-node entry point, :func:`repro.core.arraystate.run_graph`
    under its public name: no node objects (at n = 10^6 gigabytes before
    the first message) and no per-node result dicts either -- the columns
    are verified in place and summarized as a
    :class:`~repro.core.arraystate.ScaleResult`.  :func:`run_discovery`
    runs the same columns (same ``seed`` meaning, same execution) and
    returns the full ``DiscoveryResult``.
    """
    return run_graph(
        graph, variant, seed=seed, max_steps=max_steps,
        greedy_queries=greedy_queries, verify=verify,
    )


def run_discovery(
    graph: KnowledgeGraph, variant: str, *, seed=None, scheduler=None, wake_order=None,
    max_steps=None, greedy_queries=False, fast=True,
) -> DiscoveryResult:
    """One discovery to quiescence and its snapshot: the body of
    ``run_generic`` / ``run_bounded`` / ``run_adhoc`` (parameters there).

    Offered to the columns first (:func:`~repro.core.arraystate.offer_graph`:
    no node objects, no simulator); a declined run is ``build_simulation``
    + ``Simulator.run`` + ``collect_result``.  Bit-identical either way.
    """
    _declined, run = offer_graph(
        graph, variant, seed, scheduler, wake_order, max_steps, greedy_queries, fast
    )
    if run is not None:
        core, executed, stats, components = run
        return collect_columns(graph, core, variant, stats, executed, components)
    sim, nodes = build_simulation(
        graph, variant, seed=seed, scheduler=scheduler, wake_order=wake_order,
        greedy_queries=greedy_queries, fast=fast,
    )
    sim.run(max_steps if max_steps is not None else default_step_budget(graph))
    return collect_result(graph, nodes, sim, variant)
