"""Experiment runners: one function per EXP of DESIGN.md section 5.

Each function runs the workload, returns ``(headers, rows)`` ready for
:func:`repro.analysis.tables.render_table`, and asserts nothing itself --
the tests and EXPERIMENTS.md assert the shape criteria; the benchmarks
print the tables.  Keeping the runners here lets unit tests, benchmarks
and examples share one implementation.  :data:`EXPERIMENT_TABLE` at the
end names each one and states its sizes; the CLI's ``experiments``,
``report``, ``sweep`` and ``campaign`` read it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.baselines import (
    run_flooding,
    run_kpv_style,
    run_law_siu,
    run_name_dropper,
    run_pointer_jump,
    run_strong_election,
    run_swamping,
)
from repro.core.adhoc import AdhocNetwork, run_adhoc
from repro.core.bounded import run_bounded
from repro.core.generic import run_generic
from repro.graphs.generators import (
    community_graph,
    complete_binary_tree,
    dense_layered,
    erdos_renyi,
    grid,
    preferential_attachment,
    random_strongly_connected,
    random_weakly_connected,
    star,
)
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.reduction import (
    binomial_merge_schedule,
    interleaved_find_schedule,
    random_schedule,
)
from repro.lowerbounds.tree_adversary import run_tree_lower_bound
from repro.lowerbounds.unionfind_reduction import run_reduction
from repro.unionfind.ackermann import alpha, ilog2
from repro.unionfind.disjoint_set import DisjointSet
from repro.verification.invariants import verify_discovery
from repro.verification.lemmas import check_all_lemmas

Rows = List[List[Any]]
Table = Tuple[List[str], Rows]

__all__ = [
    "EXPERIMENT_TABLE",
    "GRAPH_FAMILIES",
    "SWEEPABLE_EXPERIMENTS",
    "QUICK_SWEEP_KWARGS",
    "build_family",
    "exp_generic_scaling",
    "exp_near_linear_scaling",
    "exp_bit_complexity",
    "exp_message_lemmas",
    "exp_tree_lower_bound",
    "exp_unionfind_reduction",
    "exp_dynamic_additions",
    "exp_baseline_comparison",
    "exp_chaos",
    "exp_adhoc_probes",
    "exp_strongly_connected",
    "exp_sequential_unionfind",
    "exp_time_complexity",
    "exp_hbl_algorithms",
    "exp_kp_bit_improvement",
    "exp_service_slo",
]

#: The graph families used across the scaling experiments; every builder
#: takes ``(n, seed)`` and returns a weakly connected knowledge graph with
#: roughly ``n`` nodes.
GRAPH_FAMILIES: Dict[str, Callable[[int, int], KnowledgeGraph]] = {
    "star": lambda n, seed: star(n),
    "sparse-random": lambda n, seed: random_weakly_connected(n, n, seed),
    "dense-random": lambda n, seed: random_weakly_connected(
        n, n * max(1, ilog2(max(2, n))), seed
    ),
    "tree": lambda n, seed: complete_binary_tree(max(2, (n + 1).bit_length() - 1)),
    "preferential": lambda n, seed: preferential_attachment(n, 3, seed),
    "layered": lambda n, seed: dense_layered(
        max(2, n // max(1, ilog2(max(2, n)))), max(1, ilog2(max(2, n)))
    ),
    "grid": lambda n, seed: grid(
        max(1, int(n**0.5)), max(1, round(n / max(1, int(n**0.5))))
    ),
    "community": lambda n, seed: community_graph(
        max(1, n // 16), min(16, n), p_internal=0.25, seed=seed
    ),
}


def build_family(family: str, n: int, seed: int = 0) -> KnowledgeGraph:
    """Instantiate one of :data:`GRAPH_FAMILIES`."""
    return GRAPH_FAMILIES[family](n, seed)


def _run_variant(variant: str, graph: KnowledgeGraph, seed: int):
    if variant == "generic":
        return run_generic(graph, seed=seed)
    if variant == "bounded":
        return run_bounded(graph, seed=seed)
    if variant == "adhoc":
        return run_adhoc(graph, seed=seed)
    raise ValueError(f"unknown variant {variant!r}")


# ----------------------------------------------------------------------
# EXP-3: Generic message scaling (Theorem 5)
# ----------------------------------------------------------------------
def exp_generic_scaling(
    ns: Sequence[int] = (64, 128, 256, 512),
    families: Sequence[str] = ("star", "sparse-random", "dense-random"),
    seed: int = 0,
) -> Table:
    headers = ["family", "n", "|E0|", "messages", "msgs/(n log n)", "msgs/n"]
    rows: Rows = []
    for family in families:
        for n in ns:
            graph = build_family(family, n, seed)
            result = run_generic(graph, seed=seed)
            verify_discovery(result, graph)
            n_log_n = graph.n * math.log2(max(2, graph.n))
            rows.append(
                [
                    family,
                    graph.n,
                    graph.n_edges,
                    result.total_messages,
                    result.total_messages / n_log_n,
                    result.total_messages / graph.n,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-4: Bounded and Ad-hoc near-linear scaling (Theorem 6)
# ----------------------------------------------------------------------
def exp_near_linear_scaling(
    ns: Sequence[int] = (64, 128, 256, 512),
    variants: Sequence[str] = ("bounded", "adhoc"),
    families: Sequence[str] = ("sparse-random", "dense-random"),
    seed: int = 0,
) -> Table:
    headers = ["variant", "family", "n", "messages", "msgs/(n alpha)", "msgs/n"]
    rows: Rows = []
    for variant in variants:
        for family in families:
            for n in ns:
                graph = build_family(family, n, seed)
                result = _run_variant(variant, graph, seed)
                verify_discovery(result, graph)
                n_alpha = graph.n * alpha(graph.n, graph.n)
                rows.append(
                    [
                        variant,
                        family,
                        graph.n,
                        result.total_messages,
                        result.total_messages / n_alpha,
                        result.total_messages / graph.n,
                    ]
                )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-5: bit complexity (Theorem 7)
# ----------------------------------------------------------------------
def exp_bit_complexity(
    ns: Sequence[int] = (64, 128, 256, 512),
    families: Sequence[str] = ("sparse-random", "dense-random", "layered"),
    seed: int = 0,
) -> Table:
    headers = ["family", "n", "|E0|", "bits", "bits/bound"]
    rows: Rows = []
    for family in families:
        for n in ns:
            graph = build_family(family, n, seed)
            result = run_generic(graph, seed=seed)
            log_n = math.log2(max(2, graph.n))
            bound = graph.n_edges * log_n + graph.n * log_n**2
            rows.append(
                [family, graph.n, graph.n_edges, result.total_bits, result.total_bits / bound]
            )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-6..9: the per-message-type lemmas
# ----------------------------------------------------------------------
def exp_message_lemmas(
    ns: Sequence[int] = (64, 256),
    variants: Sequence[str] = ("generic", "bounded", "adhoc"),
    family: str = "dense-random",
    seed: int = 0,
) -> Table:
    headers = ["variant", "n", "lemma", "measured", "bound", "holds"]
    rows: Rows = []
    for variant in variants:
        for n in ns:
            graph = build_family(family, n, seed)
            result = _run_variant(variant, graph, seed)
            for check in check_all_lemmas(
                result.stats, graph.n, graph.n_edges, variant
            ):
                rows.append(
                    [variant, graph.n, check.name, check.measured, check.bound, check.holds]
                )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-1: Theorem 1 adversarial lower bound
# ----------------------------------------------------------------------
def exp_tree_lower_bound(heights: Sequence[int] = (3, 5, 7, 9)) -> Table:
    headers = ["height", "n", "measured msgs", "thm-1 floor", "measured/floor", "floor holds"]
    rows: Rows = []
    for height in heights:
        outcome = run_tree_lower_bound(height)
        rows.append(
            [
                height,
                outcome.n,
                outcome.measured_messages,
                outcome.theorem_floor,
                outcome.measured_messages / max(1, outcome.theorem_floor),
                outcome.respects_floor,
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-2: Union-Find reduction (Lemma 3.1 / Theorem 2)
# ----------------------------------------------------------------------
def exp_unionfind_reduction(
    ns: Sequence[int] = (16, 32, 64), seed: int = 0
) -> Table:
    headers = ["schedule", "n_sets", "ops", "messages", "msgs/op", "msgs/(m alpha)"]
    rows: Rows = []
    for n in ns:
        for name, schedule in (
            ("random", random_schedule(n, n, seed=seed)),
            ("binomial", binomial_merge_schedule(n, 2, seed=seed)),
            ("chain", interleaved_find_schedule(n, 2, seed=seed)),
        ):
            outcome = run_reduction(n, schedule, verify=False)
            rows.append(
                [
                    name,
                    n,
                    outcome.n_operations,
                    outcome.total_messages,
                    outcome.total_messages / max(1, outcome.n_operations),
                    outcome.alpha_bound_ratio,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-10: dynamic additions (Theorem 8)
# ----------------------------------------------------------------------
def exp_dynamic_additions(
    n_initial: int = 128,
    n_new: int = 64,
    links_new: int = 64,
    seed: int = 7,
) -> Table:
    """Incremental cost of additions vs. re-running from scratch.

    Builds an initial network, then adds ``n_new`` nodes and ``links_new``
    links one at a time, measuring the *marginal* messages per addition;
    compares the total against the cost of running discovery from scratch
    on the final graph.
    """
    import random as _random

    rng = _random.Random(seed)
    graph = random_weakly_connected(n_initial, 2 * n_initial, seed)
    net = AdhocNetwork(graph, seed=seed)
    net.run()
    base_messages = net.stats.total_messages

    headers = ["quantity", "value"]
    before = net.stats.snapshot()
    next_id = n_initial
    for _ in range(n_new):
        known = rng.sample(net.graph.nodes, k=min(3, len(net.graph.nodes)))
        net.add_node(next_id, known)
        next_id += 1
        net.run()
    node_delta = net.stats.delta_since(before).total_messages

    before = net.stats.snapshot()
    for _ in range(links_new):
        u, v = rng.sample(net.graph.nodes, k=2)
        net.add_link(u, v)
        net.run()
    link_delta = net.stats.delta_since(before).total_messages

    verify_discovery(net.result(), net.graph)
    scratch = run_adhoc(net.graph, seed=seed)
    rows: Rows = [
        ["initial run messages (n=%d)" % n_initial, base_messages],
        ["marginal messages for %d node joins" % n_new, node_delta],
        ["per node join", node_delta / max(1, n_new)],
        ["marginal messages for %d link adds" % links_new, link_delta],
        ["per link add", link_delta / max(1, links_new)],
        ["incremental total", net.stats.total_messages],
        ["from-scratch rerun on final graph", scratch.total_messages],
    ]
    return headers, rows


# ----------------------------------------------------------------------
# EXP-11: baseline comparison
# ----------------------------------------------------------------------
def exp_baseline_comparison(
    n: int = 256, extra_edges_factor: int = 4, seed: int = 3
) -> Table:
    graph = random_weakly_connected(n, extra_edges_factor * n, seed)
    headers = ["algorithm", "model", "messages", "bits", "rounds/steps"]
    rows: Rows = []
    for name, runner, model in (
        ("flooding", lambda: run_flooding(graph), "sync"),
        ("swamping [2]", lambda: run_swamping(graph), "sync"),
        ("name-dropper [2]", lambda: run_name_dropper(graph, seed=seed), "sync, randomized"),
        ("law-siu [5]", lambda: run_law_siu(graph, seed=seed), "sync, randomized"),
        ("kpv-style [4]", lambda: run_kpv_style(graph), "sync, deterministic"),
        ("generic (this paper)", lambda: run_generic(graph, seed=seed), "async, deterministic"),
        ("bounded (this paper)", lambda: run_bounded(graph, seed=seed), "async, knows n"),
        ("ad-hoc (this paper)", lambda: run_adhoc(graph, seed=seed), "async, relaxed prop. 3"),
    ):
        result = runner()
        rounds = result.rounds if hasattr(result, "rounds") else result.steps
        rows.append([name, model, result.total_messages, result.total_bits, rounds])
    return headers, rows


# ----------------------------------------------------------------------
# EXP-12: Ad-hoc probes amortization
# ----------------------------------------------------------------------
def exp_adhoc_probes(n: int = 256, probes: int = 512, seed: int = 11) -> Table:
    import random as _random

    rng = _random.Random(seed)
    graph = random_weakly_connected(n, 2 * n, seed)
    net = AdhocNetwork(graph, seed=seed)
    net.run()
    discovery_messages = net.stats.total_messages
    before = net.stats.snapshot()
    for _ in range(probes):
        net.probe(rng.choice(graph.nodes))
    probe_delta = net.stats.delta_since(before)
    m = probes
    bound = (m + graph.n) * alpha(max(1, m), graph.n)
    headers = ["quantity", "value"]
    rows: Rows = [
        ["discovery messages", discovery_messages],
        ["probe messages for %d probes" % probes, probe_delta.total_messages],
        ["per probe", probe_delta.total_messages / probes],
        ["amortized bound (m+n) alpha(m,n)", bound],
        ["probe+discovery / bound", (probe_delta.total_messages + discovery_messages) / bound],
    ]
    return headers, rows


# ----------------------------------------------------------------------
# EXP-13: strongly connected O(n)
# ----------------------------------------------------------------------
def exp_strongly_connected(ns: Sequence[int] = (64, 128, 256, 512), seed: int = 0) -> Table:
    headers = ["n", "messages", "messages/n", "bits"]
    rows: Rows = []
    for n in ns:
        graph = random_strongly_connected(n, n, seed)
        result = run_strong_election(graph)
        rows.append(
            [graph.n, result.total_messages, result.total_messages / graph.n, result.total_bits]
        )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-14: sequential Union-Find cost curves
# ----------------------------------------------------------------------
def exp_sequential_unionfind(
    ns: Sequence[int] = (256, 1024, 4096), seed: int = 0
) -> Table:
    """Two workloads per size:

    * ``rank`` linking with a random union/find mix -- every find rule is
      near-linear there (union by rank alone bounds depths by ``log n``;
      at these depths compression's extra pointer writes can even exceed
      its savings, which the table makes visible);
    * ``naive`` linking with chain-building unions and many finds -- the
      adversarial regime where path compression's asymptotic win shows:
      uncompressed finds pay the chain depth, compressed ones flatten it.
    """
    import random as _random

    headers = ["workload", "n", "find rule", "pointer ops", "ops/(m alpha)"]
    rows: Rows = []
    for n in ns:
        rng = _random.Random(seed)
        operations = []
        order = list(range(1, n))
        rng.shuffle(order)
        for i in order:
            operations.append(("union", rng.randrange(i), i))
        for _ in range(n):
            operations.append(("find", rng.randrange(n), None))
        rng.shuffle(operations)
        m = len(operations)
        for rule in ("compress", "halve", "none"):
            ds = DisjointSet(range(n), link_rule="rank", find_rule=rule)
            for kind, a, b in operations:
                if kind == "union":
                    ds.union(a, b)
                else:
                    ds.find(a)
            rows.append(
                [
                    "rank/random",
                    n,
                    rule,
                    ds.counter.total,
                    ds.counter.total / (m * alpha(m, n)),
                ]
            )
        # Adversarial chains: naive linking, sequential unions, then finds.
        find_targets = [rng.randrange(n) for _ in range(2 * n)]
        m2 = (n - 1) + len(find_targets)
        for rule in ("compress", "none"):
            ds = DisjointSet(range(n), link_rule="naive", find_rule=rule)
            for i in range(1, n):
                ds.union(i - 1, i)
            for target in find_targets:
                ds.find(target)
            rows.append(
                [
                    "naive/chain",
                    n,
                    rule,
                    ds.counter.total,
                    ds.counter.total / (m2 * alpha(m2, n)),
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-15: time complexity (Section 7 discussion)
# ----------------------------------------------------------------------
def exp_time_complexity(
    ns: Sequence[int] = (64, 128, 256, 512), seed: int = 0
) -> Table:
    """Completion time under the normalized async time measure (every
    message takes one unit; :class:`~repro.sim.timed.TimedScheduler`)
    against the synchronous baselines' round counts.

    Expected shape (Section 7): this paper's algorithms take Theta(n) time
    (conquests serialize along the (phase, id) order) while the
    synchronous baselines finish in polylogarithmic rounds -- the paper
    trades time for asynchrony, determinism and optimal messages.
    """
    from repro.baselines import run_law_siu, run_name_dropper
    from repro.core.runner import build_simulation
    from repro.sim.timed import TimedScheduler

    headers = [
        "n",
        "generic time",
        "adhoc time",
        "generic time/n",
        "name-dropper rounds",
        "law-siu rounds",
    ]
    rows: Rows = []
    for n in ns:
        graph = random_weakly_connected(n, 2 * n, seed)
        times = {}
        for variant in ("generic", "adhoc"):
            scheduler = TimedScheduler()
            sim, nodes = build_simulation(graph, variant, scheduler=scheduler)
            sim.run(10**7)
            times[variant] = scheduler.now
        nd = run_name_dropper(graph, seed=seed)
        ls = run_law_siu(graph, seed=seed)
        rows.append(
            [
                graph.n,
                times["generic"],
                times["adhoc"],
                times["generic"] / graph.n,
                nd.rounds,
                ls.rounds,
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-17: the four algorithms of Harchol-Balter, Leighton, Lewin [2]
# ----------------------------------------------------------------------
def exp_hbl_algorithms(
    ns: Sequence[int] = (32, 64, 128), seed: int = 0
) -> Table:
    """Reproduces [2]'s internal comparison on strongly connected graphs
    (the only setting where all four of its algorithms converge):
    flooding is round-optimal-ish but message-heavy; swamping converges
    fastest but floods bits; random pointer jump is frugal per round but
    needs more rounds; Name-Dropper balances both -- which is why the
    paper's related-work discussion singles it out.
    """
    headers = ["algorithm", "n", "rounds", "messages", "bits"]
    rows: Rows = []
    for n in ns:
        graph = random_strongly_connected(n, 2 * n, seed)
        for name, runner in (
            ("flooding", lambda g=graph: run_flooding(g)),
            ("swamping", lambda g=graph: run_swamping(g)),
            ("pointer-jump", lambda g=graph: run_pointer_jump(g, seed=seed)),
            ("name-dropper", lambda g=graph: run_name_dropper(g, seed=seed)),
        ):
            result = runner()
            rows.append([name, graph.n, result.rounds, result.total_messages, result.total_bits])
    return headers, rows


# ----------------------------------------------------------------------
# EXP-18: the bit-complexity improvement over Kutten-Peleg [3]
# ----------------------------------------------------------------------
def exp_kp_bit_improvement(
    ns: Sequence[int] = (128, 256, 512, 1024), seed: int = 0
) -> Table:
    """The paper's headline vs [3]: O(|E0| log n + n log^2 n) bits against
    O(|E0| log^2 n).  Both algorithms run asynchronously on identical dense
    graphs (|E0| ~ n log n, the regime where the terms separate); the
    KP-style baseline re-ships whole frontiers at each merge while the
    Generic algorithm drip-feeds ids with the Section 4.1 balance.  The
    expected shape: the bit ratio grows with n (one log factor)."""
    from repro.baselines.kp_async import run_kp_async

    headers = ["n", "|E0|", "kp-async bits", "generic bits", "bit ratio", "kp msgs", "generic msgs"]
    rows: Rows = []
    for n in ns:
        graph = random_weakly_connected(n, n * max(1, ilog2(max(2, n))), seed)
        kp = run_kp_async(graph, seed=seed)
        gen = run_generic(graph, seed=seed)
        rows.append(
            [
                graph.n,
                graph.n_edges,
                kp.total_bits,
                gen.total_bits,
                kp.total_bits / gen.total_bits,
                kp.total_messages,
                gen.total_messages,
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# EXP-chaos: degradation under fault injection (DESIGN.md section 9)
# ----------------------------------------------------------------------
def exp_chaos(*args: Any, **kwargs: Any) -> Table:
    """Degradation table over fault scenarios; see
    :func:`repro.faults.harness.exp_chaos` for the real implementation.

    This thin module-level wrapper exists so the chaos sweep is
    addressable through the job registry by a picklable name without a
    circular import (``repro.faults.harness`` builds on this module's
    graph families).
    """
    from repro.faults.harness import exp_chaos as _exp_chaos

    return _exp_chaos(*args, **kwargs)


# ----------------------------------------------------------------------
# EXP-19: steady-state service SLOs (Theorem 8 under open-loop load)
# ----------------------------------------------------------------------
def exp_service_slo(
    n: int = 64,
    rate: float = 8.0,
    duration: int = 3000,
    kinds: Sequence[str] = ("poisson", "constant", "bursty"),
    family: str = "sparse-random",
    seed: int = 7,
) -> Table:
    """Run the discovery service under each workload kind and compare SLOs.

    One row per arrival process at the same offered rate: latency
    percentiles, throughput, amortized message cost and its
    ``alpha(m, n + n-hat)``-normalized form (Theorem 8 says the latter
    stays bounded), plus reconvergence lag for the bursty row.  Imported
    lazily so the job registry can address this runner without pulling
    the service package into every sweep worker.
    """
    from repro.core.adhoc import AdhocNetwork as _AdhocNetwork
    from repro.service import ServiceDriver, build_workload, summarize_service

    headers = [
        "workload",
        "ops",
        "p50",
        "p95",
        "p99",
        "probes/kstep",
        "msgs/op",
        "msgs/(op*alpha)",
        "reconv lag max",
    ]
    rows: Rows = []
    for kind in kinds:
        graph = build_family(family, n, seed)
        workload = build_workload(kind, graph, rate=rate, duration=duration, seed=seed)
        net = _AdhocNetwork(graph, seed=seed)
        report = ServiceDriver(net, workload).run()
        summary = summarize_service(report)
        rows.append(
            [
                kind,
                summary.operations,
                summary.latency_p50 if summary.latency_p50 is not None else "-",
                summary.latency_p95 if summary.latency_p95 is not None else "-",
                summary.latency_p99 if summary.latency_p99 is not None else "-",
                round(summary.throughput_per_kstep, 2),
                round(summary.amortized_cost, 2),
                round(summary.amortized_over_alpha, 2),
                summary.reconvergence_lag_max
                if summary.reconvergence_lag_max is not None
                else "-",
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# The experiment table: every experiment, its names and its sizes, once
# ----------------------------------------------------------------------
class ExperimentRow(NamedTuple):
    """One experiment as every reader sees it."""

    exp_id: Optional[str]  # ``experiments`` / ``report`` id; None: sweep-only
    name: Optional[str]  # job registry name; None: the runner takes no seed
    runner: Callable[..., Table]  # module-level, so job specs stay picklable
    title: Optional[str]  # the report's section title
    full: Dict[str, Any]  # kwargs at full size
    quick: Dict[str, Any]  # kwargs at ``--quick`` size


#: In report order.
EXPERIMENT_TABLE: Tuple[ExperimentRow, ...] = (
    ExperimentRow("EXP-1", None, exp_tree_lower_bound,
                  "Theorem 1 lower bound: adversarial executions on T(i)",
                  {"heights": (3, 4, 5, 6, 7, 8, 9, 10)}, {"heights": (3, 5, 7)}),
    ExperimentRow("EXP-2", "unionfind-reduction", exp_unionfind_reduction,
                  "Theorem 2 / Lemma 3.1: the Union-Find reduction",
                  {"ns": (16, 32, 64, 128, 256)}, {"ns": (16, 32)}),
    ExperimentRow("EXP-3", "generic-scaling", exp_generic_scaling,
                  "Theorem 5: Generic message scaling (O(n log n))",
                  {"ns": (64, 128, 256, 512, 1024)}, {"ns": (32, 64)}),
    ExperimentRow("EXP-4", "near-linear", exp_near_linear_scaling,
                  "Theorem 6: Bounded/Ad-hoc near-linear scaling (O(n alpha))",
                  {"ns": (64, 128, 256, 512, 1024)}, {"ns": (32, 64)}),
    ExperimentRow("EXP-5", "bit-complexity", exp_bit_complexity,
                  "Theorem 7: bit complexity",
                  {"ns": (64, 128, 256, 512)}, {"ns": (32, 64)}),
    ExperimentRow("EXP-6-9", "message-lemmas", exp_message_lemmas,
                  "Lemmas 5.5-5.8 + Theorem 7: per-message-type bounds",
                  {"ns": (64, 256, 1024)}, {"ns": (32,)}),
    ExperimentRow("EXP-10", "dynamic-additions", exp_dynamic_additions,
                  "Theorem 8: dynamic node and link additions",
                  {"n_initial": 256, "n_new": 128, "links_new": 128},
                  {"n_initial": 32, "n_new": 8, "links_new": 8}),
    ExperimentRow("EXP-11", "baseline-comparison", exp_baseline_comparison,
                  "Section 1.1: baseline comparison",
                  {"n": 512}, {"n": 64}),
    ExperimentRow("EXP-12", "adhoc-probes", exp_adhoc_probes,
                  "Section 4.5.2: probe amortization",
                  {"n": 512, "probes": 2048}, {"n": 64, "probes": 64}),
    ExperimentRow("EXP-13", "strongly-connected", exp_strongly_connected,
                  "Section 1: strongly connected => O(n) messages",
                  {"ns": (64, 128, 256, 512, 1024)}, {"ns": (32, 64)}),
    ExperimentRow("EXP-14", "sequential-unionfind", exp_sequential_unionfind,
                  "Union-Find substrate cost curves",
                  {"ns": (256, 1024, 4096, 16384)}, {"ns": (64, 256)}),
    ExperimentRow("EXP-15", "time-complexity", exp_time_complexity,
                  "Section 7: time complexity (O(T + n) vs polylog rounds)",
                  {"ns": (64, 128, 256, 512)}, {"ns": (32, 64)}),
    ExperimentRow("EXP-17", "hbl-algorithms", exp_hbl_algorithms,
                  "Harchol-Balter/Leighton/Lewin [2]: internal comparison",
                  {"ns": (32, 64, 128, 256)}, {"ns": (16, 32)}),
    ExperimentRow("EXP-18", "kp-bit-improvement", exp_kp_bit_improvement,
                  "The bit-complexity improvement over Kutten-Peleg [3]",
                  {"ns": (128, 256, 512, 1024, 2048)}, {"ns": (64, 128)}),
    ExperimentRow("EXP-19", "service-slo", exp_service_slo,
                  "Theorem 8 as a service: latency SLOs under open-loop load",
                  {"n": 128, "rate": 8.0, "duration": 4000},
                  {"n": 24, "rate": 6.0, "duration": 800}),
    ExperimentRow(None, "chaos", exp_chaos, None,
                  {}, {"scenarios": ("baseline", "loss-10", "crash-2"), "n": 24}),
)

#: The seed-taking runners by the names the job system (`repro.parallel`),
#: ``sweep --exp`` and ``campaign init --exp`` use.  A plain dict: tests
#: register extra jobs in it.
SWEEPABLE_EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    row.name: row.runner for row in EXPERIMENT_TABLE if row.name
}

#: The ``--quick`` kwargs of ``sweep`` and ``campaign init`` per registry name.
QUICK_SWEEP_KWARGS: Dict[str, Dict[str, Any]] = {
    row.name: row.quick for row in EXPERIMENT_TABLE if row.name
}
