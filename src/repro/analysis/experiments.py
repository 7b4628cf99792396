"""Experiment runners: one function per EXP of DESIGN.md section 5.

Each function runs the workload and returns ``(headers, rows)`` ready for
:func:`repro.analysis.tables.render_table`; a separate criterion function
checks the table's shape.  :data:`EXPERIMENT_TABLE` at the end states
each experiment once -- names, sizes, seeds, results file and criterion --
and the CLI's ``experiments``, ``report``, ``sweep`` and ``campaign``,
the tests and ``benchmarks/bench_tables.py`` all read it.
"""

from __future__ import annotations

import fnmatch
import inspect
import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.fitting import best_model
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
    complete_graph,
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
from repro.sim.scheduler import GlobalFifoScheduler, LifoScheduler, RandomScheduler
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
    "exp_variant_ordering",
    "exp_bounded_broadcast",
    "exp_scale",
    "exp_query_balancing",
    "exp_schedule_sensitivity",
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
# EXP-4b: the three variants on identical graphs (Theorems 5 and 6)
# ----------------------------------------------------------------------
def exp_variant_ordering(ns: Sequence[int] = (128, 512)) -> Table:
    """Ad-hoc < Bounded < Generic in messages on identical graphs."""
    headers = ["n", "generic msgs", "bounded msgs", "adhoc msgs"]
    rows: Rows = []
    for n in ns:
        graph = build_family("dense-random", n, seed=2)
        variants = ("generic", "bounded", "adhoc")
        rows.append([n] + [_run_variant(v, graph, 0).total_messages for v in variants])
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
# EXP-9b: the Bounded final broadcast (Theorem 4)
# ----------------------------------------------------------------------
def exp_bounded_broadcast(ns: Sequence[int] = (64, 256, 1024)) -> Table:
    headers = ["n", "conquer msgs", "more-done acks", "expected (n-1)"]
    rows: Rows = []
    for n in ns:
        graph = build_family("sparse-random", n, seed=5)
        stats = run_bounded(graph, seed=1).stats
        rows.append([n, stats.messages("conquer"), stats.messages("more-done"), n - 1])
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
# EXP-16: scale sanity -- the shapes persist at 16k nodes
# ----------------------------------------------------------------------
def exp_scale(ns: Sequence[int] = (1024, 4096, 16384)) -> Table:
    """The three algorithms on sparse random graphs far past the other
    tables' ~1k nodes, where ``alpha(n, n)`` is still 2-3 but ``log2 n``
    is 14.  Every run is verified and its lemma bounds checked here:
    a violation raises, since the table has no column for it."""
    headers = [
        "n",
        "generic msgs",
        "bounded msgs",
        "adhoc msgs",
        "generic/(n log n)",
        "adhoc/n",
        "conquer gap",
    ]
    rows: Rows = []
    for n in ns:
        graph = build_family("sparse-random", n, seed=n)
        msgs = {}
        for variant in ("generic", "bounded", "adhoc"):
            result = _run_variant(variant, graph, 1)
            verify_discovery(result, graph)
            checks = check_all_lemmas(result.stats, graph.n, graph.n_edges, variant)
            failed = [str(check) for check in checks if not check.holds]
            if failed:
                raise AssertionError(failed)
            msgs[variant] = result.total_messages
        rows.append(
            [
                n,
                msgs["generic"],
                msgs["bounded"],
                msgs["adhoc"],
                msgs["generic"] / (n * math.log2(n)),
                msgs["adhoc"] / n,
                msgs["generic"] - msgs["adhoc"],
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
# ABL-1: query balancing (Section 4.1's k = |more| + |done| + 1)
# ----------------------------------------------------------------------
def exp_query_balancing(ns: Sequence[int] = (64, 128, 256)) -> Table:
    """Balanced against greedy ask-for-everything queries on complete
    graphs: greedy queries forfeit the ``unexplored <= 2^(phase+1)``
    invariant behind Lemma 5.10, and the ids a doomed leader hoarded ride
    along in every ``info`` transfer."""
    headers = [
        "n",
        "info bits (balanced)",
        "info bits (greedy)",
        "blowup",
        "total bits (balanced)",
        "total bits (greedy)",
    ]
    rows: Rows = []
    for n in ns:
        graph = complete_graph(n)
        balanced = run_generic(graph, seed=0)
        greedy = run_generic(graph, seed=0, greedy_queries=True)
        info, greedy_info = balanced.stats.bits("info"), greedy.stats.bits("info")
        rows.append(
            [
                n,
                info,
                greedy_info,
                greedy_info / max(1, info),
                balanced.total_bits,
                greedy.total_bits,
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# ABL-2: delivery schedule sensitivity
# ----------------------------------------------------------------------
def exp_schedule_sensitivity(n: int = 256) -> Table:
    """Message counts under FIFO, LIFO and two random delivery orders:
    the theorems are worst-case over schedules, so all stay within the
    same envelope."""
    headers = ["variant", "fifo", "lifo", "random(3)", "random(11)", "max/min"]
    rows: Rows = []
    graph = build_family("dense-random", n, seed=7)
    for variant, runner in (
        ("generic", run_generic),
        ("bounded", run_bounded),
        ("adhoc", run_adhoc),
    ):
        counts = [
            runner(graph, scheduler=scheduler).total_messages
            for scheduler in (
                GlobalFifoScheduler(),
                LifoScheduler(),
                RandomScheduler(3),
                RandomScheduler(11),
            )
        ]
        rows.append([variant, *counts, max(counts) / min(counts)])
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
# Shape criteria: each raises AssertionError on a table that breaks the
# claimed shape; its docstring is the note recorded with the table
# ----------------------------------------------------------------------
def _groups(headers: List[str], rows: Rows, *keys: str) -> Dict[Any, Dict[str, List[Any]]]:
    """The rows as ``{header: column}`` per value of the ``keys`` columns
    (a tuple for several keys, ``()`` for none), columns in row order."""
    index = [headers.index(key) for key in keys]
    groups: Dict[Any, Dict[str, List[Any]]] = {}
    for row in rows:
        key = tuple(row[i] for i in index)
        group = groups.setdefault(key[0] if len(key) == 1 else key, {h: [] for h in headers})
        for header, cell in zip(headers, row):
            group[header].append(cell)
    return groups


def _columns(headers: List[str], rows: Rows) -> Dict[str, List[Any]]:
    return _groups(headers, rows)[()]


def _quantity(rows: Rows, pattern: str) -> Any:
    """The value of the one ``[quantity, value]`` row whose label matches
    ``pattern``; ``*`` stands for the sizes a label embeds."""
    (value,) = [value for label, value in rows if fnmatch.fnmatchcase(label, pattern)]
    return value


def criterion_tree_lower_bound(headers: List[str], rows: Rows) -> None:
    """Criterion: floor holds everywhere; measured/floor decreasing toward
    a constant (Theorem 1 vs Theorem 5 envelope)."""
    col = _columns(headers, rows)
    assert all(col["floor holds"])
    ratios = col["measured/floor"]
    assert all(b <= a for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] < 6.0


def criterion_unionfind_reduction(headers: List[str], rows: Rows) -> None:
    """Criterion: msgs/op bounded by a constant; msgs/(m alpha)
    non-increasing in n per schedule kind (Theorem 2 optimality)."""
    for kind, col in _groups(headers, rows, "schedule").items():
        assert max(col["msgs/op"]) <= 30, (kind, col["msgs/op"])
        ratios = col["msgs/(m alpha)"]
        assert ratios[-1] <= ratios[0] * 1.3, (kind, ratios)


def criterion_generic_messages(headers: List[str], rows: Rows) -> None:
    """Criterion: msgs/(n log n) bounded and non-increasing per family
    (Theorem 5)."""
    families = _groups(headers, rows, "family")
    for family, col in families.items():
        ratios = col["msgs/(n log n)"]
        assert max(ratios) < 4.0, (family, ratios)
        assert ratios[-1] <= ratios[0] * 1.15, (family, ratios)
    # n log n (or better) must explain the dense family; a quadratic
    # shape would mean a broken algorithm.
    dense = families["dense-random"]
    fit = best_model(dense["n"], dense["messages"])
    assert fit.model.name in ("n", "n alpha(n,n)", "n log n"), str(fit)


def criterion_near_linear_messages(headers: List[str], rows: Rows) -> None:
    """Criterion: msgs/n flat across a 16x range of n (Theorem 6)."""
    for key, col in _groups(headers, rows, "variant", "family").items():
        per_n = col["msgs/n"]
        assert max(per_n) <= 16, (key, per_n)
        assert max(per_n) / min(per_n) <= 1.35, (key, per_n)


def criterion_variant_ordering(headers: List[str], rows: Rows) -> None:
    """Criterion: adhoc < bounded < generic on every row."""
    col = _columns(headers, rows)
    for n, generic, bounded, adhoc in zip(
        col["n"], col["generic msgs"], col["bounded msgs"], col["adhoc msgs"]
    ):
        assert adhoc < bounded < generic, (n, generic, bounded, adhoc)


def criterion_bit_complexity(headers: List[str], rows: Rows) -> None:
    """Criterion: bits / (|E0| log n + n log^2 n) bounded by a small
    constant and non-increasing (Theorem 7)."""
    for family, col in _groups(headers, rows, "family").items():
        ratios = col["bits/bound"]
        assert max(ratios) <= 8.0, (family, ratios)
        assert ratios[-1] <= ratios[0] * 1.2, (family, ratios)


def criterion_message_lemmas(headers: List[str], rows: Rows) -> None:
    """Criterion: 'holds' on every row.  Lemma 5.5 and 5.7 use the
    corrected constants 6n and 3n (findings F4, F1); the paper's 4n / 2n
    are exceeded by real schedules."""
    assert all(_columns(headers, rows)["holds"]), [row for row in rows if not row[-1]]


def criterion_bounded_broadcast(headers: List[str], rows: Rows) -> None:
    """Criterion: conquer == more-done == n-1 exactly (Theorem 4)."""
    col = _columns(headers, rows)
    for conquers, acks, expected in zip(
        col["conquer msgs"], col["more-done acks"], col["expected (n-1)"]
    ):
        assert conquers == expected == acks


def criterion_dynamic_additions(headers: List[str], rows: Rows) -> None:
    """Criterion: per-join and per-link marginal messages are small
    constants; marginal << rerun (Theorem 8)."""
    assert _quantity(rows, "per node join") <= 40
    assert _quantity(rows, "per link add") <= 40
    marginal = _quantity(rows, "marginal messages for * node joins") + _quantity(
        rows, "marginal messages for * link adds"
    )
    assert marginal < _quantity(rows, "from-scratch rerun on final graph")


def criterion_baseline_comparison(headers: List[str], rows: Rows) -> None:
    """Criterion: flooding >> everyone in bits; adhoc <= bounded <=
    generic in messages; name-dropper bit-heavy vs deterministic
    algorithms (Section 1.1 relative ordering)."""
    col = _columns(headers, rows)
    bits = dict(zip(col["algorithm"], col["bits"]))
    msgs = dict(zip(col["algorithm"], col["messages"]))
    gossip_heavy = ("flooding", "swamping [2]", "name-dropper [2]")
    assert bits["flooding"] > 10 * max(v for k, v in bits.items() if k not in gossip_heavy)
    assert (
        msgs["ad-hoc (this paper)"]
        <= msgs["bounded (this paper)"]
        <= msgs["generic (this paper)"]
    )
    assert bits["name-dropper [2]"] > bits["generic (this paper)"]


def criterion_adhoc_probes(headers: List[str], rows: Rows) -> None:
    """Criterion: per-probe cost ~2 messages after compression; total
    within a constant of (m+n) alpha(m,n)."""
    assert _quantity(rows, "per probe") <= 4.0
    assert _quantity(rows, "probe+discovery / bound") <= 8.0


def criterion_strongly_connected(headers: List[str], rows: Rows) -> None:
    """Criterion: messages == 2(n-1) exactly (Section 1 observation)."""
    col = _columns(headers, rows)
    for n, messages in zip(col["n"], col["messages"]):
        assert messages == 2 * (n - 1), (n, messages)


def criterion_sequential_unionfind(headers: List[str], rows: Rows) -> None:
    """Criterion: compress/halve ratios flat (O(m alpha)); 'none' grows
    with n (the compression gap)."""
    series = {
        key: col["ops/(m alpha)"]
        for key, col in _groups(headers, rows, "workload", "find rule").items()
    }
    for rule in ("compress", "halve", "none"):
        ratios = series["rank/random", rule]
        assert max(ratios) <= 12, (rule, ratios)
        assert ratios[-1] <= ratios[0] * 1.3, (rule, ratios)
    compressed = series["naive/chain", "compress"]
    uncompressed = series["naive/chain", "none"]
    assert max(compressed) <= 12, compressed
    # The uncompressed adversarial curve grows ~linearly in n.
    assert uncompressed[-1] > 10 * compressed[-1], (uncompressed, compressed)
    assert uncompressed[-1] > 2 * uncompressed[0]


def criterion_time_complexity(headers: List[str], rows: Rows) -> None:
    """Criterion: generic/adhoc completion time Theta(n) (time/n flat);
    baselines polylog rounds; the gap widens with n."""
    col = _columns(headers, rows)
    per_n = col["generic time/n"]
    assert max(per_n) <= 8.0, per_n
    assert max(per_n) / min(per_n) <= 1.6, per_n
    for n, nd_rounds, ls_rounds in zip(
        col["n"], col["name-dropper rounds"], col["law-siu rounds"]
    ):
        assert nd_rounds <= 4 * math.log2(n) ** 2
        assert ls_rounds <= 30 * math.log2(n)
    # The linear-vs-polylog gap must widen: time/rounds grows with n.
    gaps = [t / r for t, r in zip(col["generic time"], col["name-dropper rounds"])]
    assert gaps[-1] > gaps[0], gaps


def criterion_scale(headers: List[str], rows: Rows) -> None:
    """Criterion: all invariants+lemmas hold at 16k nodes; generic/(n log
    n) falls; adhoc/n flat; generic-adhoc gap widens."""
    col = _columns(headers, rows)
    assert col["generic/(n log n)"][-1] < col["generic/(n log n)"][0]
    assert max(col["adhoc/n"]) / min(col["adhoc/n"]) <= 1.25
    gaps = col["conquer gap"]
    assert all(a < b for a, b in zip(gaps, gaps[1:])), gaps


def criterion_hbl_algorithms(headers: List[str], rows: Rows) -> None:
    """Criterion: swamping fewest rounds / most messages; name-dropper
    fewest messages ([2]'s trade-off table)."""
    for n, col in _groups(headers, rows, "n").items():
        rounds = dict(zip(col["algorithm"], col["rounds"]))
        msgs = dict(zip(col["algorithm"], col["messages"]))
        assert rounds["swamping"] <= min(rounds.values()) + 1, (n, rounds)
        assert msgs["swamping"] >= max(msgs[k] for k in ("pointer-jump", "name-dropper"))
        assert msgs["name-dropper"] == min(msgs.values()), (n, msgs)


def criterion_kp_bit_improvement(headers: List[str], rows: Rows) -> None:
    """Criterion: bit ratio kp-async/generic > 1 and growing with n (the
    log-factor the paper shaves off [3])."""
    col = _columns(headers, rows)
    ratios = col["bit ratio"]
    # The log factor separates the two only at scale.
    assert all(r > 1.5 for n, r in zip(col["n"], ratios) if n >= 1024), ratios
    assert ratios[-1] > ratios[0], ratios
    for n, kp_msgs, gen_msgs in zip(col["n"], col["kp msgs"], col["generic msgs"]):
        envelope = 6 * n * math.log2(n)
        assert kp_msgs <= envelope and gen_msgs <= envelope, (n, kp_msgs, gen_msgs)


def criterion_query_balancing(headers: List[str], rows: Rows) -> None:
    """Criterion: greedy queries inflate info bits by >5x on complete
    graphs (Lemma 5.10's invariant ablated)."""
    blowups = _columns(headers, rows)["blowup"]
    assert all(b > 5.0 for b in blowups), blowups


def criterion_schedule_sensitivity(headers: List[str], rows: Rows) -> None:
    """Criterion: message counts within a 2x band across delivery
    schedules (worst-case envelope is schedule-independent)."""
    spreads = _columns(headers, rows)["max/min"]
    assert all(s <= 2.0 for s in spreads), spreads


# ----------------------------------------------------------------------
# The experiment table: every experiment, its names, sizes and shape, once
# ----------------------------------------------------------------------
class ExperimentRow(NamedTuple):
    """One experiment as every reader sees it."""

    exp_id: Optional[str]  # ``experiments`` / ``report`` id; None: sweep-only
    name: Optional[str]  # job registry name; None: not sweepable
    runner: Callable[..., Table]  # module-level, so job specs stay picklable
    title: Optional[str]  # the report's section title
    full: Dict[str, Any]  # kwargs at full size: the committed table's
    quick: Dict[str, Any]  # kwargs at ``--quick`` size
    slug: Optional[str] = None  # ``benchmarks/results/<exp_id>-<slug>.*``
    criterion: Optional[Callable[[List[str], Rows], None]] = None

    @property
    def record(self) -> str:
        """The stem of the table's files under ``benchmarks/results/``."""
        return f"{self.exp_id}-{self.slug}"

    @property
    def notes(self) -> str:
        """The criterion's docstring as the one line recorded with the table."""
        return " ".join(inspect.getdoc(self.criterion).splitlines())


#: In report order.
EXPERIMENT_TABLE: Tuple[ExperimentRow, ...] = (
    ExperimentRow("EXP-1", None, exp_tree_lower_bound,
                  "Theorem 1 lower bound: adversarial executions on T(i)",
                  {"heights": (3, 4, 5, 6, 7, 8, 9, 10)}, {"heights": (3, 5, 7)},
                  "tree-lower-bound", criterion_tree_lower_bound),
    ExperimentRow("EXP-2", "unionfind-reduction", exp_unionfind_reduction,
                  "Theorem 2 / Lemma 3.1: the Union-Find reduction",
                  {"ns": (16, 32, 64, 128, 256), "seed": 1}, {"ns": (16, 32)},
                  "unionfind-reduction", criterion_unionfind_reduction),
    ExperimentRow("EXP-3", "generic-scaling", exp_generic_scaling,
                  "Theorem 5: Generic message scaling (O(n log n))",
                  {"ns": (64, 128, 256, 512, 1024),
                   "families": ("star", "sparse-random", "dense-random", "tree",
                                "grid", "community", "preferential"),
                   "seed": 1},
                  {"ns": (32, 64)},
                  "generic-messages", criterion_generic_messages),
    ExperimentRow("EXP-4", "near-linear", exp_near_linear_scaling,
                  "Theorem 6: Bounded/Ad-hoc near-linear scaling (O(n alpha))",
                  {"ns": (64, 128, 256, 512, 1024), "variants": ("bounded", "adhoc"),
                   "families": ("sparse-random", "dense-random")},
                  {"ns": (32, 64)},
                  "near-linear-messages", criterion_near_linear_messages),
    ExperimentRow("EXP-4b", None, exp_variant_ordering,
                  "Theorems 5 and 6: the three variants on identical graphs",
                  {"ns": (128, 512)}, {"ns": (64, 128)},
                  "variant-ordering", criterion_variant_ordering),
    ExperimentRow("EXP-5", "bit-complexity", exp_bit_complexity,
                  "Theorem 7: bit complexity",
                  {"ns": (64, 128, 256, 512),
                   "families": ("sparse-random", "dense-random", "layered"), "seed": 3},
                  {"ns": (32, 64)},
                  "bit-complexity", criterion_bit_complexity),
    ExperimentRow("EXP-6-9", "message-lemmas", exp_message_lemmas,
                  "Lemmas 5.5-5.8 + Theorem 7: per-message-type bounds",
                  {"ns": (64, 256, 1024), "variants": ("generic", "bounded", "adhoc")},
                  {"ns": (32,)},
                  "message-lemmas", criterion_message_lemmas),
    ExperimentRow("EXP-9b", None, exp_bounded_broadcast,
                  "Theorem 4: the Bounded final broadcast",
                  {"ns": (64, 256, 1024)}, {"ns": (32, 64)},
                  "bounded-broadcast", criterion_bounded_broadcast),
    ExperimentRow("EXP-10", "dynamic-additions", exp_dynamic_additions,
                  "Theorem 8: dynamic node and link additions",
                  {"n_initial": 256, "n_new": 128, "links_new": 128, "seed": 4},
                  {"n_initial": 32, "n_new": 8, "links_new": 8},
                  "dynamic-additions", criterion_dynamic_additions),
    ExperimentRow("EXP-11", "baseline-comparison", exp_baseline_comparison,
                  "Section 1.1: baseline comparison",
                  {"n": 512, "extra_edges_factor": 4, "seed": 5}, {"n": 64},
                  "baseline-comparison", criterion_baseline_comparison),
    ExperimentRow("EXP-12", "adhoc-probes", exp_adhoc_probes,
                  "Section 4.5.2: probe amortization",
                  {"n": 512, "probes": 2048, "seed": 6}, {"n": 64, "probes": 64},
                  "adhoc-probes", criterion_adhoc_probes),
    ExperimentRow("EXP-13", "strongly-connected", exp_strongly_connected,
                  "Section 1: strongly connected => O(n) messages",
                  {"ns": (64, 128, 256, 512, 1024), "seed": 2}, {"ns": (32, 64)},
                  "strongly-connected", criterion_strongly_connected),
    ExperimentRow("EXP-14", "sequential-unionfind", exp_sequential_unionfind,
                  "Union-Find substrate cost curves",
                  {"ns": (256, 1024, 4096, 16384), "seed": 0}, {"ns": (64, 256)},
                  "sequential-unionfind", criterion_sequential_unionfind),
    ExperimentRow("EXP-15", "time-complexity", exp_time_complexity,
                  "Section 7: time complexity (O(T + n) vs polylog rounds)",
                  {"ns": (64, 128, 256, 512), "seed": 2}, {"ns": (32, 64)},
                  "time-complexity", criterion_time_complexity),
    ExperimentRow("EXP-16", None, exp_scale,
                  "Scale sanity: the shapes persist at 16k nodes",
                  {"ns": (1024, 4096, 16384)}, {"ns": (256, 512, 1024)},
                  "scale", criterion_scale),
    ExperimentRow("EXP-17", "hbl-algorithms", exp_hbl_algorithms,
                  "Harchol-Balter/Leighton/Lewin [2]: internal comparison",
                  {"ns": (32, 64, 128, 256), "seed": 1}, {"ns": (16, 32)},
                  "hbl-algorithms", criterion_hbl_algorithms),
    ExperimentRow("EXP-18", "kp-bit-improvement", exp_kp_bit_improvement,
                  "The bit-complexity improvement over Kutten-Peleg [3]",
                  {"ns": (128, 256, 512, 1024, 2048), "seed": 0}, {"ns": (64, 128)},
                  "kp-bit-improvement", criterion_kp_bit_improvement),
    ExperimentRow("EXP-19", "service-slo", exp_service_slo,
                  "Theorem 8 as a service: latency SLOs under open-loop load",
                  {"n": 128, "rate": 8.0, "duration": 4000},
                  {"n": 24, "rate": 6.0, "duration": 800}),
    ExperimentRow("ABL-1", None, exp_query_balancing,
                  "Section 4.1 ablation: balanced against greedy queries",
                  {"ns": (64, 128, 256)}, {"ns": (32, 64)},
                  "query-balancing", criterion_query_balancing),
    ExperimentRow("ABL-2", None, exp_schedule_sensitivity,
                  "Ablation: message counts across delivery schedules",
                  {"n": 256}, {"n": 64},
                  "schedule-sensitivity", criterion_schedule_sensitivity),
    ExperimentRow(None, "chaos", exp_chaos, None,
                  {}, {"scenarios": ("baseline", "loss-10", "crash-2"), "n": 24}),
)

#: The seed-taking runners by the names campaign cells (`repro.parallel.jobs`),
#: ``sweep --exp`` and ``campaign init --exp`` use.  A plain dict: tests
#: register extra jobs in it.
SWEEPABLE_EXPERIMENTS: Dict[str, Callable[..., Table]] = {
    row.name: row.runner for row in EXPERIMENT_TABLE if row.name
}

#: The ``--quick`` kwargs of ``sweep`` and ``campaign init`` per registry name.
QUICK_SWEEP_KWARGS: Dict[str, Dict[str, Any]] = {
    row.name: row.quick for row in EXPERIMENT_TABLE if row.name
}
