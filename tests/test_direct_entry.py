"""The direct entry, held to the object run.

``run_generic`` / ``run_bounded`` / ``run_adhoc`` offer a plain call to
the columns (``arraystate.offer_graph``): no simulator, no node objects,
the ``DiscoveryResult`` read off the columns.  A declined call builds the
objects as ever.  Three things are pinned here:

* differential -- whatever the arguments, ``run_*(...)`` equals
  ``run_*(..., fast=False)`` field by field *and in every dict order*, or
  raises the same exception type and text;
* engagement -- a plain call really skips the objects, and each decline
  name is returned by the offer for its condition, with nothing touched;
* the CLI's ``run`` reaches the direct entry and prints what it printed
  when it handed ``run_*`` a scheduler instance.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.analysis.experiments import GRAPH_FAMILIES, build_family
from repro.core import arrayloop, arraystate, runner
from repro.core.node import VARIANTS, DiscoveryNode, ProtocolError
from repro.core.runner import build_simulation
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.sim.network import SimNode, StepLimitExceeded
from repro.sim.scheduler import GlobalFifoScheduler, RandomScheduler
from tests.conftest import RUNNERS, array_engaged, gate_says
from tests.test_handback import PINNED, planted_raise

#: ``int -> id``: opaque ids of every shape the model allows (natural
#: order and repr order disagree for all but the first).
ID_TYPES = {
    "int": lambda i: i,
    "string": lambda i: f"peer-{i}",
    "tuple": lambda i: (i % 3, f"n{i}"),
    "negative": lambda i: 7 - 3 * i,
    "float": lambda i: i * 0.5 - 4.25,
}


def relabel(graph, make_id):
    names = {x: make_id(x) for x in graph.nodes}
    return KnowledgeGraph(
        names.values(), [(names[u], names[v]) for u, v in graph.edges()]
    )


def outcome(variant, graph, **kwargs):
    """Everything a caller can observe of one ``run_*`` call, dict and
    stats key orders included; an exception as ``(type, text)``."""
    return observed(lambda: RUNNERS[variant](graph, **kwargs))


def through_gate(variant, graph, **kwargs):
    """``outcome`` of ``build_simulation`` + ``Simulator.run`` +
    ``collect_result``: the simulator's gate, whose columns come from
    ``_build_from_sim``, and the path it took."""
    path = []

    def run():
        sim, nodes = build_simulation(graph, variant, **kwargs)
        sim.run(runner.default_step_budget(graph))
        path.append((sim._last_run_path, sim._last_decline))
        return runner.collect_result(graph, nodes, sim, variant)

    return observed(run), path


def observed(call):
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    return (
        result.variant, result.n, result.n_edges, result.steps, result.leaders,
        list(result.leader_of.items()),
        list(result.knowledge.items()),
        list(result.statuses.items()),
        list(result.path_lengths.items()),
        list(result.stats.messages_by_type.items()),
        list(result.stats.bits_by_type.items()),
    )


def same_as_object_run(variant, graph, **kwargs):
    direct = outcome(variant, graph, **kwargs)
    assert direct == outcome(variant, graph, fast=False, **kwargs)
    return direct


def offer(graph, variant="generic", *, seed=None, scheduler=None, wake_order=None,
          max_steps=None, greedy_queries=False, fast=True):
    return arraystate.offer_graph(
        graph, variant, seed, scheduler, wake_order, max_steps, greedy_queries, fast
    )


# ----------------------------------------------------------------------
# Differential
# ----------------------------------------------------------------------
def _wake_order(kind, ids, rng):
    if kind == "none":
        return None
    order = list(ids)
    rng.shuffle(order)
    if kind == "prefix":
        return order[: max(1, len(order) // 3)]
    if kind == "duplicates":
        return order + order[: len(order) // 2 + 1]
    if kind == "empty":
        return []
    if kind == "unknown":
        return order[:2] + ["no-such-node"] + order[2:]
    return order


WAKES = ("none", "permutation", "prefix", "duplicates", "empty", "unknown")
BUDGETS = ("none", "negative", "zero", "cut", "exact")


@st.composite
def drawn_calls(draw, wakes=WAKES, budgets=BUDGETS):
    """One ``run_*`` call as ``(variant, graph, kwargs)``: any family and
    id shape, scheduler, wake order (of the kinds in ``wakes``) and step
    budget (of the kinds in ``budgets``) the runners take."""
    graph = relabel(
        build_family(
            draw(st.sampled_from(sorted(GRAPH_FAMILIES))),
            draw(st.integers(1, 64)),
            draw(st.integers(0, 20)),
        ),
        ID_TYPES[draw(st.sampled_from(sorted(ID_TYPES)))],
    )
    variant = draw(st.sampled_from(VARIANTS))
    kwargs = {"seed": draw(st.one_of(st.none(), st.integers(0, 20)))}
    greedy_queries = draw(st.booleans())
    if variant == "generic":
        kwargs["greedy_queries"] = greedy_queries
    wake = draw(st.sampled_from(wakes))
    order = _wake_order(wake, graph.nodes, random.Random(draw(st.integers(0, 5))))
    if order is not None:
        kwargs["wake_order"] = order
    budget = draw(st.sampled_from(budgets))
    if budget in ("cut", "exact"):
        full = outcome(variant, graph, fast=False, **kwargs)
        steps = full[3] if len(full) > 2 else 40
        kwargs["max_steps"] = steps if budget == "exact" else steps // 2
    elif budget != "none":
        kwargs["max_steps"] = {"negative": -1, "zero": 0}[budget]
    return variant, graph, kwargs


@settings(max_examples=300, deadline=None)
@given(drawn_calls())
def test_direct_entry_equals_the_object_run(call):
    variant, graph, kwargs = call
    same_as_object_run(variant, graph, **kwargs)


@pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
def test_each_pitfall_is_the_object_runs_answer(variant, seed):
    """The cases the property above can draw, pinned so it cannot go
    vacuous on any of them."""
    graph = build_family("sparse-random", 33, 2)
    ids = graph.nodes
    full = same_as_object_run(variant, graph, seed=seed)
    steps = full[3]

    raised = same_as_object_run(variant, graph, seed=seed, wake_order=[0, "nope", 1])
    assert raised == (KeyError, repr("unknown node 'nope'"))
    # build_simulation's error comes before Simulator.run's.
    assert raised == outcome(
        variant, graph, seed=seed, wake_order=[0, "nope"], max_steps=-1
    )
    raised = same_as_object_run(variant, graph, seed=seed, max_steps=-1)
    assert raised == (ValueError, "max_steps must be >= 0, got -1")
    raised = same_as_object_run(variant, graph, seed=seed, max_steps=0)  # buys one step
    assert raised[0] is StepLimitExceeded and "within 0 steps; " in raised[1]
    raised = same_as_object_run(variant, graph, seed=seed, max_steps=steps // 2)
    assert raised[0] is StepLimitExceeded and f"within {steps // 2} steps" in raised[1]
    assert same_as_object_run(variant, graph, seed=seed, max_steps=steps) == full
    # Nobody woken: everyone asleep, a self-pointing non-leader.
    raised = same_as_object_run(variant, graph, seed=seed, wake_order=[])
    assert raised == (RuntimeError, f"next-pointer cycle through {ids[0]!r}")
    # One waker still reaches everyone it can; a second wake of an awake
    # node is a counted step that does nothing.
    assert same_as_object_run(variant, graph, seed=seed, wake_order=ids[:1])[3] < steps
    doubled = same_as_object_run(variant, graph, seed=seed, wake_order=ids + ids)
    if seed is None:  # (a seeded schedule draws over a different pool)
        assert doubled[3] == steps + len(ids)


@pytest.mark.parametrize(
    "stray", [-1, 9, 1.0, True, "0"], ids=["minus-one", "n", "float", "bool", "str"]
)
@pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
def test_stray_wake_ids_on_a_range_graph(variant, stray, seed):
    """Ids ``0..n-1`` index themselves (``arraystate.IdentityIndex``): a
    wake id that is not an exact int in range -- one that equals one
    (``1.0``, ``True``) or none -- gets the dict's answer on the direct
    entry, through the simulator's gate and on the object loop alike."""
    graph = build_family("sparse-random", 9, 2)
    assert graph.nodes == list(range(9))
    order = [0, stray, 2]
    direct = same_as_object_run(variant, graph, seed=seed, wake_order=order)
    gated, path = through_gate(variant, graph, seed=seed, wake_order=order)
    assert gated == direct
    if stray in (1.0, True):
        assert len(direct) > 2 and path == [array_engaged()]
        assert direct == outcome(variant, graph, seed=seed, wake_order=[0, 1, 2])
    else:  # build_simulation's error: the gate is never reached
        assert direct == (KeyError, repr(f"unknown node {stray!r}")) and path == []


def test_set_built_range_graph_fills_through_the_identity(variant, monkeypatch):
    """A set-built graph over ``0..n-1`` (``community``: no slab) has
    ``fill_local`` read its successor sets through the identity index, and
    the run is the object run's."""
    graph = build_family("community", 60, 1)
    assert graph.slab() is None and graph.nodes == list(range(graph.n))
    indexes = []
    fill_local = arraystate._fill_local

    def spy(graph, ids, idx):
        indexes.append(type(idx))
        return fill_local(graph, ids, idx)

    monkeypatch.setattr(arraystate, "_fill_local", spy)
    for seed in (None, 4):
        same_as_object_run(variant, graph, seed=seed)
    if arrayloop.load() is None:
        assert indexes == []
    else:
        assert indexes == [arraystate.IdentityIndex] * 2


def test_empty_graph_is_the_empty_result(variant):
    # run_graph refuses n = 0; the runners never did.
    graph = KnowledgeGraph([], [])
    assert offer(graph, variant) == ("small-pool", None)
    result = RUNNERS[variant](graph)
    assert same_as_object_run(variant, graph)[:5] == (variant, 0, 0, 0, [])
    assert result.leader_of == result.knowledge == result.statuses == {}


class _SelfAware(KnowledgeGraph):
    """A graph whose ``successors`` name the node itself: the self-loop
    ``E0`` never holds, which both routes must discard."""

    def successors(self, node):
        return super().successors(node) | {node}


@pytest.mark.parametrize("seed", [None, 5], ids=["fifo", "random"])
def test_self_loops_and_isolated_nodes(variant, seed):
    graph = _SelfAware(
        ["a", "b", "c", "alone", "d", "also-alone"],
        [("a", "a"), ("a", "b"), ("c", "b"), ("d", "c"), ("d", "d")],
    )
    assert graph.successors("a") == {"a", "b"} and graph.n_edges == 3
    result = same_as_object_run(variant, graph, seed=seed)
    assert len(result[4]) == 3  # one leader per component
    assert dict(result[6])["alone"] == frozenset(["alone"])


@pytest.mark.parametrize("arm", sorted(set(PINNED) - {"probes"}))
@pytest.mark.parametrize("seed", [None, 3], ids=["fifo", "random"])
def test_handed_back_step_raises_the_reference_text(arm, seed, monkeypatch):
    """A protocol-impossible message met by the direct entry's loop is
    raised by ``core/node.py`` itself (``test_handback``'s ``run_graph``
    leg, through the runners)."""
    if array_engaged()[0] == "legacy":
        assert offer(build_family("star", 4, 0)) == ("no-c-loop", None)
        return
    graph, variant, reference = planted_raise(arm, seed, monkeypatch)
    with pytest.raises(ProtocolError) as raised:
        RUNNERS[variant](graph, seed=seed)
    assert str(raised.value) == str(reference)


# ----------------------------------------------------------------------
# Engagement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [None, 4], ids=["fifo", "random"])
def test_plain_run_builds_no_objects(variant, seed):
    graph = build_family("sparse-random", 48, 1)
    # DiscoveryNode.__init__ itself cannot carry the spy: replacing it is
    # a patched node class, which declines.  Every node passes through
    # SimNode.__init__.
    with mock.patch.object(
        runner, "build_simulation", wraps=build_simulation
    ) as built, mock.patch.object(
        SimNode, "__init__", autospec=True, side_effect=SimNode.__init__
    ) as node_built:
        result = RUNNERS[variant](graph, seed=seed)
    if array_engaged()[0] == "array":
        assert not built.called and not node_built.called
    else:  # REPRO_PURE_PYTHON=1, or a box without a compiler
        assert offer(graph, variant, seed=seed) == ("no-c-loop", None)
        assert built.call_count == 1 and node_built.call_count == graph.n
    assert result.steps > graph.n and len(result.leaders) == 1


class _SameRepr:
    """Distinct, ordered, hashable -- and indistinguishable by repr."""

    def __init__(self, rank):
        self.rank = rank

    def __repr__(self):
        return "peer"

    def __lt__(self, other):
        return self.rank < other.rank


def _patch_handler(name):
    original = getattr(DiscoveryNode, name)

    def arrange(monkeypatch):
        monkeypatch.setattr(
            DiscoveryNode, name, lambda self, *args: original(self, *args)
        )

    return arrange


_PLAIN = build_family("sparse-random", 24, 3)
_PEERS = [_SameRepr(i) for i in range(6)]
#: decline name -> (what makes the offer decline, graph, run_* keywords).
#: A keyword given as a callable is called once per run (schedulers hold
#: state).  ``patched-node-class`` replaces each method the finding
#: tests F2/F3 replace, by a wrapper that only delegates: the C loop could
#: not honour it, so the gate goes by identity and says ``patched``.
DECLINES = {
    "fast-off": (None, _PLAIN, {"fast": False}),
    "scheduler": (None, _PLAIN, {"scheduler": lambda: RandomScheduler(3)}),
    "scheduler-fifo": (None, _PLAIN, {"scheduler": GlobalFifoScheduler}),
    "small-pool": (None, KnowledgeGraph([], []), {}),
    "patched-node-class-F2": (_patch_handler("_absorb_learned_id"), _PLAIN, {}),
    "patched-node-class-F3": (_patch_handler("_route_release"), _PLAIN, {}),
    "no-c-loop": (lambda mp: mp.setattr(arrayloop, "_module", None), _PLAIN, {}),
    "id-order-same-repr": (
        None, KnowledgeGraph(_PEERS, zip(_PEERS, _PEERS[1:] + _PEERS[:1])), {},
    ),
    "id-order-unorderable": (
        None, KnowledgeGraph([1, "two", 3], [(1, "two"), ("two", 3)]), {},
    ),
}


def _gate_name(case):
    return next(r for r in arraystate.DECLINE_REASONS if case.startswith(r))


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_each_decline_names_itself_and_touches_nothing(case, variant, monkeypatch):
    arrange, graph, options = DECLINES[case]
    name = _gate_name(case)
    if arrange is not None:
        arrange(monkeypatch)

    def kwargs():
        return {k: v() if callable(v) else v for k, v in options.items()}

    nodes, edges = graph.nodes, list(graph.edges())
    rng_state = random.getstate()
    assert offer(graph, variant, seed=2, **kwargs()) == (gate_says(name), None)
    assert random.getstate() == rng_state
    assert (graph.nodes, list(graph.edges())) == (nodes, edges)

    direct = outcome(variant, graph, seed=2, **kwargs())
    assert direct == outcome(variant, graph, seed=2, **{**kwargs(), "fast": False})
    assert random.getstate() == rng_state
    assert (graph.nodes, list(graph.edges())) == (nodes, edges)


def test_decline_names_are_the_gates_own():
    assert {_gate_name(case) for case in DECLINES} == {
        "fast-off", "scheduler", "small-pool", "patched", "no-c-loop", "id-order",
    }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["random", "fifo"])
def test_cli_run_takes_the_direct_entry(variant, scheduler, capsys, monkeypatch):
    argv = ["run", "--variant", variant, "--scheduler", scheduler, "--n", "40",
            "--seed", "3"]
    with mock.patch.object(runner, "build_simulation", wraps=build_simulation) as built:
        assert cli.main(argv) == 0
    assert built.called == (array_engaged()[0] == "legacy")
    printed = capsys.readouterr().out

    # What the command did before: always a scheduler instance.
    instances = {"random": lambda: RandomScheduler(3), "fifo": GlobalFifoScheduler}
    monkeypatch.setattr(
        cli, "_scheduler_options", lambda name, seed: {"scheduler": instances[name]()}
    )
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == printed
