"""The direct entry's ``DiscoveryResult``, read off the columns.

``collect_columns`` keeps the ints the core ended with and exposes
``leader_of`` / ``knowledge`` / ``statuses`` / ``path_lengths`` as
read-only id-keyed views over them; ``verify_discovery`` on the run's own
graph object checks those ints as they are (``result.int_view``).  Pinned
here, over ``test_direct_entry``'s drawn calls:

* the result equals the object run's, before and after a pickle round
  trip, pickles to the bytes of its dicts, and verifies to the same
  report;
* verifying it on its own graph reads no view and interns no id, so a
  silent fallback to the dict route fails here;
* on another graph object, even an equal one, or with a field replaced,
  it takes the dict route and reaches that route's verdict.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from repro.analysis.experiments import build_family
from repro.core import arraystate
from repro.core.result import _ColumnView, collect_columns, int_view
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.verification import invariants
from repro.verification.invariants import InvariantViolation, verify_discovery
from tests.conftest import RUNNERS, array_engaged
from tests.test_direct_entry import drawn_calls, offer

VIEWS = ("leader_of", "knowledge", "statuses", "path_lengths")


def as_dicts(result):
    """``result`` with each view replaced by the dict it stands for."""
    return dataclasses.replace(result, **{name: dict(getattr(result, name)) for name in VIEWS})


def twin(graph):
    """An equal graph that is another object."""
    return KnowledgeGraph(graph.nodes, list(graph.edges()))


@pytest.fixture
def no_view_read(monkeypatch):
    """Make reading any view, interning any id or labelling any graph
    raise: what the column route must never do."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the column route read an id-keyed view")

    for name in ("__getitem__", "__iter__", "__len__"):
        monkeypatch.setattr(_ColumnView, name, refuse)
    monkeypatch.setattr(invariants, "_Interned", refuse)
    monkeypatch.setattr(invariants, "_graph_components", refuse)


#: ``test_direct_entry``'s calls that reach a result: every node woken
#: (so no self-pointing sleeper), and a budget of none or the run's own.
RESULT_CALLS = drawn_calls(wakes=("none", "permutation", "duplicates"), budgets=("none", "exact"))


@settings(max_examples=200, deadline=None)
@given(RESULT_CALLS)
def test_the_column_result_is_the_object_runs(call):
    variant, graph, kwargs = call
    direct = RUNNERS[variant](graph, **kwargs)
    reference = RUNNERS[variant](graph, fast=False, **kwargs)
    assert direct == reference
    if array_engaged()[0] == "array":
        assert all(type(getattr(direct, name)) is _ColumnView for name in VIEWS)
        assert int_view(direct, graph) is not None
    back = pickle.loads(pickle.dumps(direct))
    assert back == reference and back == direct
    assert pickle.dumps(direct) == pickle.dumps(as_dicts(direct))
    assert copy.deepcopy(direct) == reference
    assert repr(direct) == repr(as_dicts(direct))
    said = verify_discovery(direct, graph)
    assert said == verify_discovery(reference, graph) == verify_discovery(back, graph)
    # Another graph object, equal to the first: the dict route, same report.
    assert verify_discovery(direct, twin(graph)) == said


@pytest.mark.parametrize("seed", [None, 4], ids=["fifo", "random"])
def test_verifying_on_the_run_graph_reads_no_view(variant, seed, no_view_read):
    graph = build_family("sparse-random", 48, 2)
    result = RUNNERS[variant](graph, seed=seed)
    if array_engaged()[0] != "array":  # the object path: dicts, interned
        assert type(result.statuses) is dict
        return
    report = verify_discovery(result, graph)
    assert report.n_components == 1 and report.n_leaders == 1
    # the same graph relabelled is another object: the dict route refuses
    with pytest.raises(AssertionError, match="read an id-keyed view"):
        verify_discovery(result, twin(graph))


def test_a_twin_graph_is_interned(variant, monkeypatch):
    graph = build_family("sparse-random", 40, 1)
    result = RUNNERS[variant](graph, seed=1)
    interned = []
    real = invariants._Interned

    def counted(*args):
        interned.append(1)
        return real(*args)

    monkeypatch.setattr(invariants, "_Interned", counted)
    same = verify_discovery(result, graph)
    assert interned == ([1] if array_engaged()[0] != "array" else [])
    assert verify_discovery(result, twin(graph)) == same
    assert len(interned) == 1 + (array_engaged()[0] != "array")


def test_a_replaced_field_is_verified_as_replaced(variant):
    """The int view goes with the views it came with: a result whose
    field was replaced, or whose leader list was edited, is checked as it
    reads now."""
    graph = build_family("sparse-random", 40, 1)
    result = RUNNERS[variant](graph, seed=1)
    follower = next(x for x in graph.nodes if x not in result.leaders)
    stuck = dataclasses.replace(result, statuses={**result.statuses, follower: "passive"})
    with pytest.raises(InvariantViolation, match="stuck in transient states"):
        verify_discovery(stuck, graph)
    assert int_view(stuck, graph) is None
    result.leaders.append(follower)
    assert int_view(result, graph) is None
    with pytest.raises(InvariantViolation, match="has 2 leaders"):
        verify_discovery(result, graph)


def test_a_grown_graph_is_interned(variant):
    """A graph grown after the run is checked as it is now: a new edge
    inside the component passes, a new node is one the result lacks."""
    graph = build_family("sparse-random", 40, 1)
    result = RUNNERS[variant](graph, seed=1)
    u, v = graph.nodes[:2]
    assert graph.add_edge(v, u) or graph.add_edge(u, v)
    assert int_view(result, graph) is None
    verify_discovery(result, graph)
    graph.add_node("late")
    with pytest.raises(KeyError):
        verify_discovery(result, graph)


def test_the_views_are_read_only_mappings():
    if array_engaged()[0] != "array":
        pytest.skip("no C loop in this process: the runners return dicts")
    graph = build_family("sparse-random", 30, 5)
    result = RUNNERS["adhoc"](graph, seed=5)
    reference = RUNNERS["adhoc"](graph, seed=5, fast=False)
    for name in VIEWS:
        view, expected = getattr(result, name), getattr(reference, name)
        assert list(view) == list(expected) and len(view) == len(expected)
        assert list(view.values()) == list(expected.values())
        assert view == expected and expected == view and not view != expected
        assert "no-such-node" not in view and view.get("no-such-node") is None
        with pytest.raises(KeyError):
            view["no-such-node"]
        with pytest.raises(TypeError):
            view[graph.nodes[0]] = None
    assert result.max_path_length == reference.max_path_length
    leader = result.leaders[0]
    assert result.knowledge[leader] == frozenset(graph.nodes)
    with pytest.raises(KeyError):
        result.knowledge[next(x for x in graph.nodes if x != leader)]


def test_collect_columns_labels_the_graph_when_not_given(monkeypatch):
    """``run_discovery`` hands ``collect_columns`` the labels the run
    already made; the graph is labelled once per discovery either way."""
    if array_engaged()[0] != "array":
        pytest.skip("no C loop in this process")
    labelled = []
    real = arraystate._graph_components

    def counted(*args):
        labelled.append(1)
        return real(*args)

    monkeypatch.setattr(arraystate, "_graph_components", counted)
    graph = build_family("sparse-random", 32, 3)
    result = RUNNERS["generic"](graph, seed=3)
    verify_discovery(result, graph)
    assert labelled == [1]
    core, executed, stats, components = offer(graph, seed=3)[1]
    again = collect_columns(graph, core, "generic", stats, executed)
    assert again == result and len(labelled) == 3
    assert int_view(again, graph)[1] == components
