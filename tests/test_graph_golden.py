"""Golden graphs: every generator must keep producing the same edge sets.

``tests/golden/graphs.json`` holds, per case, the sha256 of
``repr((nodes, sorted edges, n_edges))``.  Experiments, goldens elsewhere
and every recorded number depend on the generators drawing exactly the
edges they always drew, so a faster generator has to replay its random
stream draw for draw.

Regenerate -- only when a generator is meant to change its output --
with ``PYTHONPATH=src python tests/test_graph_golden.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.analysis.experiments import GRAPH_FAMILIES, build_family
from repro.graphs.generators import (
    community_graph,
    erdos_renyi,
    preferential_attachment,
    random_arborescence,
    random_strongly_connected,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "graphs.json"

FAMILY_NS = (1, 2, 3, 64, 1000)
FAMILY_SEEDS = (0, 1, 2)

#: case name -> the graph it builds
CASES = {
    f"{family}/n={n}/seed={seed}": (lambda f=family, n=n, s=seed: build_family(f, n, s))
    for family in sorted(GRAPH_FAMILIES)
    for n in FAMILY_NS
    for seed in FAMILY_SEEDS
}
CASES.update(
    {
        "random_strongly_connected(7, 12, seed=3)": lambda: random_strongly_connected(7, 12, 3),
        "random_strongly_connected(500, 2000, seed=1)": lambda: random_strongly_connected(
            500, 2000, 1
        ),
        "random_arborescence(9, seed=4)": lambda: random_arborescence(9, 4),
        "random_arborescence(800, seed=2)": lambda: random_arborescence(800, 2),
        "erdos_renyi(10, 0.3, seed=5)": lambda: erdos_renyi(10, 0.3, 5),
        "erdos_renyi(120, 0.05, seed=1)": lambda: erdos_renyi(120, 0.05, 1),
        "community_graph(3, 5, seed=2)": lambda: community_graph(3, 5, seed=2),
        "community_graph(8, 16, bridges=2, seed=7)": lambda: community_graph(
            8, 16, bridges=2, seed=7
        ),
        "preferential_attachment(12, 2, seed=6)": lambda: preferential_attachment(12, 2, 6),
        "preferential_attachment(600, 3, seed=1)": lambda: preferential_attachment(600, 3, 1),
    }
)


def digest(graph):
    frozen = (graph.nodes, sorted(graph.edges()), graph.n_edges)
    return hashlib.sha256(repr(frozen).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_matches_golden(case, golden):
    assert digest(CASES[case]()) == golden[case], f"{case}: edges differ"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    frozen = {case: digest(build()) for case, build in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(frozen, sort_keys=True, indent=0) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(frozen)} cases)")
