"""Every-step cuts where the C loop's knowledge tables grow.

For a run ``_arrayloop.c`` holds a node's five knowledge sets in one
open-addressed table: built at entry from its ``local`` row and itself,
doubled as ids join, written back into the ``IdSlab`` columns on every
exit.  On a star whose
leaves know only the centre, and on the complete digraph, the winner's
table grows from a handful of slots to every id of the n = 48 system.
``run(max_steps=k)`` for every k up to quiescence must leave exactly the
object loop's per-node state, stats (key order included), channels, pool
and rng state -- ``tests/test_arraystate.py``'s ``every_cut``, there on a
sparse n = 12 graph -- and the cuts must leave every message form the
exit encoder writes live at some exit.
"""

import pytest

from repro.core.node import VARIANTS
from repro.graphs.knowledge_graph import KnowledgeGraph
from tests.test_arraystate import EXIT_FORMS, SCHEDULERS, every_cut

N = 48

GRAPHS = {
    "star": lambda: KnowledgeGraph(range(N), [(leaf, 0) for leaf in range(1, N)]),
    "complete": lambda: KnowledgeGraph(
        range(N), [(u, v) for u in range(N) for v in range(N) if u != v]
    ),
}


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("shape", sorted(GRAPHS))
def test_every_cut_equals_the_object_run(shape, variant, policy):
    cuts, forms = every_cut(GRAPHS[shape](), variant, policy)
    assert cuts > 10 * N  # cut everywhere
    # The exit encoder met every form.  LIFO runs the newest message first,
    # and on these two graphs it can leave no deferral at any cut.
    expected = EXIT_FORMS - {"deferred"} if policy == "lifo" else EXIT_FORMS
    assert all(forms[f] > 0 for f in expected), forms
