"""Property-based checks of the counting layer: relabeling invariance,
monotonicity under edge addition, rooted counts summing to map counts, and
the symmetry-broken subgraph count times |Aut| equal to the map count."""

import pytest

from motifdiff.counting import (count_injective_homs, count_rooted,
                                count_subgraphs)
from motifdiff.graphs import Graph, Pattern, automorphism_count
from motifdiff.patterns import PATTERN_LIBRARY, derive_marked_patterns

from conftest import permute_graph

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(deadline=None, max_examples=150, database=None)

SMALL_LIBRARY = [p for p in PATTERN_LIBRARY.values() if p.k <= 6]
MARKED = derive_marked_patterns(SMALL_LIBRARY)


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])


# library patterns plus arbitrary small ones; every pattern on up to 6
# nodes is certified by refinement alone, and the orbit pass has its own tests
patterns = st.one_of(st.sampled_from(SMALL_LIBRARY),
                     graphs(max_n=6).map(Pattern))


@SETTINGS
@given(graphs(), patterns, st.data())
def test_counts_are_relabeling_invariant(g, p, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert count_subgraphs(permute_graph(g, perm), p) == count_subgraphs(g, p)


@SETTINGS
@given(graphs(min_n=2), patterns, st.data())
def test_counts_do_not_fall_when_an_edge_is_added(g, p, data):
    u, v = data.draw(st.sampled_from(
        [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]))
    adj = g.adj.copy()
    adj[u, v] = adj[v, u] = 1
    assert count_subgraphs(Graph(adj), p) >= count_subgraphs(g, p)


@SETTINGS
@given(graphs(max_n=7), st.sampled_from(MARKED))
def test_rooted_counts_sum_to_injective_maps(g, marked):
    total = sum(count_rooted(g, i, j, marked)
                for i in range(g.n) for j in range(g.n) if i != j)
    assert total == count_injective_homs(g, Pattern(marked.graph))


@SETTINGS
@given(graphs(), patterns)
def test_subgraph_count_times_aut_is_map_count(g, p):
    assert (count_subgraphs(g, p) * automorphism_count(p.graph)
            == count_injective_homs(g, p))

