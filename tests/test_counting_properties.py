"""Property-based checks of the counting layer: relabeling invariance,
monotonicity under edge addition, pinned monomial sums summing to map
counts, the symmetry-broken subgraph count times |Aut| equal to the map
count, the generated kernels against the brute-force oracle, and cycle
counts equal to those from closed-walk traces."""

import numpy as np
import pytest

from motifdiff.counting import count_injective_homs, count_subgraphs
from motifdiff.graphs import Graph, Pattern, automorphism_count
from motifdiff.patterns import PATTERN_LIBRARY, derive_marked_patterns
from motifdiff.polynomials import pinned_monomial_matrix

from conftest import cycle_counts_by_traces, naive_count_oracle, permute_graph

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


@st.composite
def sparse_graphs(draw, max_n=30):
    """Up to 3n edges on up to max_n nodes, so c5 stays cheap to match."""
    n = draw(st.integers(0, max_n))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])


# library patterns plus arbitrary small ones; the orbits of every pattern on
# up to 6 nodes are checked against networkx's automorphisms on their own
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
    c, d = marked.marks
    total = pinned_monomial_matrix(g.adj.astype(np.int64), marked.k,
                                   marked.graph.edge_list, c, d).sum()
    assert total == count_injective_homs(g, Pattern(marked.graph))


@SETTINGS
@given(graphs(), patterns)
def test_subgraph_count_times_aut_is_map_count(g, p):
    assert (count_subgraphs(g, p) * automorphism_count(p.graph)
            == count_injective_homs(g, p))


@SETTINGS
@given(graphs(max_n=9), graphs(min_n=1, max_n=7), st.data())
def test_kernels_match_the_oracle_on_arbitrary_patterns(g, q, data):
    # any pattern shape, isolated nodes and several components included,
    # runs its own generated kernel; the oracle shares no code with it
    assert count_subgraphs(g, Pattern(q)) == naive_count_oracle(g, Pattern(q))
    if q.n >= 2:
        c, d = data.draw(st.permutations(range(q.n)))[:2]
        total = pinned_monomial_matrix(g.adj.astype(np.int64), q.n,
                                       q.edge_list, c, d).sum()
        assert total == count_injective_homs(g, Pattern(q))


@SETTINGS
@given(sparse_graphs())
def test_cycle_counts_match_closed_walk_traces(g):
    assert [count_subgraphs(g, PATTERN_LIBRARY[f"c{k}"])
            for k in (3, 4, 5)] == cycle_counts_by_traces(g)
