"""networkx as a third witness for subgraph counts: monomorphisms listed by
GraphMatcher, divided by the automorphisms it lists, against `count_table`
and `count_subgraphs`. The pattern set covers the symmetry-broken search on
large groups (stars, disjoint copies, vertex-transitive graphs), including
regular patterns whose orbits refinement cannot find (C3 plus a disjoint C4,
C5 plus a disjoint C7, a cubic graph on 12 nodes), and every atlas graph on
3-7 nodes. The automorphisms GraphMatcher lists also witness the plans'
orbits directly."""

import numpy as np
import pytest

from motifdiff import counting
from motifdiff.counting import (_compile, _walk, count_injective_homs,
                                count_subgraphs, count_table)
from motifdiff.graphs import Graph, Pattern, automorphism_count
from motifdiff.patterns import PATTERN_LIBRARY

from conftest import make_random_graph

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_list)
    return h


def from_nx(h):
    index = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph.from_edges(len(index), [(index[u], index[v]) for u, v in h.edges])


def nx_subgraph_count(host, pattern):
    h, p = to_nx(host), to_nx(pattern.graph)
    aut = sum(1 for _ in GraphMatcher(p, p).isomorphisms_iter())
    maps = sum(1 for _ in GraphMatcher(h, p).subgraph_monomorphisms_iter())
    assert maps % aut == 0
    return maps // aut


EXTRA = {
    "star_K1_5": nx.star_graph(5),
    "3K2": nx.disjoint_union_all([nx.path_graph(2)] * 3),
    "2K3": nx.disjoint_union_all([nx.cycle_graph(3)] * 2),
    "prism": nx.circular_ladder_graph(3),
    "K3_3": nx.complete_bipartite_graph(3, 3),
    "cube": nx.hypercube_graph(3),
    "petersen": nx.petersen_graph(),
    "empty_4": nx.empty_graph(4),
    "C3_C4": nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4)),
}
PATTERNS = list(PATTERN_LIBRARY.values()) + [
    Pattern(from_nx(h), name=name) for name, h in EXTRA.items()]
NAMES = [p.name for p in PATTERNS]


def with_random_edges(h, extra, rng):
    adj = from_nx(h).adj.copy()
    free = np.argwhere(np.triu(1 - adj, 1))
    for a, b in free[rng.choice(len(free), extra, replace=False)]:
        adj[a, b] = adj[b, a] = 1
    return Graph(adj)


@pytest.fixture(scope="module")
def hosts():
    rng = np.random.default_rng(2718)
    # sizes and densities keep networkx's listing of every map to seconds;
    # the last three hosts hold the largest patterns, plus a few edges
    random_hosts = [make_random_graph(n, prob, rng)
                    for n, prob in ((4, 0.6), (6, 0.5), (7, 0.3), (8, 0.45),
                                    (9, 0.3), (10, 0.4), (10, 0.25))]
    return random_hosts + [
        with_random_edges(EXTRA["petersen"], 4, rng),
        with_random_edges(nx.disjoint_union(EXTRA["cube"], nx.empty_graph(2)),
                          5, rng),
        with_random_edges(nx.disjoint_union(EXTRA["K3_3"], nx.empty_graph(1)),
                          2, rng)]


@pytest.fixture(scope="module")
def reference(hosts):
    return [[nx_subgraph_count(g, p) for g in hosts] for p in PATTERNS]


def test_hosts_hold_the_largest_patterns(hosts, reference):
    # a witness that only ever agrees on 0 shows nothing
    for name in ("petersen", "cube", "K3_3", "c8", "c6c6", "C3_C4"):
        assert any(reference[NAMES.index(name)]), name


@pytest.mark.parametrize("threads", [1, 2])
def test_count_table_matches_networkx(hosts, reference, threads):
    assert count_table(hosts, PATTERNS, threads=threads) == reference


def test_count_subgraphs_matches_networkx(hosts, reference):
    for p, expected in zip(PATTERNS, reference):
        assert [count_subgraphs(g, p) for g in hosts] == expected, p.name


def test_library_plans_are_symmetry_broken():
    # every plan is symmetry-broken, so eval counts each subgraph once: it
    # has constraints exactly when the pattern has symmetry, C3 plus C4 too
    for p in PATTERNS:
        plan = _compile(p.graph)
        assert any(plan.smaller_positions) == (automorphism_count(p.graph) > 1), p.name


def test_atlas_patterns_compile_to_symmetry_broken_plans(monkeypatch):
    # the 1,244 atlas graphs on 3-7 nodes with an edge; the symmetry search
    # runs for a pattern exactly when it has symmetry
    searches = []
    real_search = counting._symmetry_search
    monkeypatch.setattr(counting, "_symmetry_search",
                        lambda *a: searches.append(a) or real_search(*a))
    rng = np.random.default_rng(1244)
    hosts = [make_random_graph(8, 0.4, rng), make_random_graph(9, 0.4, rng)]
    patterns = nonzero = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() < 3 or not h.number_of_edges():
            continue
        p = Pattern(from_nx(h))
        aut = automorphism_count(p.graph)
        searches.clear()
        plan = _compile.__wrapped__(p.graph)
        assert bool(searches) == (aut > 1), h.edges
        assert any(plan.smaller_positions) == (aut > 1), h.edges
        for g in hosts:
            found = count_subgraphs(g, p)
            assert found * aut == count_injective_homs(g, p), h.edges
            nonzero += found > 0
        patterns += 1
    assert patterns == 1244
    # a witness that only ever agrees on 0 shows nothing
    assert nonzero > patterns // 2


def orbit_constraints(p):
    """`smaller_positions` from networkx's automorphisms: along the walk,
    each node's orbit under those fixing the nodes before it."""
    h = to_nx(p.graph)
    stabilizer = list(GraphMatcher(h, h).isomorphisms_iter())
    order = _walk(p.graph).order
    smaller = [[] for _ in order]
    for i, v in enumerate(order):
        for u in {a[v] for a in stabilizer} - {v}:
            smaller[order.index(u)].append(i)
        stabilizer = [a for a in stabilizer if a[v] == v]
    return tuple(map(tuple, smaller))


def test_plans_take_their_orbits_from_the_automorphisms():
    # the 209 atlas graphs on up to 6 nodes, and C3 plus C4, whose cells
    # refinement leaves larger than its orbits
    patterns = [Pattern(from_nx(h)) for h in nx.graph_atlas_g()
                if h.number_of_nodes() <= 6] + [Pattern(from_nx(EXTRA["C3_C4"]))]
    assert len(patterns) == 210
    for p in patterns:
        assert _compile(p.graph).smaller_positions == orbit_constraints(p), p.graph.edge_list


# a cubic graph on 12 nodes (|Aut| = 32) that refinement leaves as one cell
CUBIC_12 = [(0, 1), (0, 4), (0, 6), (1, 6), (1, 9), (2, 3), (2, 7), (2, 8),
            (3, 5), (3, 9), (4, 5), (4, 6), (5, 11), (7, 8), (7, 10), (8, 10),
            (9, 11), (10, 11)]


@pytest.mark.parametrize("h", [
    nx.disjoint_union(nx.cycle_graph(5), nx.cycle_graph(7)),
    nx.Graph(CUBIC_12)], ids=["C5_C7", "cubic_12"])
def test_twelve_node_regular_patterns_match_networkx(h):
    # on 13 nodes, the pattern plus three chords holds one copy of it
    p = Pattern(from_nx(h))
    host = Graph.from_edges(13, [*p.graph.edge_list, (12, 0), (12, 5), (3, 8)])
    assert any(_compile(p.graph).smaller_positions)
    assert count_subgraphs(host, p) == nx_subgraph_count(host, p) == 1
