"""Subgraph counting: matcher, brute-force oracle, count distributions."""

import numpy as np
import pytest

from motifdiff import counting
from motifdiff.counting import (CountDistribution, _compile,
                                count_injective_homs, count_subgraphs,
                                count_table)
from motifdiff.errors import CapacityError, ContractError, InputError
from motifdiff.graphs import Dataset, Graph, Pattern
from motifdiff.patterns import (PATTERN_LIBRARY, cycle_graph,
                                fused_cycles_graph, get_pattern, path_graph)
from motifdiff.polynomials import pinned_monomial_matrix

from conftest import (complete_graph, cycle_counts_by_traces,
                      make_random_graph, naive_count_oracle, rooted_counts)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_frozen_counts():
    # hand-countable fixtures
    assert count_injective_homs(complete_graph(3), get_pattern("c3")) == 6
    assert count_subgraphs(complete_graph(3), get_pattern("c3")) == 1
    assert count_subgraphs(complete_graph(4), get_pattern("c3")) == 4
    assert count_subgraphs(complete_graph(4), get_pattern("c4")) == 3
    # a cycle of length L holds exactly L paths on any smaller node count
    assert count_subgraphs(cycle(6), get_pattern("l5")) == 6
    assert count_subgraphs(cycle(8), get_pattern("c8")) == 1
    host = fused_cycles_graph(5, 5)
    assert count_subgraphs(host, get_pattern("c5")) == 2
    # the two 5-cycles also chain into the one outer 8-cycle
    assert count_subgraphs(host, get_pattern("c8")) == 1


def test_counts_are_non_induced():
    # every 3-subset of K4 is a triangle; missing edges impose nothing
    assert count_subgraphs(complete_graph(4), get_pattern("c3")) == 4
    p2 = Pattern(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert count_subgraphs(complete_graph(3), p2) == 3


def test_empty_and_oversized_patterns():
    g = cycle(4)
    empty = Pattern(Graph.from_edges(0, []))
    assert count_subgraphs(g, empty) == 1
    assert naive_count_oracle(g, empty) == 1
    assert count_subgraphs(cycle(3), get_pattern("c5")) == 0
    assert naive_count_oracle(cycle(3), get_pattern("c5")) == 0


def test_matcher_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    patterns = list(PATTERN_LIBRARY.values())
    for _ in range(40):
        n = int(rng.integers(1, 8))
        g = make_random_graph(n, float(rng.choice([0.2, 0.5])), rng)
        for p in patterns:
            assert count_subgraphs(g, p) == naive_count_oracle(g, p)


def test_symmetry_broken_search_finds_each_subgraph_once():
    # K4 holds 3 four-cycles; the compiled plan meets each once, where the
    # unconstrained search meets each of the 8 maps of every copy
    plan = _compile(get_pattern("c4").graph)
    assert any(plan.smaller_positions)
    assert count_subgraphs(complete_graph(4), get_pattern("c4")) == 3
    assert count_injective_homs(complete_graph(4), get_pattern("c4")) == 24


def test_symmetry_search_cuts_refined_cells_to_orbits(monkeypatch):
    # C3 plus a disjoint C4 is regular, so refinement cannot tell the two
    # cycles' nodes apart and its cells multiply past |Aut| = 6 * 8: the
    # symmetry search cuts them to orbits. It runs for c4 too, where the
    # cells are already orbits: there is one orbit rule
    p = Pattern(Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 6), (6, 3)]))
    searches = []
    real_search = counting._symmetry_search
    monkeypatch.setattr(counting, "_symmetry_search",
                        lambda *a: searches.append(a) or real_search(*a))
    _compile.__wrapped__(get_pattern("c4").graph)
    assert searches
    searches.clear()
    plan = _compile.__wrapped__(p.graph)
    assert searches
    assert any(plan.smaller_positions)
    # in K8: choose the triangle's 3 nodes, then 3 four-cycles on 4 of the
    # remaining 5 nodes
    assert count_subgraphs(complete_graph(8), p) == 56 * 5 * 3
    assert count_subgraphs(cycle(7), p) == 0


def test_patterns_at_the_node_cap_compile_and_count():
    # 12 pattern nodes nest 11 loops in one generated kernel
    c12 = Pattern(cycle_graph(12))
    assert count_subgraphs(cycle(12), c12) == 1
    assert count_subgraphs(cycle(12), Pattern(path_graph(12))) == 12
    assert count_injective_homs(cycle(12), c12) == 24


def test_one_kernel_per_plan_shape():
    # every call walks the pattern again or takes its compiled plan from the
    # memo; the shape is the same, so each shape's kernel is generated once
    # and reused
    counting._kernel.cache_clear()
    p = get_pattern("c5")
    rng = np.random.default_rng(5)
    for _ in range(8):
        g = make_random_graph(8, 0.5, rng)
        count_subgraphs(g, p)
        count_injective_homs(g, p)
    info = counting._kernel.cache_info()
    assert info.misses == 2  # the compiled plan's shape and the walk's
    assert info.hits > 0


def test_plans_compile_once_per_pattern_shape():
    # the memo is keyed by the pattern's graph: counting in many hosts
    # compiles once, and two Pattern objects on equal graphs share a plan
    _compile.cache_clear()
    p = get_pattern("c5")
    rng = np.random.default_rng(6)
    for _ in range(20):
        count_subgraphs(make_random_graph(7, 0.5, rng), p)
    assert _compile.cache_info().misses == 1
    twin = Pattern(cycle_graph(5), name="twin")
    assert twin.graph is not p.graph
    assert _compile(twin.graph) is _compile(p.graph)
    assert _compile.cache_info().misses == 1


def test_kernels_take_only_the_hosts_their_masks_allow():
    # a level's degree mask filters its candidates: with every level held
    # to a node set S, a kernel counts the copies inside the subgraph on S
    rng = np.random.default_rng(17)
    for _ in range(12):
        g = make_random_graph(9, 0.6, rng)
        keep = [u for u in range(g.n) if rng.random() < 0.7]
        allowed = sum(1 << u for u in keep)
        sub = Graph(g.adj[np.ix_(keep, keep)])
        for p in PATTERN_LIBRARY.values():
            plan = _compile(p.graph)
            kernel = counting._kernel(plan.prev_positions,
                                      plan.smaller_positions)
            assert (kernel(g.neighbor_masks, -1, *[allowed] * len(plan.order))
                    == count_subgraphs(sub, p)), p


def test_each_level_is_held_to_hosts_with_its_nodes_degree(monkeypatch):
    # a path 0-1-2-3 hosting a 3-path: the walk places the middle node
    # first, which only hosts 1 and 2 have the degree for; the ends take any
    calls = []
    real_kernel = counting._kernel

    def spy(*shape):
        kernel = real_kernel(*shape)
        return lambda *args: calls.append(args[2:]) or kernel(*args)

    monkeypatch.setattr(counting, "_kernel", spy)
    p3 = Pattern(path_graph(3))
    plan = _compile(p3.graph)
    assert plan.order[0] == 1
    assert count_subgraphs(path_graph(4), p3) == 2
    assert calls == [(0b0110, 0b1111, 0b1111)]


def test_oracle_cap():
    with pytest.raises(CapacityError):
        naive_count_oracle(Graph.from_edges(10, []), get_pattern("c3"))


def test_rooted_counts_with_adjacent_marks():
    # the marks of c4 rooted at (0, 1) are adjacent, so non-adjacent roots
    # give 0; the marked edge has no node left to place; a 3-path marked at
    # an end and the middle has no automorphism swapping its marks, so its
    # matrix is not symmetric. The exact pinned monomial sums over the host
    # adjacency match a plain tally
    rng = np.random.default_rng(11)
    patterns = [Pattern(cycle(4), marks=(0, 1)),
                Pattern(Graph.from_edges(2, [(0, 1)]), marks=(0, 1)),
                Pattern(path_graph(3), marks=(0, 1))]
    for _ in range(12):
        g = make_random_graph(int(rng.integers(4, 8)), 0.5, rng)
        adj = g.adj.astype(np.int64)
        for p in patterns:
            c, d = p.marks
            got = pinned_monomial_matrix(adj, p.k, p.graph.edge_list, c, d)
            assert np.array_equal(got, rooted_counts(g, p)), p


def test_rooted_sums_to_injective_homs():
    rng = np.random.default_rng(3)
    p3_marked = Pattern(Graph.from_edges(3, [(0, 1), (1, 2)]), marks=(0, 2))
    p3_plain = Pattern(p3_marked.graph)
    for _ in range(10):
        g = make_random_graph(int(rng.integers(3, 7)), 0.5, rng)
        total = pinned_monomial_matrix(g.adj.astype(np.int64), 3,
                                       p3_marked.graph.edge_list, 0, 2).sum()
        assert total == count_injective_homs(g, p3_plain)


def test_count_distribution_from_counts():
    d = CountDistribution.from_counts([1, 1, 2, 1])
    assert d.sample_size == 4
    assert d.mass == {1: 0.75, 2: 0.25}
    assert d.counts == {1: 3, 2: 1}
    assert d.to_json_dict() == {
        "mass": {"1": 0.75, "2": 0.25},
        "sample_size": 4,
        "counts": {"1": 3, "2": 1},
    }


def test_count_distribution_validation():
    with pytest.raises(ContractError):
        CountDistribution.from_counts([])
    with pytest.raises(ContractError):
        CountDistribution({})
    with pytest.raises(ContractError):
        CountDistribution({0: 0, 1: 0})
    with pytest.raises(ContractError):
        CountDistribution({0: -1, 1: 2})
    # mass and sample_size are derived from the counts
    d = CountDistribution({3: 1, 0: 3})
    assert d.sample_size == 4
    assert d.mass == {3: 0.25, 0: 0.75}
    assert d == CountDistribution.from_counts([0, 3, 0, 0])


def test_count_distribution_over_dataset():
    ds = Dataset(graphs=(complete_graph(4), cycle(4), cycle(3), cycle(6),
                         fused_cycles_graph(5, 5)))
    patterns = [get_pattern(name) for name in ("c3", "c4", "c5", "l5")]
    t1 = count_table(ds.graphs, patterns, threads=1)
    t2 = count_table(ds.graphs, patterns, threads=2)
    assert t1 == t2
    assert t1 == [[count_subgraphs(g, p) for g in ds.graphs] for p in patterns]
    d1 = CountDistribution.from_counts(t1[0])
    assert d1 == CountDistribution.from_counts(t2[0])
    assert d1.counts == {0: 3, 1: 1, 4: 1}
    with pytest.raises(InputError):
        count_table((), [get_pattern("c3")])


@pytest.mark.parametrize("m", [2000, 4000])
def test_cycle_counts_match_closed_walk_traces_on_large_hosts(m):
    # a third witness where the brute-force oracle (9 nodes) and networkx
    # are out of reach: 1000-node hosts, the host cap
    u, v = np.triu_indices(1000, 1)
    picked = np.random.default_rng(m).choice(len(u), size=m, replace=False)
    g = Graph.from_edges(1000, zip(u[picked].tolist(), v[picked].tolist()))
    table = count_table([g], [get_pattern(f"c{k}") for k in (3, 4, 5)])
    assert [column[0] for column in table] == cycle_counts_by_traces(g)
