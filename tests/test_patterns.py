"""Built-in pattern library and marked-pattern derivation."""

import pytest

from motifdiff.errors import InputError
from motifdiff.graphs import (Graph, Pattern, automorphism_count,
                              marked_canonical_form)
from motifdiff.patterns import (PATTERN_LIBRARY, PATTERN_NAMES, cycle_graph,
                                derive_marked_patterns, fused_cycles_graph,
                                get_pattern, path_graph, resolve_patterns)

# name -> (nodes, edges, |Aut|); cycles have the dihedral group (2L), paths
# just the flip, and the fused pairs only the symmetries fixing the shared
# edge (times the cycle swap when lengths are equal)
CATALOG = {
    "c3": (3, 3, 6), "c4": (4, 4, 8), "c5": (5, 5, 10), "c6": (6, 6, 12),
    "c7": (7, 7, 14), "c8": (8, 8, 16),
    "c3c4": (5, 6, 2), "c5c5": (8, 9, 4), "c5c6": (9, 10, 2),
    "c6c6": (10, 11, 4),
    "l5": (5, 4, 2), "l6": (6, 5, 2), "l7": (7, 6, 2),
}


def test_catalog_is_complete_and_frozen():
    assert set(PATTERN_NAMES) == set(CATALOG)
    assert len(PATTERN_NAMES) == 13
    for name, (n, m, aut) in CATALOG.items():
        p = PATTERN_LIBRARY[name]
        assert p.name == name
        assert p.marks is None
        assert (p.k, p.graph.m) == (n, m)
        assert automorphism_count(p.graph) == aut


def test_builders():
    assert cycle_graph(4).edge_list == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert path_graph(1).m == 0
    assert path_graph(4).edge_list == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(InputError):
        cycle_graph(2)
    with pytest.raises(InputError):
        path_graph(0)
    with pytest.raises(InputError):
        fused_cycles_graph(2, 4)


def test_fused_shares_exactly_one_edge():
    for x, y in ((3, 4), (5, 5), (5, 6), (6, 6)):
        g = fused_cycles_graph(x, y)
        assert g.n == x + y - 2
        assert g.m == x + y - 1
        assert g.adj[0, 1]
        # the two shared nodes carry degree 3, everything else sits on one cycle
        assert sorted(g.degrees) == [2] * (g.n - 2) + [3, 3]


def test_get_pattern_unknown_lists_names():
    with pytest.raises(InputError) as err:
        get_pattern("c9")
    assert "c3" in str(err.value) and "l7" in str(err.value)


def test_resolve_patterns():
    ps = resolve_patterns(["c4", "l5"])
    assert [p.name for p in ps] == ["c4", "l5"]
    with pytest.raises(InputError):
        resolve_patterns(["c4", "c4"])


def test_derive_marked_class_counts():
    edge = Pattern(Graph.from_edges(2, [(0, 1)]), name="edge")
    # a cycle always collapses to the one path-with-marked-ends class
    for src, want in (("c3", 1), ("c4", 1), ("c6", 1)):
        assert len(derive_marked_patterns([PATTERN_LIBRARY[src]])) == want
    assert len(derive_marked_patterns([edge])) == 1
    # a path splits by removed-edge position (2 types) and, because the two
    # sides have different sizes, by mark orientation as well
    assert len(derive_marked_patterns([PATTERN_LIBRARY["l5"]])) == 4
    assert len(derive_marked_patterns([PATTERN_LIBRARY["c3c4"]])) == 6


def test_derive_marked_shapes():
    src = PATTERN_LIBRARY["c4"]
    derived = derive_marked_patterns([src])
    for p in derived:
        assert p.k == src.k
        assert p.graph.m == src.graph.m - 1
        assert p.marks is not None
        assert p.name == src.name
        # marks are the removed edge's endpoints, now non-adjacent
        assert not p.graph.adj[p.marks]
    with pytest.raises(InputError):
        derive_marked_patterns(derived)


def test_derive_marked_family_matches_dense_edge_removal():
    # the derivation by its definition: zero one edge of the dense matrix,
    # mark its endpoints both ways, keep the first of each marked class
    want, seen = [], set()
    for p in PATTERN_LIBRARY.values():
        for u, v in p.graph.edge_list:
            adj = p.graph.adj.copy()
            adj[u, v] = adj[v, u] = 0
            for marks in ((u, v), (v, u)):
                key = marked_canonical_form(Pattern(Graph(adj), marks=marks))
                if key not in seen:
                    seen.add(key)
                    want.append((p.name, Graph(adj), marks, key))
    got = [(q.name, q.graph, q.marks, marked_canonical_form(q))
           for q in derive_marked_patterns(PATTERN_LIBRARY.values())]
    assert got == want
