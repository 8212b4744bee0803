"""Graph type, canonical labeling, automorphism counting."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from motifdiff import graphs
from motifdiff.errors import CapacityError, InputError
from motifdiff.graphs import (Dataset, Graph, Pattern, _refine_colors,
                              _symmetry_search, automorphism_count,
                              canonical_form, marked_canonical_form)

from conftest import (complete_graph, is_connected, make_random_graph,
                      packbits_key, permute_graph, src_env)


# Same degree sequence {3,2,2,1,1,1}, different branch profiles at the
# degree-3 node, so plain degree invariants cannot tell them apart.
TWIN_A = Graph.from_edges(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
TWIN_B = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_adjacency_validation():
    with pytest.raises(InputError):
        Graph(np.zeros((2, 3)))
    with pytest.raises(InputError):
        Graph(np.full((2, 2), 2))
    asym = np.zeros((3, 3))
    asym[0, 1] = 1
    with pytest.raises(InputError):
        Graph(asym)
    loop = np.zeros((2, 2))
    loop[0, 0] = 1
    with pytest.raises(InputError):
        Graph(loop)


@pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 0, 0]]])
def test_ragged_adjacency_is_an_input_error(rows):
    # numpy refuses the inhomogeneous shape with its own ValueError
    with pytest.raises(InputError, match="square matrix"):
        Graph(rows)


@pytest.mark.parametrize("entry", [256, 0.5, 1.9, 257, -255, float("nan")])
def test_adjacency_entries_are_checked_before_the_uint8_cast(entry):
    # cast first, 256 and 0.5 would read as no edge, 1.9, 257 and -255 as one
    with pytest.raises(InputError, match="entries must be 0 or 1"):
        Graph([[0, entry], [entry, 0]])


def test_from_edges_bounds():
    with pytest.raises(InputError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph.from_edges(-1, [])


@pytest.mark.parametrize("n", [True, False, 2.0, "3", None, np.int64(3)])
def test_from_edges_refuses_a_non_int_node_count(n):
    with pytest.raises(InputError, match="node count"):
        Graph.from_edges(n, [])


@pytest.mark.parametrize("n,prob", [(0, 0.5), (1, 0.5), (2, 1.0), (7, 0.3),
                                    (9, 0.5), (17, 0.8), (40, 0.1), (40, 0.6)])
def test_from_edges_equals_graph_of_the_matrix(n, prob):
    rng = np.random.default_rng(n + int(10 * prob))
    upper = np.triu(rng.random((n, n)) < prob, 1).astype(np.uint8)
    matrix = upper + upper.T
    iu, ju = np.nonzero(upper)
    edges = list(zip(iu.tolist(), ju.tolist()))
    # shuffled, with every edge given a second time reversed
    shuffled = edges + [(v, u) for u, v in edges]
    rng.shuffle(shuffled)
    a = Graph.from_edges(n, shuffled)
    b = Graph(matrix)
    assert a == b and hash(a) == hash(b)
    for g in (a, b):
        assert (g.n, g.m) == (n, len(edges))
        assert g.edge_list == tuple(edges)
        assert g.neighbor_lists == tuple(tuple(np.flatnonzero(r).tolist())
                                         for r in matrix)
        assert g.degrees == tuple(matrix.sum(axis=0).tolist())
        assert g.neighbor_masks == tuple(
            sum(1 << int(v) for v in np.flatnonzero(r)) for r in matrix)
        assert g.adj.dtype == np.uint8 and g.adj.shape == (n, n)
        assert g.adj.tobytes() == matrix.tobytes()
        assert not g.adj.flags.writeable
        if n > 1:
            with pytest.raises(ValueError):
                g.adj[0, 1] = 1 - g.adj[0, 1]
    assert b.adj is b.adj and a.adj is a.adj
    with pytest.raises(AttributeError):
        a.adj = matrix


def test_graph_keeps_the_matrix_it_was_given():
    matrix = np.zeros((3, 3), dtype=np.uint8)
    matrix[0, 1] = matrix[1, 0] = 1
    g = Graph(matrix)
    assert g.adj is matrix and not matrix.flags.writeable


@pytest.mark.parametrize("n", range(15))
def test_ordering_bits_match_packbits(n):
    rng = np.random.default_rng(200 + n)
    for prob in (0.2, 0.5, 0.9):
        masks = make_random_graph(n, prob, rng).neighbor_masks
        for k in range(n + 1):
            order = rng.permutation(n)[:k].tolist()
            assert graphs._ordering_bits(masks, order) == packbits_key(masks, order)


def test_canonical_search_matches_packbits_keys(monkeypatch):
    rng = np.random.default_rng(41)
    hosts = [make_random_graph(int(rng.integers(0, 15)), rng.random(), rng)
             for _ in range(150)]
    hosts += [make_random_graph(40, prob, rng) for prob in (0.05, 0.3, 0.5)]
    # 40-node hosts whose search has many leaves: disjoint edges and triangles
    hosts += [Graph.from_edges(40, [(2 * i, 2 * i + 1) for i in range(4)]),
              Graph.from_edges(40, [(3 * i + a, 3 * i + b) for i in range(4)
                                    for a, b in ((0, 1), (1, 2), (0, 2))])]
    for g in hosts:
        order = rng.permutation(g.n).tolist()
        assert (graphs._ordering_bits(g.neighbor_masks, order)
                == packbits_key(g.neighbor_masks, order))
    got = [(canonical_form(g), graphs._symmetry_search(g, (0,) * g.n)[2])
           for g in hosts]
    monkeypatch.setattr(graphs, "_ordering_bits", packbits_key)
    want = [(canonical_form(g), graphs._symmetry_search(g, (0,) * g.n)[2])
            for g in hosts]
    assert got == want


def test_graph_fields():
    g = complete_graph(4)
    assert g.n == 4
    assert g.m == 6
    assert g.degrees == (3, 3, 3, 3)
    assert g.edge_list == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert g.neighbor_lists[0] == (1, 2, 3)
    assert g.neighbor_masks[0] == 0b1110
    assert g.adj[1, 3] and not complete_graph(2).adj[0, 0]


def test_graph_equality_and_hash():
    a = Graph.from_edges(3, [(0, 1)])
    b = Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(3, [(0, 2)])
    assert a != "not a graph"


def test_pattern_marks_validation():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    p = Pattern(g, name="p3", marks=(0, 2))
    assert p.k == 3 and p.marks == (0, 2)
    with pytest.raises(InputError):
        Pattern(g, marks=(0, 0))
    with pytest.raises(InputError):
        Pattern(g, marks=(0, 3))
    with pytest.raises(CapacityError):
        Pattern(Graph.from_edges(13, []))


def test_dataset_metadata_and_node_counts():
    ds = Dataset(graphs=(cycle(3), cycle(5), cycle(3)), metadata={"seed": 7})
    assert len(ds) == 3
    assert ds.metadata == {"seed": "7"}  # values coerced to strings
    assert ds.node_counts() == (3, 5)
    assert [g.n for g in ds] == [3, 5, 3]


def test_permute_graph_definition():
    g = Graph.from_edges(3, [(0, 1)])
    h = permute_graph(g, [2, 0, 1])  # new[u][v] = old[perm[u]][perm[v]]
    assert h.edge_list == ((1, 2),)
    with pytest.raises(InputError):
        permute_graph(g, [0, 0, 1])


def test_is_connected():
    assert is_connected(cycle(5))
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_canonical_form_is_relabeling_invariant():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        g = make_random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        perm = list(rng.permutation(n))
        h = permute_graph(g, perm)
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_same_degree_pairs():
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    c6 = cycle(6)
    assert sorted(c6.degrees) == sorted(two_triangles.degrees)
    assert canonical_form(c6) != canonical_form(two_triangles)

    assert sorted(TWIN_A.degrees) == sorted(TWIN_B.degrees)
    assert canonical_form(TWIN_A) != canonical_form(TWIN_B)


def test_canonical_form_uniform_guard():
    # complete and empty graphs are one twin class each, numbered to a
    # discrete coloring before the search starts
    assert canonical_form(complete_graph(4)) == canonical_form(
        permute_graph(complete_graph(4), [3, 1, 0, 2]))
    assert canonical_form(Graph.from_edges(3, [])) != canonical_form(
        Graph.from_edges(4, []))


def test_marked_canonical_form_orientation():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    # no automorphism sends an endpoint to the middle, so order matters here
    assert (marked_canonical_form(Pattern(p3, marks=(0, 1)))
            != marked_canonical_form(Pattern(p3, marks=(1, 0))))
    # the end-swapping automorphism makes these two the same marked class
    assert (marked_canonical_form(Pattern(p3, marks=(0, 2)))
            == marked_canonical_form(Pattern(p3, marks=(2, 0))))
    # unmarked pattern falls back to the plain form
    assert marked_canonical_form(Pattern(p3)) == canonical_form(p3)


def test_automorphism_count_known_groups():
    assert automorphism_count(Graph.from_edges(1, [])) == 1
    assert automorphism_count(Graph.from_edges(3, [])) == 6
    assert automorphism_count(Graph.from_edges(3, [(0, 1), (1, 2)])) == 2
    assert automorphism_count(complete_graph(4)) == 24
    assert automorphism_count(complete_graph(5)) == 120
    assert automorphism_count(cycle(6)) == 12


def test_automorphism_count_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(12):
        n = int(rng.integers(2, 6))
        g = make_random_graph(n, 0.5, rng)
        brute = sum(
            1 for perm in itertools.permutations(range(n))
            if permute_graph(g, list(perm)) == g)
        assert automorphism_count(g) == brute


LARGE_TWIN_HOSTS = {
    "star_K1_999": (lambda: Graph.from_edges(1000, [(0, v) for v in range(1, 1000)]),
                    math.factorial(999)),
    "one_edge": (lambda: Graph.from_edges(1000, [(0, 1)]), 2 * math.factorial(998)),
    "empty": (lambda: Graph.from_edges(1000, []), math.factorial(1000)),
    "K1000": (lambda: complete_graph(1000), math.factorial(1000)),
}


@pytest.mark.parametrize("name", sorted(LARGE_TWIN_HOSTS))
def test_twin_classes_give_aut_of_large_hosts(name):
    # above automorphism_count's cap; the twin pass numbers each class, so
    # the search has one leaf and |Aut| is the product of the |class|!
    build, expected = LARGE_TWIN_HOSTS[name]
    g = build()
    assert _symmetry_search(g, (0,) * g.n)[2] == expected


def test_refine_colors_returns_dense_ranking_of_discrete_coloring():
    # twin-style numbering c*n + rank leaves gaps between the color ids
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    colors = [c * 5 + r for c, r in ((1, 1), (0, 4), (2, 0), (0, 1), (1, 0))]
    dense = [3, 1, 4, 0, 2]
    assert _refine_colors(5, path.neighbor_lists, colors) == dense
    assert _refine_colors(5, path.neighbor_lists, dense) == dense

    # a discrete coloring cannot split, so no neighbor list is read
    class Unread:
        def __getitem__(self, v):
            raise AssertionError("refinement pass on a discrete coloring")

    assert _refine_colors(5, Unread(), colors) == dense
    assert _refine_colors(0, Unread(), []) == []


def test_symmetry_search_refuses_past_its_signature_cap(monkeypatch):
    # 5 disjoint edges give 5! leaves and 2,910 refinement signatures, the
    # 12-cycle 2,028; under a cap of 1,000 both searches are refused, and
    # a graph that refines to discrete colorings at once still passes
    five_edges = Graph.from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
    assert automorphism_count(five_edges) == 2 ** 5 * math.factorial(5)
    monkeypatch.setattr(graphs, "SYMMETRY_SIGNATURE_CAP", 1000)
    with pytest.raises(CapacityError, match="refinement signatures"):
        canonical_form(five_edges)
    with pytest.raises(CapacityError):
        automorphism_count(cycle(12))
    one_edge = Graph.from_edges(1000, [(0, 1)])
    assert _symmetry_search(one_edge, (0,) * 1000)[2] == 2 * math.factorial(998)


def test_automorphism_count_is_bounded_by_signatures_alone(monkeypatch):
    # no node cap: 13 isolated nodes are one twin class that refines at once,
    # and a 13-node cycle is refused only by the signature cap
    assert automorphism_count(Graph.from_edges(13, [])) == math.factorial(13)
    assert automorphism_count(cycle(13)) == 26
    monkeypatch.setattr(graphs, "SYMMETRY_SIGNATURE_CAP", 1000)
    with pytest.raises(CapacityError, match="refinement signatures"):
        automorphism_count(cycle(13))


def test_canonical_form_of_large_sparse_host_returns():
    # one edge among 998 isolated nodes: a search that branches on every
    # isolated node never ends, and a recursive one overflows the stack
    code = ("from motifdiff.graphs import Graph, canonical_form\n"
            "print(canonical_form(Graph.from_edges(1000, [(0, 1)]))[:9].decode())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1000;1;00"
