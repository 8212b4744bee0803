"""networkx as an independent witness for automorphism counts and for
canonical forms as an isomorphism test."""

import itertools

import numpy as np
import pytest

from motifdiff import graphs
from motifdiff.graphs import Graph, automorphism_count, canonical_form

from conftest import make_random_graph, packbits_key, permute_graph

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_list)
    return h


# Enumerating self-isomorphisms costs ~0.1 ms each, so groups past this size
# (stars up to K1,11 have 11! elements) are counted down a stabilizer chain.
ENUMERATION_CAP = 5040


def nx_automorphisms(g):
    """|Aut| from GraphMatcher: the number of self-isomorphisms it lists, or,
    past ENUMERATION_CAP, the product of orbit sizes down a stabilizer chain,
    each orbit member found by a GraphMatcher test with fixed nodes labeled."""
    h = to_nx(g)
    listed = sum(1 for _ in itertools.islice(
        GraphMatcher(h, h).isomorphisms_iter(), ENUMERATION_CAP + 1))
    if listed <= ENUMERATION_CAP:
        return listed

    def labeled(pins):
        c = h.copy()
        nx.set_node_attributes(c, pins, "pin")
        return c

    def same_pin(a, b):
        return a.get("pin") == b.get("pin")

    total = 1
    for v in range(g.n):
        fixed = {f: f for f in range(v)}
        source = labeled({**fixed, v: "moved"})
        total *= sum(
            GraphMatcher(source, labeled({**fixed, u: "moved"}),
                         node_match=same_pin).is_isomorphic()
            for u in range(v, g.n))
    return total


def from_nx(h):
    index = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph.from_edges(len(index), [(index[u], index[v]) for u, v in h.edges])


def families():
    for k in range(1, 12):
        yield f"star_K1_{k}", from_nx(nx.star_graph(k))
    for k in range(1, 7):
        yield f"{k}_disjoint_edges", Graph.from_edges(
            2 * k, [(2 * i, 2 * i + 1) for i in range(k)])
    for a in range(1, 5):
        for b in range(a, 6):
            yield f"K{a}_{b}", from_nx(nx.complete_bipartite_graph(a, b))
    yield "three_triangles", from_nx(nx.disjoint_union_all(
        [nx.complete_graph(3)] * 3))
    yield "petersen", from_nx(nx.petersen_graph())


def test_automorphism_count_matches_networkx_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 9))
        g = make_random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        assert automorphism_count(g) == nx_automorphisms(g)


@pytest.mark.parametrize("name,g", list(families()),
                         ids=[name for name, _ in families()])
def test_automorphism_count_matches_networkx_on_families(name, g):
    assert automorphism_count(g) == nx_automorphisms(g)


def test_canonical_form_agrees_with_networkx_isomorphism():
    rng = np.random.default_rng(23)
    equal_pairs = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        # sparse pairs on few nodes collide often enough to hit both outcomes
        a = make_random_graph(n, 0.4, rng)
        b = make_random_graph(n, 0.4, rng)
        same = canonical_form(a) == canonical_form(b)
        assert same == nx.is_isomorphic(to_nx(a), to_nx(b))
        equal_pairs += same
        relabeled = permute_graph(a, list(rng.permutation(n)))
        assert canonical_form(relabeled) == canonical_form(a)
    assert 0 < equal_pairs < 300


def test_atlas_canonical_forms_and_small_groups():
    # the atlas lists every graph on up to 7 nodes once per isomorphism class
    atlas = [from_nx(h) for h in nx.graph_atlas_g()]
    assert len({canonical_form(g) for g in atlas}) == len(atlas) == 1253
    for g in atlas:
        if g.n <= 6:
            assert automorphism_count(g) == nx_automorphisms(g)


def test_atlas_canonical_forms_match_packbits_keys(monkeypatch):
    atlas = [from_nx(h) for h in nx.graph_atlas_g()]
    got = [canonical_form(g) for g in atlas]
    monkeypatch.setattr(graphs, "_ordering_bits", packbits_key)
    assert got == [canonical_form(g) for g in atlas]
