"""Shared helpers for the test suite."""

import os
from itertools import permutations
from pathlib import Path

import numpy as np

import motifdiff
from motifdiff.errors import CapacityError, ContractError, InputError
from motifdiff.graphs import Graph, automorphism_count
from motifdiff.polynomials import monomial_sum

# Brute-force oracle materializes n!/(n-k)! assignments; past this it stops
# being a quick cross-check and starts being a space problem.
ORACLE_NODE_CAP = 9


def make_random_graph(n, prob, rng):
    """Bernoulli upper triangle, mirrored. Kept separate from the library's
    own random-graph helper so property tests do not lean on what they test."""
    upper = np.triu(rng.random((n, n)) < prob, 1).astype(np.uint8)
    return Graph(upper + upper.T)


def naive_count_oracle(g, p):
    """Brute-force recount over all injective node assignments (n <= 9): the
    exact integer monomial sum of the pattern's edges over the host
    adjacency, divided by |Aut|. It shares no traversal code with the
    matcher, just adjacency lookups over explicitly materialized
    assignments."""
    if g.n > ORACLE_NODE_CAP:
        raise CapacityError(
            f"oracle is capped at {ORACLE_NODE_CAP} host nodes, got {g.n}")
    homs = monomial_sum(g.adj, p.k, p.graph.edge_list)
    aut = automorphism_count(p.graph)
    if homs % aut:
        raise ContractError(
            f"brute-force map count {homs} not divisible by |Aut| = {aut}")
    return homs // aut


def rooted_counts(g, p):
    """Rooted counts of a marked pattern as an n x n integer matrix: entry
    (i, j) is the number of injective edge-preserving maps sending the marks
    (c, d) onto host nodes (i, j). A plain tally over the k-permutations of
    the host's nodes, independent of the monomial sums."""
    c, d = p.marks
    out = np.zeros((g.n, g.n), dtype=np.int64)
    for s in permutations(range(g.n), p.k):
        if all(g.adj[s[u], s[v]] for u, v in p.graph.edge_list):
            out[s[c], s[d]] += 1
    return out


def cycle_counts_by_traces(g):
    """c3, c4 and c5 of g from closed-walk traces and degrees (Harary and
    Manvel, 1971), an oracle independent of the matcher:
    c3 = tr(A^3)/6, c4 = (tr(A^4) - 2 sum d^2 + 2m)/8 and
    c5 = (tr(A^5) - 5 tr(A^3) - 5 sum_i (d_i - 2) (A^3)_ii)/10.
    The products run in float64, which is exact while every partial sum is
    an integer below 2^53; no entry of A^k exceeds D^(k-1), so n D^5 bounds
    them all, D the largest degree."""
    adj = g.adj.astype(np.float64)
    deg = adj.sum(axis=1)
    assert g.n * int(deg.max(initial=0)) ** 5 < 2 ** 53
    a2 = adj @ adj
    a3 = a2 @ adj
    diag3 = np.diagonal(a3)
    tr3 = diag3.sum()
    tr4 = (a2 * a2).sum()  # tr(A^2 A^2), A symmetric
    tr5 = (a2 * a3).sum()  # tr(A^2 A^3)
    m = deg.sum() / 2
    counts = (tr3 / 6, (tr4 - 2 * (deg * deg).sum() + 2 * m) / 8,
              (tr5 - 5 * tr3 - 5 * ((deg - 2) * diag3).sum()) / 10)
    assert all(c == int(c) for c in counts)
    return [int(c) for c in counts]


def complete_graph(n):
    adj = np.ones((n, n), dtype=np.uint8)
    np.fill_diagonal(adj, 0)
    return Graph(adj)


def permute_graph(g, perm):
    """Relabeled copy: new adjacency[u][v] = old adjacency[perm[u]][perm[v]]."""
    p = list(perm)
    if sorted(p) != list(range(g.n)):
        raise InputError("perm must be a permutation of 0..n-1")
    idx = np.asarray(p, dtype=np.intp)
    return Graph(g.adj[np.ix_(idx, idx)])


def packbits_key(masks, order):
    """The canonical search's key of a node ordering, by its definition: the
    reordered adjacency's strict upper triangle, row by row, through
    np.packbits (big-endian, zero-padded)."""
    n = len(masks)
    adj = np.array([[m >> v & 1 for v in range(n)] for m in masks],
                   dtype=np.uint8).reshape(n, n)
    idx = np.asarray(order, dtype=np.intp)
    sub = adj[np.ix_(idx, idx)]
    return np.packbits(sub[np.triu_indices(len(order), 1)]).tobytes()


def is_connected(g):
    if g.n <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in g.neighbor_lists[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == g.n


def src_env():
    """Environment for a subprocess that imports this checkout's package."""
    src = str(Path(motifdiff.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
