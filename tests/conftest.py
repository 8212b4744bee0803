"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import motifdiff
from motifdiff.errors import InputError
from motifdiff.graphs import Graph


def make_random_graph(n, prob, rng):
    """Bernoulli upper triangle, mirrored. Kept separate from the library's
    own random-graph helper so property tests do not lean on what they test."""
    upper = np.triu(rng.random((n, n)) < prob, 1).astype(np.uint8)
    return Graph(upper + upper.T)


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
