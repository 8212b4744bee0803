"""Shared helpers for the test suite."""

import os
from pathlib import Path

import numpy as np

import motifdiff
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


def src_env():
    """Environment for a subprocess that imports this checkout's package."""
    src = str(Path(motifdiff.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
