"""Graph polynomial bases over real symmetric matrices.

A pattern with edge set E on k nodes induces the invariant polynomial

    Q(W) = (1/n!) * sum over injective maps s: [k] -> [n] of
           prod_{(u,v) in E} W[s(u), s(v)]

and, when two nodes (c, d) are marked, the matrix-valued equivariant
polynomial whose (i, j) entry fixes s(c)=i, s(d)=j and sums over injective
assignments of the rest, scaled by (n-k)!/n!. On a binary adjacency these
reduce to scaled subgraph and rooted-subgraph counts; on arbitrary real
input they are the monomial bases the score decomposition is written in.

The raw helpers (``monomial_sum``, ``pinned_monomial_matrix``) take explicit
edge lists that may repeat a pair; repeats multiply the factor in, which is
what the moment expansion needs on the real-matrix side. The expansion's
index tuples are grouped by set partition of their positions, and the
partitions are listed directly, never the tuples; each group gives one
collapsed simple pattern (counted on the binary side) and one pair list
with multiplicity kept (evaluated on the real side).

Every evaluation enumerates the n!/(n-k)! injective assignments of the
pattern's nodes, so it is refused past ``ASSIGNMENT_CAP`` of them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError, ContractError, InputError
from .graphs import Pattern

# Basis evaluation enumerates n!/(n-k)! assignments; the library contract
# keeps pattern order small enough for that to stay desk scale.
BASIS_PATTERN_CAP = 6
# Largest assignment list one evaluation may build (k index columns each);
# the test suite's brute-force counting oracle, capped at 9 hosts, needs
# 9! = 362,880.
ASSIGNMENT_CAP = 10**6


def _require_assignments(n: int, k: int) -> None:
    count = math.perm(n, k)
    if count > ASSIGNMENT_CAP:
        raise CapacityError(
            f"{k}-node monomials on {n} nodes need {count:,} injective"
            f" assignments; capped at {ASSIGNMENT_CAP:,}")


def _injective_assignments(n: int, k: int) -> np.ndarray:
    """The injective maps [k] -> [n] as read-only intp rows in lexicographic
    order, the order of itertools' k-permutations; no rows when k > n."""
    _require_assignments(n, k)
    table = np.zeros((int(k <= n), max(k - n, 0)), dtype=np.intp)
    for m in range(max(n - k, 0) + 1, n + 1):
        # block h: head h, then the other m-1 values in the previous table's
        # order; filled in place, so the table is never held twice
        grown = np.empty((m, len(table), table.shape[1] + 1), dtype=np.intp)
        grown[:, :, 0] = np.arange(m)[:, None]
        for h in range(m):
            grown[h, :, 1:] = np.delete(np.arange(m, dtype=np.intp), h)[table]
        table = grown.reshape(-1, grown.shape[2])
    table.setflags(write=False)
    return table


# for the monomial sums only; a few entries: one near the cap is up to 48 MB
_cached_assignments = lru_cache(maxsize=4)(_injective_assignments)


def _as_square(W) -> np.ndarray:
    arr = np.asarray(W)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("W must be a square matrix")
    return arr


def _edge_products(W: np.ndarray, asn: np.ndarray, edges, dtype) -> np.ndarray:
    """Per assignment row, the product of W entries along `edges` in order."""
    k_nodes = asn.shape[1]
    acc = np.ones(len(asn), dtype=dtype)
    for a, b in edges:
        if not (0 <= a < k_nodes and 0 <= b < k_nodes):
            raise InputError(f"edge ({a}, {b}) out of range for k={k_nodes}")
        acc = acc * W[asn[:, a], asn[:, b]].astype(dtype)
    return acc


def monomial_sum(W, k_nodes: int, edges) -> int | float:
    """Raw injective monomial sum: sum over injective maps [k_nodes] -> [n]
    of the product of W entries along `edges` (repeats retain multiplicity).

    Integer input accumulates exactly in int64; otherwise float64 products
    are summed with ``math.fsum``.
    """
    W = _as_square(W)
    n = W.shape[0]
    if k_nodes < 0:
        raise InputError("k_nodes must be non-negative")
    exact = np.issubdtype(W.dtype, np.integer)
    acc = _edge_products(W, _cached_assignments(n, k_nodes), edges,
                         np.int64 if exact else np.float64)
    # fsum is correctly rounded, so permuting W (which permutes the products)
    # leaves the bits unchanged; bounded slices keep its Python list small
    return int(acc.sum()) if exact else math.fsum(
        v for i in range(0, len(acc), 2**16) for v in acc[i:i + 2**16].tolist())


def pinned_monomial_matrix(W, k_nodes: int, edges, c: int, d: int) -> np.ndarray:
    """Raw pinned monomial sums, as an n x n matrix.

    Entry (i, j) pins node c to i and node d to j and sums the edge product
    over injective assignments of the remaining k_nodes-2 nodes to the other
    hosts. Diagonal entries are 0 (pins must be distinct hosts).
    """
    W = _as_square(W)
    n = W.shape[0]
    if k_nodes < 2:
        raise InputError("pinned sums need at least the two marked nodes")
    if not (0 <= c < k_nodes and 0 <= d < k_nodes) or c == d:
        raise InputError(f"marks ({c}, {d}) invalid for k={k_nodes}")
    exact = np.issubdtype(W.dtype, np.integer)
    dtype = np.int64 if exact else np.float64
    asn = _cached_assignments(n, k_nodes)
    acc = _edge_products(W, asn, edges, dtype)
    out = np.zeros((n, n), dtype=dtype)
    if len(acc):  # no assignment when k_nodes > n
        # every pin pair has the same number of completions, so rows sorted
        # by (host of c, host of d) form one block per off-diagonal entry, in
        # row-major order; fsum makes each sum independent of the row order
        by_pins = np.argsort(asn[:, c] * n + asn[:, d])
        blocks = acc[by_pins].reshape(n * (n - 1), -1)
        out[~np.eye(n, dtype=bool)] = (
            blocks.sum(axis=1) if exact
            else [math.fsum(block.tolist()) for block in blocks])
    return out


def _require_basis_pattern(p: Pattern, marked: bool) -> None:
    if marked and p.marks is None:
        raise ContractError("this basis element needs a marked pattern")
    if not marked and p.marks is not None:
        raise ContractError("this basis element needs an unmarked pattern")
    if p.k > BASIS_PATTERN_CAP:
        raise CapacityError(
            f"basis evaluation is capped at {BASIS_PATTERN_CAP}-node patterns,"
            f" got {p.k}")


def invariant_basis(W, p: Pattern) -> float:
    """Permutation-invariant basis polynomial: raw injective sum over n!."""
    _require_basis_pattern(p, marked=False)
    W = _as_square(W)
    n = W.shape[0]
    if p.k > n:
        return 0.0
    raw = monomial_sum(W, p.k, p.graph.edge_list)
    return float(raw) / factorial(n)


def equivariant_basis(W, p: Pattern) -> np.ndarray:
    """Permutation-equivariant basis polynomial, an n x n float matrix.

    Raw pinned sums scaled by (n-k)!/n!, so that each entry is the average
    over all n! permutation extensions rather than over the injective
    assignments alone.
    """
    _require_basis_pattern(p, marked=True)
    W = _as_square(W)
    n = W.shape[0]
    if p.k > n:
        return np.zeros((n, n), dtype=np.float64)
    c, d = p.marks
    raw = pinned_monomial_matrix(W, p.k, p.graph.edge_list, c, d)
    return raw.astype(np.float64) * (factorial(n - p.k) / factorial(n))


# ---------------------------------------------------------------------------
# set partitions of the moment expansion's index positions


def _expansion_terms(n: int, length: int, rooted: bool):
    """Group the index tuples of one moment-expansion term, never listing them.

    A tuple in ``product(range(n), repeat=length)`` is read as pairs
    (u1, v1, u2, v2, ...); its group is its relabeling by first occurrence,
    (3,1,3,7) -> (0,1,0,2): a restricted growth string with at most n values,
    one per set partition of the positions (Knuth, TAOCP 4A, 7.2.1.5). The
    strings are listed in lexicographic order, the order in which the product
    first reaches each group, and one is dropped once a pair lands on a single
    node. For a string with b values this yields (n!/(n-b)! tuples, b, simple
    edges, multi edges): the sorted edge set of the collapsed pattern, counted
    on the binary side, and the sorted pair list with multiplicity kept, the
    monomial evaluated on the real side. When `rooted`, the first pair is the
    root pair (0, 1): an edge of the simple pattern, but a monomial factor
    only when a later pair repeats it.
    """
    strings = [()]
    for i in range(length):
        # a used value or the next new one, up to n values; no pair on one node
        strings = [s + (v,) for s in strings
                   for v in range(min(max(s, default=-1) + 2, n))
                   if i % 2 == 0 or v != s[-1]]
    for key in strings:
        pairs = [(min(a, b), max(a, b)) for a, b in zip(key[::2], key[1::2])]
        factors = pairs[1:] if rooted else pairs
        blocks = len(set(key))
        yield (math.perm(n, blocks), blocks, tuple(sorted(set(pairs))),
               tuple(sorted(factors)))
