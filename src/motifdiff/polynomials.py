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
index tuples are grouped by their first-occurrence relabeling; each group
gives one collapsed simple pattern (counted on the binary side) and one
pair list with multiplicity kept (evaluated on the real side).

Every evaluation enumerates the n!/(n-k)! injective assignments of the
pattern's nodes, so it is refused past ``ASSIGNMENT_CAP`` of them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import CapacityError, ContractError, InputError
from .graphs import Pattern

# Basis evaluation enumerates n!/(n-k)! assignments; the library contract
# keeps pattern order small enough for that to stay desk scale.
BASIS_PATTERN_CAP = 6
# Largest assignment list one evaluation may build (k index columns each);
# the brute-force counting oracle at its 9-host cap needs 9! = 362,880.
ASSIGNMENT_CAP = 10**6


# a few entries: one near the cap is up to 48 MB
@lru_cache(maxsize=4)
def _injective_assignments(n: int, k: int) -> np.ndarray:
    count = math.perm(n, k)
    if count > ASSIGNMENT_CAP:
        raise CapacityError(
            f"{k}-node monomials on {n} nodes need {count:,} injective"
            f" assignments; capped at {ASSIGNMENT_CAP:,}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(n), k))
    arr = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
    arr.setflags(write=False)
    return arr


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
    if k_nodes > n:
        return 0 if exact else 0.0
    acc = _edge_products(W, _injective_assignments(n, k_nodes), edges,
                         np.int64 if exact else np.float64)
    # fsum is correctly rounded, so the sum does not depend on assignment
    # order: permuting W permutes the products and leaves the bits unchanged
    return int(acc.sum()) if exact else math.fsum(acc.tolist())


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
    asn = _injective_assignments(n, k_nodes)
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
            else [math.fsum(block) for block in blocks.tolist()])
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
# index tuples of the moment expansion


def first_occurrence_relabel(seq) -> tuple[int, ...]:
    """Canonical relabeling by order of first occurrence: (3,1,3,7) -> (0,1,0,2)."""
    mapping: dict[int, int] = {}
    out = []
    for x in seq:
        if x not in mapping:
            mapping[x] = len(mapping)
        out.append(mapping[x])
    return tuple(out)


def _expansion_terms(n: int, length: int, rooted: bool):
    """Group the index tuples of one moment-expansion term.

    Every tuple in ``product(range(n), repeat=length)`` is read as pairs
    (u1, v1, u2, v2, ...) and grouped by its first-occurrence relabeling, in
    first-seen order. For each group whose tuples do not vanish (no pair on
    a single node) this yields (multiplicity, node count, simple edges,
    multi edges): the sorted edge set of the collapsed pattern, counted on
    the binary side, and the sorted pair list with multiplicity kept, the
    monomial evaluated on the real side. When `rooted`, the first pair is
    the root pair (0, 1): an edge of the simple pattern, but a monomial
    factor only when a later pair repeats it.
    """
    groups = Counter(first_occurrence_relabel(t)
                     for t in itertools.product(range(n), repeat=length))
    for key, mult in groups.items():
        pairs = [(min(a, b), max(a, b)) for a, b in zip(key[::2], key[1::2])]
        if any(a == b for a, b in pairs):
            continue
        simple = tuple(sorted(set(pairs)))
        factors = pairs[1:] if rooted else pairs
        yield mult, len(set(key)), simple, tuple(sorted(factors))
