"""Exact subgraph counting.

The central quantity is the non-induced subgraph count: the number of
injective edge-preserving maps from a pattern into a host graph, divided by
the pattern's automorphism group order. Non-edges of the pattern impose no
constraint, so a triangle is counted inside a complete graph as many times
as there are node triples.

The matcher is a backtracking search over host nodes with bitmask candidate
intersection. Patterns are tiny (at most 12 nodes) and hosts are desk scale,
so this is exact and fast without any isomorphism-counting shortcuts.

``naive_count_oracle`` recounts by brute force over all injective node
assignments: the exact integer monomial sum of the pattern's edges over the
host adjacency, divided by |Aut|. It exists to cross-check the matcher and
is deliberately independent of it: no shared traversal code, just adjacency
lookups over explicitly materialized assignments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

from .errors import CapacityError, ContractError, InputError
from .graphs import Graph, Pattern, automorphism_count
from .parallel import ordered_map
from .polynomials import monomial_sum

# Brute-force oracle materializes n!/(n-k)! assignments; past this it stops
# being a quick cross-check and starts being a space problem.
ORACLE_NODE_CAP = 9


def _embedding_order(p: Pattern, pinned: tuple[int, ...]) -> tuple[list[int], list[list[int]]]:
    """Greedy search order over the pattern's non-pinned nodes.

    Nodes with more already-placed neighbors come first (their candidate
    sets are tighter), ties broken by degree then by index. Returns the
    order and, per ordered node, the positions in (pins + order) of its
    already-placed pattern neighbors.
    """
    g = p.graph
    placed = list(pinned)
    remaining = [v for v in range(g.n) if v not in placed]
    order: list[int] = []
    while remaining:
        def score(v):
            anchored = sum(1 for u in g.neighbor_lists[v] if u in placed)
            return (anchored, g.degrees[v], -v)
        v = max(remaining, key=score)
        remaining.remove(v)
        order.append(v)
        placed.append(v)
    full = list(pinned) + order
    prev_positions = []
    for i, v in enumerate(order):
        before = full[:len(pinned) + i]
        prev_positions.append(
            [before.index(u) for u in g.neighbor_lists[v] if u in before])
    return order, prev_positions


def _count_embeddings(g: Graph, p: Pattern,
                      pins: Mapping[int, int] | None = None) -> int:
    """Number of injective edge-preserving maps pattern -> host extending pins."""
    k = p.graph.n
    pins = dict(pins or {})
    for pv, hv in pins.items():
        if not (0 <= pv < k):
            raise InputError(f"pinned pattern node {pv} out of range")
        if not (0 <= hv < g.n):
            raise InputError(f"pinned host node {hv} out of range")
    if len(set(pins.values())) < len(pins):
        return 0
    # pinned adjacency must already hold among the pins
    pin_items = sorted(pins.items())
    for (pv1, hv1), (pv2, hv2) in itertools.combinations(pin_items, 2):
        if p.graph.adj[pv1, pv2] and not g.adj[hv1, hv2]:
            return 0
    if k - len(pins) > g.n - len(pins):
        return 0
    if k == len(pins):
        return 1
    pinned_nodes = tuple(pv for pv, _ in pin_items)
    order, prev_positions = _embedding_order(p, pinned_nodes)
    pdeg = p.graph.degrees
    gdeg = g.degrees
    masks = g.neighbor_masks
    full_hosts = [hv for _, hv in pin_items]
    all_mask = (1 << g.n) - 1
    used0 = 0
    for hv in full_hosts:
        used0 |= 1 << hv
    total = 0
    depth = len(order)
    hosts = full_hosts + [0] * depth

    def dfs(i: int, used: int) -> int:
        v = order[i]
        cand = all_mask & ~used
        for pos in prev_positions[i]:
            cand &= masks[hosts[pos]]
        need = pdeg[v]
        count = 0
        base = len(pin_items)
        while cand:
            low = cand & -cand
            cand ^= low
            u = low.bit_length() - 1
            if gdeg[u] < need:
                continue
            if i + 1 == depth:
                count += 1
            else:
                hosts[base + i] = u
                count += dfs(i + 1, used | low)
        return count

    total = dfs(0, used0)
    return total


def count_injective_homs(g: Graph, p: Pattern) -> int:
    """Injective edge-preserving maps pattern -> host (labeled placements)."""
    return _count_embeddings(g, p)


def count_subgraphs(g: Graph, p: Pattern) -> int:
    """Non-induced subgraph count: injective maps over |Aut(pattern)|."""
    homs = _count_embeddings(g, p)
    aut = automorphism_count(p.graph)
    if homs % aut:
        raise ContractError(
            f"injective map count {homs} not divisible by |Aut| = {aut}")
    return homs // aut


def count_rooted(g: Graph, i: int, j: int, p: Pattern) -> int:
    """Injective maps sending the pattern's marks onto host nodes (i, j)."""
    if p.marks is None:
        raise ContractError("rooted counting requires a marked pattern")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise InputError(f"root ({i}, {j}) out of range for n={g.n}")
    if i == j:
        raise InputError("root nodes must be distinct")
    c, d = p.marks
    return _count_embeddings(g, p, pins={c: i, d: j})


def naive_count_oracle(g: Graph, p: Pattern) -> int:
    """Brute-force recount over all injective node assignments (n <= 9)."""
    if g.n > ORACLE_NODE_CAP:
        raise CapacityError(
            f"oracle is capped at {ORACLE_NODE_CAP} host nodes, got {g.n}")
    homs = monomial_sum(g.adj, p.k, p.graph.edge_list)
    aut = automorphism_count(p.graph)
    if homs % aut:
        raise ContractError(
            f"brute-force map count {homs} not divisible by |Aut| = {aut}")
    return homs // aut


@dataclass(frozen=True)
class CountDistribution:
    """Empirical distribution of a pattern's count over a dataset."""

    mass: Mapping[int, float]
    sample_size: int
    counts: Mapping[int, int] | None = None

    def __post_init__(self):
        mass = {int(k): float(v) for k, v in dict(self.mass).items()}
        object.__setattr__(self, "mass", mass)
        if self.sample_size <= 0:
            raise ContractError("sample_size must be positive")
        if any(v < 0 for v in mass.values()):
            raise ContractError("probability mass must be non-negative")
        if abs(sum(mass.values()) - 1.0) > 1e-12:
            raise ContractError("probability mass must sum to 1")
        if self.counts is not None:
            counts = {int(k): int(v) for k, v in dict(self.counts).items()}
            if sum(counts.values()) != self.sample_size:
                raise ContractError("histogram counts must sum to sample_size")
            if set(counts) != set(mass):
                raise ContractError("histogram support must match mass support")
            object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, values) -> "CountDistribution":
        values = [int(v) for v in values]
        if not values:
            raise ContractError("cannot build a distribution from no samples")
        counts: dict[int, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        total = len(values)
        mass = {k: c / total for k, c in counts.items()}
        return cls(mass=mass, sample_size=total, counts=counts)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def to_json_dict(self) -> dict:
        out = {
            "mass": {str(k): self.mass[k] for k in sorted(self.mass)},
            "sample_size": self.sample_size,
        }
        if self.counts is not None:
            out["counts"] = {str(k): self.counts[k] for k in sorted(self.counts)}
        return out


def _graph_counts(g: Graph, patterns: tuple[Pattern, ...]) -> tuple[int, ...]:
    return tuple(count_subgraphs(g, p) for p in patterns)


def count_table(graphs: Sequence[Graph], patterns: Sequence[Pattern],
                threads: int = 1) -> list[list[int]]:
    """Subgraph counts of every pattern in every graph, in one worker pool.

    Returns one column per pattern (in pattern order) holding the per-graph
    counts (in graph order).
    """
    if not graphs:
        raise InputError("no graphs to count")
    rows = ordered_map(partial(_graph_counts, patterns=tuple(patterns)),
                       graphs, threads=threads)
    return [list(column) for column in zip(*rows)]
