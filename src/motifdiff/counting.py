"""Exact subgraph counting.

The central quantity is the non-induced subgraph count: the number of
injective edge-preserving maps from a pattern into a host graph, divided by
the pattern's automorphism group order. Non-edges of the pattern impose no
constraint, so a triangle is counted inside a complete graph as many times
as there are node triples.

The matcher is a backtracking search over host nodes with bitmask candidate
intersection. Patterns are tiny (at most 12 nodes) and hosts are desk scale.
Subgraph counting first compiles the pattern once into a plan: |Aut|, the
matcher's node order and symmetry-breaking constraints host(v) < host(u)
(after Grochow & Kellis, "Network motif discovery using subgraph
enumeration and symmetry-breaking", RECOMB 2007). The constraints come from
a chain of color refinements, each with one more node of the order
individualized; the cell of the next node stands in for its orbit. A cell
contains the orbit, so the product of the cell sizes is at least |Aut|, and
it equals |Aut| exactly when every cell is an orbit. Only then is the chain
certified: the constrained search meets each subgraph once, and the count
needs no division. Otherwise (regular patterns refinement cannot split, such
as C3 plus a disjoint C4) the plan has no constraints and the map count is
divided by |Aut|. The injective map counts stay unconstrained.

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
from .graphs import (Graph, Pattern, _individualize, _refine_colors,
                     automorphism_count)
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


@dataclass(frozen=True)
class _Plan:
    """A pattern compiled for subgraph counting.

    `order` and `prev_positions` are the matcher's walk (`_embedding_order`
    with no pins); `smaller_positions[i]` lists the earlier positions whose
    host node must be smaller than the host of `order[i]`. `divisor` is 1
    when those constraints are certified and |Aut| when there are none.
    """

    pattern: Pattern
    order: tuple[int, ...]
    prev_positions: tuple[tuple[int, ...], ...]
    smaller_positions: tuple[tuple[int, ...], ...]
    divisor: int


def _compile(p: Pattern) -> _Plan:
    """Plan for counting `p`: |Aut|, the matcher's order, and the
    symmetry-breaking constraints if the refinement chain certifies them."""
    g = p.graph
    aut = automorphism_count(g)
    order, prev_positions = _embedding_order(p, ())
    position = {v: i for i, v in enumerate(order)}
    smaller: list[list[int]] = [[] for _ in order]
    colors = _refine_colors(g.n, g.neighbor_lists, [0] * g.n)
    product = 1
    for i, v in enumerate(order):
        if len(set(colors)) == g.n:
            break
        # earlier nodes are individualized, so the rest of the cell is later
        cell = [u for u in range(g.n) if colors[u] == colors[v]]
        product *= len(cell)
        for u in cell:
            if u != v:
                smaller[position[u]].append(i)
        colors = _refine_colors(g.n, g.neighbor_lists, _individualize(colors, v))
    order, prev_positions = tuple(order), tuple(map(tuple, prev_positions))
    if product != aut:
        return _Plan(p, order, prev_positions, ((),) * len(order), aut)
    return _Plan(p, order, prev_positions, tuple(map(tuple, smaller)), 1)


def _count_embeddings(g: Graph, p: Pattern,
                      pins: Mapping[int, int] | None = None,
                      plan: _Plan | None = None) -> int:
    """Number of injective edge-preserving maps pattern -> host extending
    pins; with a plan (and no pins), only those meeting its constraints."""
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
    if plan is None:
        order, prev_positions = _embedding_order(
            p, tuple(pv for pv, _ in pin_items))
        smaller_positions = [()] * len(order)
    else:
        order, prev_positions = plan.order, plan.prev_positions
        smaller_positions = plan.smaller_positions
    pdeg = p.graph.degrees
    gdeg = g.degrees
    masks = g.neighbor_masks
    full_hosts = [hv for _, hv in pin_items]
    all_mask = (1 << g.n) - 1
    used0 = 0
    for hv in full_hosts:
        used0 |= 1 << hv
    depth = len(order)
    base = len(pin_items)
    hosts = full_hosts + [0] * depth

    def dfs(i: int, used: int) -> int:
        v = order[i]
        cand = all_mask & ~used
        for pos in prev_positions[i]:
            cand &= masks[hosts[pos]]
        for pos in smaller_positions[i]:
            cand &= ~((2 << hosts[pos]) - 1)
        need = pdeg[v]
        count = 0
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

    return dfs(0, used0)


def count_injective_homs(g: Graph, p: Pattern) -> int:
    """Injective edge-preserving maps pattern -> host (labeled placements)."""
    return _count_embeddings(g, p)


def count_subgraphs(g: Graph, p: Pattern, plan: _Plan | None = None) -> int:
    """Non-induced subgraph count: injective maps over |Aut(pattern)|.

    `plan` is `p` compiled by `_compile`; a caller counting one pattern in
    many hosts passes it so the pattern is compiled once. Without one, the
    pattern is compiled here.
    """
    if plan is None:
        plan = _compile(p)
    found = _count_embeddings(g, p, plan=plan)
    if found % plan.divisor:
        raise ContractError(
            f"injective map count {found} not divisible by |Aut| = {plan.divisor}")
    return found // plan.divisor


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
    """Empirical distribution of a pattern's count over a dataset, kept as
    integer counts per value; the mass is derived from them."""

    counts: Mapping[int, int]

    def __post_init__(self):
        counts = {int(k): int(v) for k, v in dict(self.counts).items()}
        if any(v < 0 for v in counts.values()):
            raise ContractError("histogram counts must be non-negative")
        if not sum(counts.values()):
            raise ContractError("cannot build a distribution from no samples")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_counts(cls, values) -> "CountDistribution":
        counts: dict[int, int] = {}
        for v in map(int, values):
            counts[v] = counts.get(v, 0) + 1
        return cls(counts)

    @property
    def sample_size(self) -> int:
        return sum(self.counts.values())

    @property
    def mass(self) -> dict[int, float]:
        total = self.sample_size
        return {k: c / total for k, c in self.counts.items()}

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))

    def to_json_dict(self) -> dict:
        mass = self.mass
        return {
            "mass": {str(k): mass[k] for k in sorted(mass)},
            "sample_size": self.sample_size,
            "counts": {str(k): self.counts[k] for k in sorted(self.counts)},
        }


def _graph_counts(g: Graph, plans: tuple[_Plan, ...]) -> tuple[int, ...]:
    return tuple(count_subgraphs(g, plan.pattern, plan) for plan in plans)


def count_table(graphs: Sequence[Graph], patterns: Sequence[Pattern],
                threads: int = 1) -> list[list[int]]:
    """Subgraph counts of every pattern in every graph, in one worker pool.

    Each pattern is compiled once, here, and the plans go to the workers.
    Returns one column per pattern (in pattern order) holding the per-graph
    counts (in graph order).
    """
    if not graphs:
        raise InputError("no graphs to count")
    plans = tuple(_compile(p) for p in patterns)
    rows = ordered_map(partial(_graph_counts, plans=plans), graphs,
                       threads=threads)
    return [list(column) for column in zip(*rows)]
