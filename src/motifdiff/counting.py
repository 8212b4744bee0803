"""Exact subgraph counting.

The central quantity is the non-induced subgraph count: the number of
injective edge-preserving maps from a pattern into a host graph, divided by
the pattern's automorphism group order. Non-edges of the pattern impose no
constraint, so a triangle is counted inside a complete graph as many times
as there are node triples.

The matcher is one backtracking search over host nodes with bitmask
candidate intersection, driven by a plan. Patterns are tiny (at most 12
nodes) and hosts are desk scale. A plan starts as a walk: a greedy order
over the pattern's nodes that are not pinned, with no constraints. Injective
map counts use the walk as it is; rooted counts pin the two marks, after
``count_rooted`` has checked the roots once. Subgraph counting compiles the
pattern once into a plan that adds constraints host(v) < host(u) for each u
in v's orbit under the automorphisms fixing the nodes before v (after
Grochow & Kellis, RECOMB 2007), so the search meets each subgraph once. The
orbits come from a chain of color refinements, one more node of the order
individualized at each step. A cell contains the orbit, and the orbit sizes
multiply to |Aut| (orbit-stabilizer), so cells whose sizes multiply to |Aut|
are orbits. Otherwise (regular patterns such as C3 plus a disjoint C4) the
chain is rebuilt from true orbits: u is in v's orbit when the symmetry
search finds the same encoding with u or with v individualized (after
McKay & Piperno, "Practical graph isomorphism, II").

``naive_count_oracle`` recounts by brute force over all injective node
assignments: the exact integer monomial sum of the pattern's edges over the
host adjacency, divided by |Aut|. It exists to cross-check the matcher and
is deliberately independent of it: no shared traversal code, just adjacency
lookups over explicitly materialized assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .errors import CapacityError, ContractError, InputError
from .graphs import (Graph, Pattern, _individualize, _refine_colors,
                     _symmetry_search, automorphism_count)
from .parallel import ordered_map

# Brute-force oracle materializes n!/(n-k)! assignments; past this it stops
# being a quick cross-check and starts being a space problem.
ORACLE_NODE_CAP = 9


@dataclass(frozen=True)
class _Plan:
    """A pattern compiled for the matcher.

    `order` holds the non-pinned nodes; `prev_positions[i]` lists the
    positions in (pins + order) of the placed neighbors of `order[i]`, and
    `smaller_positions[i]` the earlier positions whose host must be smaller
    than its host.
    """

    pattern: Pattern
    order: tuple[int, ...]
    prev_positions: tuple[tuple[int, ...], ...]
    smaller_positions: tuple[tuple[int, ...], ...]


def _walk(p: Pattern, pinned: tuple[int, ...] = ()) -> _Plan:
    """Unconstrained plan: a greedy order over the non-pinned nodes.

    Nodes with more already-placed neighbors come first (their candidate
    sets are tighter), ties broken by degree then by index.
    """
    g = p.graph
    placed = list(pinned)
    while len(placed) < g.n:
        placed.append(max(
            (v for v in range(g.n) if v not in placed),
            key=lambda v: (sum(u in placed for u in g.neighbor_lists[v]),
                           g.degrees[v], -v)))
    order = tuple(placed[len(pinned):])
    prev_positions = tuple(
        tuple(placed.index(u) for u in g.neighbor_lists[v]
              if u in placed[:len(pinned) + i])
        for i, v in enumerate(order))
    return _Plan(p, order, prev_positions, ((),) * len(order))


def _compile(p: Pattern) -> _Plan:
    """Plan for counting `p`: the walk plus the symmetry-breaking constraints
    of its orbit chain, from refined cells if they certify, else from orbits."""
    g = p.graph
    aut = automorphism_count(g)
    walk = _walk(p)
    position = {v: i for i, v in enumerate(walk.order)}
    for exact in (False, True):
        smaller: list[list[int]] = [[] for _ in walk.order]
        colors = _refine_colors(g.n, g.neighbor_lists, [0] * g.n)
        product = 1
        for i, v in enumerate(walk.order):
            if len(set(colors)) == g.n:
                break
            # earlier nodes are individualized, so the rest of the cell is later
            cell = [u for u in range(g.n) if colors[u] == colors[v]]
            if exact:
                # canonical colors, leaves sorted by color: same key, same orbit
                key = _symmetry_search(g, _individualize(colors, v))[1]
                cell = [u for u in cell if u == v or key
                        == _symmetry_search(g, _individualize(colors, u))[1]]
            product *= len(cell)
            for u in cell:
                if u != v:
                    smaller[position[u]].append(i)
            colors = _refine_colors(g.n, g.neighbor_lists, _individualize(colors, v))
        if product == aut:
            return replace(walk, smaller_positions=tuple(map(tuple, smaller)))
    raise ContractError(f"orbit sizes multiply to {product}, not |Aut| = {aut}")


def _count_embeddings(g: Graph, plan: _Plan, pins: tuple[int, ...] = ()) -> int:
    """Number of injective edge-preserving maps of the plan's pattern into
    `g` that send its pinned nodes onto the distinct host nodes `pins`,
    whose adjacency the caller has checked, and meet its constraints."""
    if plan.pattern.k > g.n:
        return 0
    order, prev_positions = plan.order, plan.prev_positions
    smaller_positions = plan.smaller_positions
    depth = len(order)
    if not depth:
        return 1
    pdeg = plan.pattern.graph.degrees
    gdeg = g.degrees
    masks = g.neighbor_masks
    all_mask = (1 << g.n) - 1
    base = len(pins)
    hosts = list(pins) + [0] * depth

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

    return dfs(0, sum(1 << h for h in pins))


def count_injective_homs(g: Graph, p: Pattern) -> int:
    """Injective edge-preserving maps pattern -> host (labeled placements)."""
    return _count_embeddings(g, _walk(p))


def count_subgraphs(g: Graph, p: Pattern, plan: _Plan | None = None) -> int:
    """Non-induced subgraph count: injective maps over |Aut(pattern)|, found
    as the maps that meet the plan's symmetry-breaking constraints.

    `plan` is `p` compiled by `_compile`; a caller counting one pattern in
    many hosts passes it so the pattern is compiled once. Without one, the
    pattern is compiled here.
    """
    if plan is None:
        plan = _compile(p)
    return _count_embeddings(g, plan)


def count_rooted(g: Graph, i: int, j: int, p: Pattern) -> int:
    """Injective maps sending the pattern's marks onto host nodes (i, j)."""
    if p.marks is None:
        raise ContractError("rooted counting requires a marked pattern")
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise InputError(f"root ({i}, {j}) out of range for n={g.n}")
    if i == j:
        raise InputError("root nodes must be distinct")
    c, d = p.marks
    if p.graph.has_edge(c, d) and not g.has_edge(i, j):
        return 0
    return _count_embeddings(g, _walk(p, (c, d)), (i, j))


def naive_count_oracle(g: Graph, p: Pattern) -> int:
    """Brute-force recount over all injective node assignments (n <= 9)."""
    from .polynomials import monomial_sum

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


def count_table(graphs: Sequence[Graph], patterns: Sequence[Pattern],
                threads: int = 1) -> list[list[int]]:
    """Subgraph counts of every pattern in every graph, in one worker pool.

    Each pattern is compiled once, here, and the plans go to the workers.
    Returns one column per pattern (in pattern order) holding the per-graph
    counts (in graph order).
    """
    if not graphs:
        raise InputError("no graphs to count")
    plans = [_compile(p) for p in patterns]

    def share_rows(share: Sequence[Graph]) -> list[list[int]]:
        return [[count_subgraphs(g, plan.pattern, plan) for plan in plans]
                for g in share]

    rows = ordered_map(share_rows, graphs, threads=threads)
    return [list(column) for column in zip(*rows)]
