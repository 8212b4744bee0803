"""Exact subgraph counting.

The central quantity is the non-induced subgraph count: the number of
injective edge-preserving maps from a pattern into a host graph, divided by
the pattern's automorphism group order. Non-edges of the pattern impose no
constraint, so a triangle is counted inside a complete graph as many times
as there are node triples.

The matcher is one backtracking search over host nodes with bitmask
candidate intersection, driven by a plan. Patterns are tiny (at most 12
nodes) and hosts are desk scale. Each plan shape runs as one generated
function, cached per shape: nested loops, one per pattern node but the
last, with no recursion. A level's candidates are the AND of the host nodes
with the degree its pattern node needs, the free nodes, the neighbors of
its placed neighbors' hosts and its order constraints; the last level is a
popcount. A plan starts as a walk: a greedy order over the pattern's nodes,
with no constraints. Injective map counts use the walk as it is. Subgraph
counting compiles each pattern shape once into a plan that adds constraints
host(v) < host(u) for each u in v's orbit under the automorphisms fixing
the nodes before v (after Grochow & Kellis, RECOMB 2007), so the search
meets each subgraph once. A chain of color refinements, one more node of
the order individualized at each step until the coloring is discrete,
proposes v's cell; u in it is in v's orbit when the symmetry search finds
the same encoding with u or with v individualized (after McKay & Piperno,
"Practical graph isomorphism, II"). The check: by orbit-stabilizer, the
orbit sizes multiply to |Aut|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

from .errors import ContractError, InputError
from .graphs import (Graph, Pattern, _individualize, _refine_colors,
                     _symmetry_search, automorphism_count)
from .parallel import ordered_map


@dataclass(frozen=True)
class _Plan:
    """A pattern compiled for the matcher.

    `order` holds the pattern's nodes and `needs[i]` the degree of
    `order[i]`; `prev_positions[i]` lists the positions in `order` of the
    placed neighbors of `order[i]`, and `smaller_positions[i]` the earlier
    positions whose host must be smaller than its host.
    """

    order: tuple[int, ...]
    needs: tuple[int, ...]
    prev_positions: tuple[tuple[int, ...], ...]
    smaller_positions: tuple[tuple[int, ...], ...]


def _walk(g: Graph) -> _Plan:
    """Unconstrained plan: a greedy order over the pattern's nodes.

    Nodes with more already-placed neighbors come first (their candidate
    sets are tighter), ties broken by degree then by index.
    """
    placed: list[int] = []
    while len(placed) < g.n:
        placed.append(max(
            (v for v in range(g.n) if v not in placed),
            key=lambda v: (sum(u in placed for u in g.neighbor_lists[v]),
                           g.degrees[v], -v)))
    prev_positions = tuple(
        tuple(placed.index(u) for u in g.neighbor_lists[v] if u in placed[:i])
        for i, v in enumerate(placed))
    return _Plan(tuple(placed), tuple(g.degrees[v] for v in placed),
                 prev_positions, ((),) * g.n)


@cache
def _compile(g: Graph) -> _Plan:
    """Plan for counting the pattern graph `g`, its kernel built: the walk
    plus, per level, host(v) < host(u) for each u of v's refined cell whose
    symmetry search with u individualized finds v's key.

    Memoized by shape (a `Graph` compares by its edges), so the process
    keeps one small plan per distinct pattern shape, of 12 nodes at most,
    for its life; `cli.main` starts each command with none.
    """
    walk = _walk(g)
    position = {v: i for i, v in enumerate(walk.order)}
    smaller: list[list[int]] = [[] for _ in walk.order]
    colors = _refine_colors(g.n, g.neighbor_lists, [0] * g.n)
    product = 1
    for i, v in enumerate(walk.order):
        if len(set(colors)) == g.n:
            break
        # earlier nodes are individualized, so the rest of the cell is later
        rest = [u for u in range(g.n) if u != v and colors[u] == colors[v]]
        if rest:
            # canonical colors, leaves sorted by color: same key, same orbit
            key = _symmetry_search(g, _individualize(colors, v))[1]
            rest = [u for u in rest
                    if key == _symmetry_search(g, _individualize(colors, u))[1]]
        product *= 1 + len(rest)
        for u in rest:
            smaller[position[u]].append(i)
        colors = _refine_colors(g.n, g.neighbor_lists, _individualize(colors, v))
    aut = automorphism_count(g)
    if product != aut:
        raise ContractError(f"orbit sizes multiply to {product}, not |Aut| = {aut}")
    plan = replace(walk, smaller_positions=tuple(map(tuple, smaller)))
    _kernel(plan.prev_positions, plan.smaller_positions)
    return plan


@cache
def _kernel(prev_positions: tuple[tuple[int, ...], ...],
            smaller_positions: tuple[tuple[int, ...], ...]):
    """The matcher for one plan shape, generated from its integers alone:
    one level per entry of the position tuples.

    `kernel(masks, free0, f0...)` takes the host's neighbor masks, the mask
    of hosts a map may use and, per level, the mask of hosts with the
    degree its node needs. Each level but the last is one `while` loop over
    its candidates, with the host of position p in the local `h<p>`; the
    last level adds the popcount of its candidates. A level's candidates
    are its degree mask, the free hosts, the neighbors of the hosts of its
    placed neighbors, and the bits above the hosts it must exceed
    (`-(2 << h)`). A term joins level i's partial mask `a<i>_<j>` as soon
    as loop j - 1 binds its host, not in the innermost loop.
    PATTERN_NODE_CAP nodes nest 11 loops, under CPython's 20 nested blocks.
    """
    depth = len(prev_positions)
    # terms[j][i]: the terms of level i known once loop j - 1 binds its
    # host (j = 0: on entry)
    terms: list[list[list[str]]] = [[[] for _ in range(depth)]
                                    for _ in range(depth + 1)]
    free_top = 0  # the last free<j> a level reads
    for i in range(depth):
        # masks[h] never holds h, so a level adjacent to the one before
        # needs only the hosts free before that one
        j = i - 1 if i and i - 1 in prev_positions[i] else i
        terms[j][i].append(f"free{j}")
        free_top = max(free_top, j)
        for p in prev_positions[i]:
            terms[p + 1][i].append(f"masks[h{p}]")
        for p in smaller_positions[i]:
            terms[p + 1][i].append(f"-(2 << h{p})")
    read = {p for level in prev_positions + smaller_positions for p in level}
    params = ["masks", "free0"] + [f"f{i}" for i in range(depth)]
    lines = [f"def kernel({', '.join(params)}):", "    total = 0"]
    partial = [f"f{i}" for i in range(depth)]
    indent = "    "
    for level in range(depth):
        for i in range(level + 1, depth):
            if terms[level][i]:
                lines.append(f"{indent}a{i}_{level} = "
                             + " & ".join([partial[i]] + terms[level][i]))
                partial[i] = f"a{i}_{level}"
        cand = " & ".join([partial[level]] + terms[level][level])
        if level + 1 == depth:
            lines.append(f"{indent}total += ({cand}).bit_count()")
            break
        lines += [f"{indent}cand{level} = {cand}",
                  f"{indent}while cand{level}:",
                  f"{indent}    low = cand{level} & -cand{level}",
                  f"{indent}    cand{level} ^= low"]
        if level < free_top:
            lines.append(f"{indent}    free{level + 1} = free{level} ^ low")
        if level in read:
            lines.append(f"{indent}    h{level} = low.bit_length() - 1")
        indent += "    "
    lines.append("    return total")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _count_embeddings(g: Graph, plan: _Plan) -> int:
    """Number of injective edge-preserving maps of the plan's pattern into
    `g` that meet its constraints."""
    if len(plan.order) > g.n:
        return 0
    if not plan.order:
        return 1
    fits = {need: sum(1 << u for u, d in enumerate(g.degrees) if d >= need)
            for need in set(plan.needs)}
    kernel = _kernel(plan.prev_positions, plan.smaller_positions)
    return kernel(g.neighbor_masks, -1, *[fits[need] for need in plan.needs])


def count_injective_homs(g: Graph, p: Pattern) -> int:
    """Injective edge-preserving maps pattern -> host (labeled placements)."""
    return _count_embeddings(g, _walk(p.graph))


def count_subgraphs(g: Graph, p: Pattern) -> int:
    """Non-induced subgraph count: injective maps over |Aut(pattern)|, found
    as the maps that meet the plan's symmetry-breaking constraints. The plan
    is compiled once per pattern shape."""
    return _count_embeddings(g, _compile(p.graph))


def histogram(values) -> dict:
    """Empirical distribution of a pattern's count over a dataset, as the
    reports write it: per value, keyed by its decimal string in numeric
    order, the number of graphs and their share; plus the sample size."""
    counts = Counter(map(int, values))
    if not counts:
        raise ContractError("cannot build a distribution from no samples")
    total = sum(counts.values())
    return {
        "mass": {str(k): counts[k] / total for k in sorted(counts)},
        "sample_size": total,
        "counts": {str(k): counts[k] for k in sorted(counts)},
    }


def count_table(graphs: Sequence[Graph], patterns: Sequence[Pattern],
                threads: int = 1) -> list[list[int]]:
    """Subgraph counts of every pattern in every graph, in one worker pool.

    Each pattern is compiled here, before the fork, so the workers inherit
    its plan and kernel. Returns one column per pattern (in pattern order)
    holding the per-graph counts (in graph order).
    """
    if not graphs:
        raise InputError("no graphs to count")
    for p in patterns:
        _compile(p.graph)

    def share_rows(share: Sequence[Graph]) -> list[list[int]]:
        return [[count_subgraphs(g, p) for p in patterns] for g in share]

    rows = ordered_map(share_rows, graphs, threads=threads)
    return [list(column) for column in zip(*rows)]
