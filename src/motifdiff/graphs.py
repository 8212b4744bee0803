"""Core graph types and exact symmetry machinery.

Graphs are simple and undirected, stored as one neighbor bitmask per node (bit
v of mask u is the edge uv); the dense adjacency (with numpy) and the edge list
are built on first use.
Node ids are 0-based everywhere inside the library; the 1-based JSONL
dataset format, and its rules, belong to ``dataio``.

Canonical labeling and automorphism counting are one individualize-and-refine
search (after McKay & Piperno, "Practical graph isomorphism, II"). A pass
before it numbers the members of each twin class (same color, N(u) - {v} ==
N(v) - {u}) in node order: permuting a class is an automorphism fixing every
other node, so this breaks exactly |class|! symmetries and stars, isolated
nodes and cliques refine to discrete colorings at once. The canonical
ordering is the search leaf with the smallest adjacency encoding, so equal
``canonical_form`` bytes is the isomorphism test; |Aut| is the product of
the |class|! times the number of leaves that tie it. Symmetry between
non-twin parts stays exponential: k disjoint edges give k! leaves, so a
search past ``SYMMETRY_SIGNATURE_CAP`` refinement signatures is refused,
whatever the node count: that is the search's one bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, InputError

# Patterns stay small by contract: the matcher's plans are exhaustive.
PATTERN_NODE_CAP = 12
# Refinement signatures (n per pass) one symmetry search may build, about
# 1-2 s of work: 6 disjoint edges take 21k, 7 take 172k, 8 take 1.57M.
SYMMETRY_SIGNATURE_CAP = 500_000

# a row of 0/1 bytes as the digits of a binary numeral
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class Graph:
    """Immutable simple undirected graph on nodes 0..n-1."""

    __slots__ = ("n", "m", "degrees", "neighbor_lists", "neighbor_masks",
                 "_adj", "_edge_list")

    def __init__(self, adjacency) -> None:
        import numpy as np

        try:
            adj = np.asarray(adjacency)
        except ValueError as exc:  # ragged rows
            raise InputError("adjacency must be a square matrix") from exc
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise InputError("adjacency must be a square matrix")
        n = int(adj.shape[0])
        if not np.all((adj == 0) | (adj == 1)):  # the cast wraps 256 to 0
            raise InputError("adjacency entries must be 0 or 1")
        adj = np.ascontiguousarray(adj, dtype=np.uint8)
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric")
        if n and np.any(np.diagonal(adj)):
            raise InputError("self-loops are not allowed")
        flat = adj.tobytes()
        self._index(n, [flat[u * n:(u + 1) * n] for u in range(n)])
        adj.setflags(write=False)
        self._adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-based endpoint pairs; duplicates collapse silently."""
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InputError("node count must be a non-negative integer")
        rows = [bytearray(n) for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            rows[u][v] = rows[v][u] = 1
        g = cls.__new__(cls)
        g._index(n, rows)
        return g

    def _index(self, n: int, rows: Sequence[bytes]) -> None:
        """Fill every stored field from the n rows of 0/1 bytes."""
        nodes = list(range(n))  # shared int objects, not one per row entry
        lists = tuple(tuple(compress(nodes, row)) for row in rows)
        self.n = n
        self._adj = None
        self._edge_list = None
        self.neighbor_lists = lists
        self.degrees = tuple(map(len, lists))
        self.m = sum(self.degrees) // 2
        # row u read backwards as a binary numeral has bit v = row[v]
        self.neighbor_masks = tuple(int(row[::-1].translate(_BIT_DIGITS), 2)
                                    for row in rows)

    @property
    def adj(self):
        """Dense read-only uint8 adjacency matrix, built on first access."""
        if self._adj is None:
            import numpy as np

            n = self.n
            digits = "".join(format(mask, f"0{n}b")[::-1] for mask in self.neighbor_masks)
            adj = np.frombuffer(digits.encode(), np.uint8).reshape(n, n) - ord("0")
            adj.setflags(write=False)
            self._adj = adj
        return self._adj

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges (u, v) with u < v in row order, built on first access."""
        if self._edge_list is None:
            self._edge_list = tuple(chain.from_iterable(
                zip(repeat(u), nbrs[bisect_right(nbrs, u):])
                for u, nbrs in enumerate(self.neighbor_lists)))
        return self._edge_list

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.neighbor_masks == other.neighbor_masks

    def __hash__(self) -> int:
        return hash((self.n, self.neighbor_masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Pattern:
    """A small graph to search for, optionally with an ordered pair of marked nodes."""

    __slots__ = ("graph", "name", "marks")

    def __init__(self, graph: Graph, name: str | None = None,
                 marks: tuple[int, int] | None = None) -> None:
        if graph.n > PATTERN_NODE_CAP:
            raise CapacityError(
                f"pattern has {graph.n} nodes, cap is {PATTERN_NODE_CAP}")
        if marks is not None:
            c, d = marks
            if not (0 <= c < graph.n and 0 <= d < graph.n):
                raise InputError(f"marks {marks} out of range for k={graph.n}")
            if c == d:
                raise InputError("marks must be two distinct nodes")
            marks = (int(c), int(d))
        self.graph = graph
        self.name = name
        self.marks = marks

    @property
    def k(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        tag = self.name or f"k={self.k}"
        if self.marks is not None:
            return f"Pattern({tag}, marks={self.marks})"
        return f"Pattern({tag})"


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of graphs plus free-form string metadata."""

    graphs: tuple[Graph, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        meta = {str(k): str(v) for k, v in dict(self.metadata).items()}
        object.__setattr__(self, "metadata", meta)

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    def node_counts(self) -> tuple[int, ...]:
        return tuple(sorted({g.n for g in self.graphs}))


# ---------------------------------------------------------------------------
# the symmetry search: canonical labeling and automorphism counting


def _refine_colors(n: int, neighbors: Sequence[Sequence[int]],
                   colors: Sequence[int], budget: list[int] | None = None
                   ) -> list[int]:
    """Iterate neighborhood-multiset refinement to a stable, canonically
    numbered coloring. Color ids depend only on the isomorphism type of the
    colored graph, never on the input numbering. Each pass spends n from
    `budget`, a one-item list, if given, and raises CapacityError past 0."""
    cur = list(colors)
    while True:
        if len(set(cur)) == n:
            # a discrete coloring cannot split: the loop would return its
            # dense ranking one or two passes later
            ranking = {c: r for r, c in enumerate(sorted(cur))}
            return [ranking[c] for c in cur]
        if budget is not None:
            budget[0] -= n
            if budget[0] < 0:
                raise CapacityError(
                    f"symmetry search of a {n}-node graph passed its cap of"
                    f" {SYMMETRY_SIGNATURE_CAP} refinement signatures")
        sigs = [(cur[v], tuple(sorted(cur[u] for u in neighbors[v])))
                for v in range(n)]
        ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
        nxt = [ranking[s] for s in sigs]
        if nxt == cur:
            return cur
        cur = nxt


def _ordering_bits(masks: Sequence[int], order: Sequence[int]) -> bytes:
    """Upper triangle of the adjacency reordered by `order`, row by row, packed
    big-endian and zero-padded like np.packbits. Character n-1-v of `rows` row i
    is edge (order[i], v), so by symmetry its stride-n column n-1-u is (u, order[...])."""
    n = len(masks)
    rows = "".join([format(masks[u], f"0{n}b") for u in order])
    digits = "".join([rows[(i + 2) * n - 1 - u::n] for i, u in enumerate(order)])
    pad = -len(digits) % 8
    return (int(digits or "0", 2) << pad).to_bytes((len(digits) + pad) // 8, "big")


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    child = [2 * c for c in colors]
    child[v] -= 1
    return child


def _twin_classes(colors: Sequence[int], masks: Sequence[int]) -> list[list[int]]:
    """The twin classes with two or more members, each in node order.

    u and v are twins when they share a color and N(u) - {v} == N(v) - {u}:
    equal neighbor masks (non-adjacent twins) or equal closed-neighborhood
    masks (adjacent twins). No node has twins of both kinds, so the classes
    are disjoint.
    """
    open_groups: dict[tuple[int, int], list[int]] = {}
    for v, c in enumerate(colors):
        open_groups.setdefault((c, masks[v]), []).append(v)
    closed_groups: dict[tuple[int, int], list[int]] = {}
    for (c, mask), grp in open_groups.items():
        if len(grp) == 1:
            closed_groups.setdefault((c, mask | 1 << grp[0]), []).append(grp[0])
    return [grp for grp in (*open_groups.values(), *closed_groups.values())
            if len(grp) > 1]


def _symmetry_search(g: Graph, colors0: Sequence[int]
                     ) -> tuple[tuple[int, ...], bytes, int]:
    """Canonical node ordering of (g, colors0), its adjacency encoding (the
    smallest among the search leaves) and the number of color-preserving
    automorphisms."""
    n = g.n
    # number each twin class 0, 1, ... in node order (see the module notes)
    colors = [c * n for c in colors0]
    twin_factor = 1
    for cls in _twin_classes(colors0, g.neighbor_masks):
        twin_factor *= math.factorial(len(cls))
        for rank, v in enumerate(cls):
            colors[v] += rank
    neighbors = g.neighbor_lists
    budget = [SYMMETRY_SIGNATURE_CAP]
    best_key = best_order = None
    leaves = 0
    pending = [colors]
    while pending:
        colors = pending.pop()
        while True:
            colors = _refine_colors(n, neighbors, colors, budget)
            by_color: dict[int, list[int]] = {}
            for v, c in enumerate(colors):
                by_color.setdefault(c, []).append(v)
            cell = next((by_color[c] for c in sorted(by_color)
                         if len(by_color[c]) > 1), None)
            if cell is None:
                break
            # every member of the first non-singleton cell is a branch
            pending.extend(_individualize(colors, v) for v in cell[1:])
            colors = _individualize(colors, cell[0])
        order = tuple(v for _, v in sorted((colors[v], v) for v in range(n)))
        key = _ordering_bits(g.neighbor_masks, order)
        if best_key is None or key < best_key:
            best_key, best_order, leaves = key, order, 1
        elif key == best_key:
            leaves += 1
    return best_order, best_key, twin_factor * leaves


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs iff they are isomorphic."""
    _, bits, _ = _symmetry_search(g, (0,) * g.n)
    return b"%d;%d;" % (g.n, g.m) + bits.hex().encode("ascii")


def marked_canonical_form(p: Pattern) -> bytes:
    """Canonical byte string for a marked pattern: equal iff some isomorphism
    maps marks onto marks in order."""
    if p.marks is None:
        return canonical_form(p.graph)
    c, d = p.marks
    colors0 = [0] * p.graph.n
    colors0[c] = 1
    colors0[d] = 2
    order, bits, _ = _symmetry_search(p.graph, colors0)
    return (b"%d;%d;%d,%d;" % (p.graph.n, p.graph.m, order.index(c), order.index(d))
            + bits.hex().encode("ascii"))


def automorphism_count(g: Graph) -> int:
    """Exact order of the automorphism group: the twin factor times the
    number of search leaves that tie the canonical key. Bounded, like
    ``canonical_form``, by ``SYMMETRY_SIGNATURE_CAP`` alone."""
    return _symmetry_search(g, (0,) * g.n)[2]
