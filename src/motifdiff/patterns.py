"""Built-in pattern library.

Names follow a compact convention:

* ``c3`` .. ``c8`` are simple cycles on 3..8 nodes.
* ``l5``, ``l6``, ``l7`` are simple paths on 5, 6, 7 nodes.
* ``cXcY`` (``c3c4``, ``c5c5``, ``c5c6``, ``c6c6``) fuses a cycle of length X
  and a cycle of length Y so they share exactly one edge and nothing else.

Every library pattern is connected and unmarked. ``derive_marked_patterns``
produces the marked family a pattern induces: for each edge, remove it and
mark its endpoints (both orientations), keeping one representative per
marked-isomorphism class.
"""

from __future__ import annotations

from .errors import InputError
from .graphs import Graph, Pattern, marked_canonical_form


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise InputError("a cycle needs at least 3 nodes")
    return Graph.from_edges(
        length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(nodes: int) -> Graph:
    if nodes < 1:
        raise InputError("a path needs at least 1 node")
    return Graph.from_edges(nodes, [(i, i + 1) for i in range(nodes - 1)])


def fused_cycles_graph(x: int, y: int) -> Graph:
    """Two cycles of lengths x and y sharing exactly one edge (nodes 0-1)."""
    if x < 3 or y < 3:
        raise InputError("each fused cycle needs at least 3 nodes")
    n = x + y - 2
    edges = [(0, 1)]
    # cycle of length x through the shared edge: 0, 1, 2, .., x-1
    arc = [1] + list(range(2, x)) + [0]
    edges += list(zip(arc, arc[1:]))
    # cycle of length y through the shared edge: 0, 1, x, .., n-1
    arc = [1] + list(range(x, n)) + [0]
    edges += list(zip(arc, arc[1:]))
    return Graph.from_edges(n, edges)


def _build_library() -> dict[str, Pattern]:
    lib: dict[str, Pattern] = {}
    for length in range(3, 9):
        name = f"c{length}"
        lib[name] = Pattern(cycle_graph(length), name=name)
    for x, y in ((3, 4), (5, 5), (5, 6), (6, 6)):
        name = f"c{x}c{y}"
        lib[name] = Pattern(fused_cycles_graph(x, y), name=name)
    for nodes in (5, 6, 7):
        name = f"l{nodes}"
        lib[name] = Pattern(path_graph(nodes), name=name)
    return lib


PATTERN_LIBRARY: dict[str, Pattern] = _build_library()
PATTERN_NAMES: tuple[str, ...] = tuple(PATTERN_LIBRARY)


def get_pattern(name: str) -> Pattern:
    try:
        return PATTERN_LIBRARY[name]
    except KeyError:
        known = ", ".join(PATTERN_NAMES)
        raise InputError(f"unknown pattern {name!r}; known patterns: {known}") from None


def resolve_patterns(names) -> list[Pattern]:
    """Map names to library patterns, rejecting duplicates."""
    seen = set()
    out = []
    for name in names:
        if name in seen:
            raise InputError(f"duplicate pattern name {name!r}")
        seen.add(name)
        out.append(get_pattern(name))
    return out


def derive_marked_patterns(patterns) -> list[Pattern]:
    """Marked patterns induced by removing one edge and marking its endpoints.

    For each input pattern, each edge (u, v) and each orientation of it,
    delete the edge and mark the ordered endpoint pair. Returns one
    representative per marked-isomorphism class, in first-seen order.
    """
    seen: set[bytes] = set()
    out: list[Pattern] = []
    for p in patterns:
        if p.marks is not None:
            raise InputError("expected unmarked patterns")
        g = p.graph
        for u, v in g.edge_list:
            reduced = Graph.from_edges(
                g.n, [e for e in g.edge_list if e != (u, v)])
            for c, d in ((u, v), (v, u)):
                cand = Pattern(reduced, name=p.name, marks=(c, d))
                key = marked_canonical_form(cand)
                if key not in seen:
                    seen.add(key)
                    out.append(cand)
    return out
