"""Synthetic training sets with exactly one planted pattern occurrence.

Construction is place-then-verify: embed one copy of the pattern on a random
subset of node slots, decorate the remaining nodes, then have the counting
engine confirm the count is exactly 1 (and that any monitored side patterns
kept the bare pattern's own tally). Tree decorations provably add no cycles,
but they can add extra path copies, so verification runs on every emitted
graph rather than trusting the construction.
"""

from __future__ import annotations

from .counting import _compile, count_subgraphs
from .errors import GenerationError, InputError
from .graphs import Dataset, Graph, Pattern

DECORATIONS = ("none", "tree")


def _place_and_decorate(pattern: Pattern, n: int, decoration: str, rng) -> Graph:
    slots = rng.permutation(n).tolist()
    edges = [(slots[u], slots[v]) for u, v in pattern.graph.edge_list]
    if decoration == "tree":
        # each extra node hooks onto one uniformly chosen earlier slot, so
        # the decoration is a forest hanging off the pattern
        edges += [(slots[int(rng.integers(0, pos))], slots[pos])
                  for pos in range(pattern.k, n)]
    return Graph.from_edges(n, edges)


def plant_pattern_dataset(pattern: Pattern, n: int, count: int,
                          decoration: str = "tree", seed: int = 0,
                          monitors: tuple[Pattern, ...] = (),
                          max_retries: int = 1000) -> Dataset:
    """`count` graphs on `n` nodes, each containing the pattern exactly once.

    Every graph is drawn from its own RNG stream (seed, index), so the
    dataset is identical no matter how generation is scheduled. Graphs
    failing verification are rejected and redrawn, up to `max_retries`
    attempts each.
    """
    import numpy as np

    if pattern.marks is not None:
        raise InputError("planting expects an unmarked pattern")
    if pattern.k < 1:
        raise InputError("cannot plant an empty pattern")
    if pattern.k > n:
        raise InputError(
            f"pattern has {pattern.k} nodes but graphs only {n}")
    if count < 1:
        raise InputError("count must be at least 1")
    if decoration not in DECORATIONS:
        raise InputError(f"unknown decoration {decoration!r}")
    if max_retries < 1:
        raise InputError("max_retries must be at least 1")
    plan = _compile(pattern)
    targets = []
    for q in monitors:
        q_plan = _compile(q)
        targets.append((q, q_plan, count_subgraphs(pattern.graph, q, q_plan)))
    graphs = []
    for idx in range(count):
        rng = np.random.default_rng([seed, idx])
        last_failure = "no attempt"
        for _ in range(max_retries):
            g = _place_and_decorate(pattern, n, decoration, rng)
            got = count_subgraphs(g, pattern, plan)
            if got != 1:
                last_failure = f"{pattern.name or 'pattern'} count {got} != 1"
                continue
            for q, q_plan, want in targets:
                got_q = count_subgraphs(g, q, q_plan)
                if got_q != want:
                    last_failure = (f"monitor {q.name or 'pattern'} count"
                                    f" {got_q} != {want}")
                    break
            else:
                graphs.append(g)
                break
        else:
            raise GenerationError(
                f"graph {idx}: no valid placement in {max_retries} tries"
                f" (pattern {pattern.name or '?'}, n={n},"
                f" decoration={decoration}, seed={seed};"
                f" last failure: {last_failure})")
    metadata = {
        "generator": "plant-pattern",
        "pattern": pattern.name or "custom",
        "n": str(n),
        "count": str(count),
        "decoration": decoration,
        "seed": str(seed),
        "monitors": ",".join(q.name or "custom" for q in monitors) or "none",
        "max_retries": str(max_retries),
    }
    return Dataset(graphs=tuple(graphs), metadata=metadata)
