"""Distribution comparison between training and generated graph sets.

The headline number per pattern is the total variation distance between the
two empirical distributions of that pattern's count. Histograms carry
integer counts, so the TV is computed exactly, in integer arithmetic, and
identities like "point-mass training histogram implies TV equals the
fraction of generated graphs with a different count" hold bit for bit, not
just within tolerance.
"""

from __future__ import annotations

from typing import Sequence

from .counting import count_table, histogram
from .errors import InputError
from .graphs import Dataset, Pattern, canonical_form


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance between two `histogram`s, half the L1 gap
    over the union of supports: sum |c_p*N_q - c_q*N_p| / (2*N_p*N_q),
    exact in integers and rounded once, since int true division is
    correctly rounded."""
    np_, nq = p["sample_size"], q["sample_size"]
    pc, qc = p["counts"], q["counts"]
    gap = sum(abs(pc.get(v, 0) * nq - qc.get(v, 0) * np_)
              for v in pc.keys() | qc.keys())
    return gap / (2 * np_ * nq)


def novelty_ratio(gen: Dataset, train: Dataset, mode: str = "isomorphism") -> float:
    """Fraction of generated graphs matching no training graph.

    "isomorphism" compares canonical forms; "size" is the looser variant
    that only compares (node count, edge count). An empty generated set has
    novelty 0 by convention.
    """
    if mode not in ("isomorphism", "size"):
        raise InputError(f"unknown novelty mode {mode!r}")
    if not gen.graphs:
        return 0.0
    if mode == "isomorphism":
        seen = {canonical_form(g) for g in train.graphs}
        novel = sum(1 for g in gen.graphs if canonical_form(g) not in seen)
    else:
        seen_sizes = {(g.n, g.m) for g in train.graphs}
        novel = sum(1 for g in gen.graphs if (g.n, g.m) not in seen_sizes)
    return novel / len(gen.graphs)


def evaluate(train: Dataset, gen: Dataset, patterns: Sequence[Pattern],
             novelty_mode: str = "isomorphism", threads: int = 1) -> dict:
    """Per-pattern TV distances plus novelty, as the report `eval` writes
    (less its input paths)."""
    if not train.graphs or not gen.graphs:
        raise InputError("both datasets must be non-empty")
    names = [p.name if p.name is not None else f"pattern{idx}"
             for idx, p in enumerate(patterns)]
    for idx, name in enumerate(names):
        if name in names[:idx]:
            raise InputError(f"duplicate pattern name {name!r}")
    # one counting pass over both sets; each column lists train's graphs first
    table = count_table(train.graphs + gen.graphs, patterns, threads=threads)
    split = len(train.graphs)
    per_pattern = {}
    for name, values in sorted(zip(names, table)):
        train_hist, gen_hist = histogram(values[:split]), histogram(values[split:])
        per_pattern[name] = {"tv": tv_distance(train_hist, gen_hist),
                             "train": train_hist, "gen": gen_hist}
    return {
        "patterns": per_pattern,
        "novelty": novelty_ratio(gen, train, mode=novelty_mode),
        "n_train": len(train.graphs),
        "n_gen": len(gen.graphs),
        "config": {"novelty_mode": novelty_mode,
                   "patterns": ",".join(per_pattern)},
    }
