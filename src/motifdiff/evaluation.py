"""Distribution comparison between training and generated graph sets.

The headline number per pattern is the total variation distance between the
two empirical distributions of that pattern's count. Histograms carry
integer counts, so the TV is computed exactly, in integer arithmetic, and
identities like "point-mass training histogram implies TV equals the
fraction of generated graphs with a different count" hold bit for bit, not
just within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .counting import CountDistribution, count_table
from .errors import ContractError, InputError
from .graphs import Dataset, Pattern, canonical_form


def tv_distance(p: CountDistribution, q: CountDistribution) -> float:
    """Total variation distance, half the L1 gap over the union of supports:
    sum |c_p*N_q - c_q*N_p| / (2*N_p*N_q), exact in integers and rounded
    once, since int true division is correctly rounded."""
    np_, nq = p.sample_size, q.sample_size
    gap = sum(abs(p.counts.get(v, 0) * nq - q.counts.get(v, 0) * np_)
              for v in set(p.counts) | set(q.counts))
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


@dataclass(frozen=True)
class PatternEval:
    tv: float
    train_hist: CountDistribution
    gen_hist: CountDistribution

    def to_json_dict(self) -> dict:
        return {
            "tv": self.tv,
            "train": self.train_hist.to_json_dict(),
            "gen": self.gen_hist.to_json_dict(),
        }


@dataclass(frozen=True)
class EvalReport:
    per_pattern: Mapping[str, PatternEval]
    novelty: float
    n_train: int
    n_gen: int
    config: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "per_pattern", dict(self.per_pattern))
        object.__setattr__(self, "config", dict(self.config))
        for name, pe in self.per_pattern.items():
            if not (0.0 <= pe.tv <= 1.0):
                raise ContractError(f"tv for {name} is {pe.tv}, outside [0,1]")
            if pe.train_hist.sample_size != self.n_train:
                raise ContractError(f"{name} training histogram size mismatch")
            if pe.gen_hist.sample_size != self.n_gen:
                raise ContractError(f"{name} generated histogram size mismatch")

    def to_json_dict(self) -> dict:
        return {
            "patterns": {name: pe.to_json_dict()
                         for name, pe in sorted(self.per_pattern.items())},
            "novelty": self.novelty,
            "n_train": self.n_train,
            "n_gen": self.n_gen,
            "config": dict(sorted(self.config.items())),
        }


def evaluate(train: Dataset, gen: Dataset, patterns: Sequence[Pattern],
             novelty_mode: str = "isomorphism", threads: int = 1) -> EvalReport:
    """Per-pattern TV distances plus novelty, as one report."""
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
    per_pattern: dict[str, PatternEval] = {}
    for name, values in zip(names, table):
        train_hist = CountDistribution.from_counts(values[:split])
        gen_hist = CountDistribution.from_counts(values[split:])
        per_pattern[name] = PatternEval(tv=tv_distance(train_hist, gen_hist),
                                        train_hist=train_hist,
                                        gen_hist=gen_hist)
    return EvalReport(
        per_pattern=per_pattern,
        novelty=novelty_ratio(gen, train, mode=novelty_mode),
        n_train=len(train.graphs),
        n_gen=len(gen.graphs),
        config={"novelty_mode": novelty_mode,
                "patterns": ",".join(sorted(per_pattern))},
    )
