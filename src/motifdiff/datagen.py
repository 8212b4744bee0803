"""Synthetic training sets with exactly one planted pattern occurrence.

Construction is place-then-verify: embed one copy of the pattern on a random
subset of node slots, decorate the remaining nodes, then have the counting
engine confirm the count is exactly 1 (and that any monitored side patterns
kept the bare pattern's own tally). Tree decorations provably add no cycles,
but they can add extra path copies, so verification runs on every emitted
graph rather than trusting the construction.

Each graph draws from ``numpy.random.default_rng([seed, index])``'s stream,
reproduced bit for bit in pure Python by ``_Stream``, so planting never
imports numpy.
"""

from __future__ import annotations

from .counting import count_subgraphs
from .dataio import HOST_NODE_CAP
from .errors import CapacityError, GenerationError, InputError
from .graphs import Dataset, Graph, Pattern

DECORATIONS = ("none", "tree")

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Stream:
    """numpy's ``default_rng(entropy)`` for non-negative integer entropy:
    SeedSequence mixing (pool of 4 words), PCG64 (XSL-RR output of a 128-bit
    LCG) with numpy's buffered 32-bit draws, and the two Generator methods
    planting uses, each consuming the stream as numpy does."""

    def __init__(self, entropy) -> None:
        # each integer as its little-endian 32-bit words, 0 as one word
        words = [x >> shift & _M32 for x in map(int, entropy)
                 for shift in range(0, max(x.bit_length(), 1), 32)]
        hash_const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for src in range(4, len(words)):
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(words[src]))
        # generate_state(4, uint64): eight 32-bit words, paired low word first
        hash_const = 0x8B51F9DD
        state = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _M32
            value = value * hash_const & _M32
            state.append(value ^ value >> 16)
        s64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (s64[2] << 65 | s64[3] << 1 | 1) & _M128
        self._state = (self._inc + (s64[0] << 64 | s64[1])) & _M128
        self._next64()
        self._spare: int | None = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _M32

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates from the top, each index by masked rejection."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out

    def integers(self, high: int) -> int:
        """Uniform on [0, high), high < 2**32, by Lemire's bounded draw."""
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._next32() * high
        if m & _M32 < high:
            threshold = (1 << 32) % high
            while m & _M32 < threshold:
                m = self._next32() * high
        return m >> 32


def _place_and_decorate(pattern: Pattern, n: int, decoration: str, rng) -> Graph:
    slots = rng.permutation(n)
    edges = [(slots[u], slots[v]) for u, v in pattern.graph.edge_list]
    if decoration == "tree":
        # each extra node hooks onto one uniformly chosen earlier slot, so
        # the decoration is a forest hanging off the pattern
        edges += [(slots[rng.integers(pos)], slots[pos])
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
    if pattern.marks is not None:
        raise InputError("planting expects an unmarked pattern")
    if pattern.k < 1:
        raise InputError("cannot plant an empty pattern")
    if pattern.k > n:
        raise InputError(
            f"pattern has {pattern.k} nodes but graphs only {n}")
    if n > HOST_NODE_CAP:  # the dataset reader would refuse the file
        raise CapacityError(
            f"{n} nodes exceeds the host cap of {HOST_NODE_CAP}")
    if count < 1:
        raise InputError("count must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if decoration not in DECORATIONS:
        raise InputError(f"unknown decoration {decoration!r}")
    if max_retries < 1:
        raise InputError("max_retries must be at least 1")
    targets = [(q, count_subgraphs(pattern.graph, q)) for q in monitors]
    graphs = []
    for idx in range(count):
        rng = _Stream([seed, idx])
        last_failure = "no attempt"
        for _ in range(max_retries):
            g = _place_and_decorate(pattern, n, decoration, rng)
            got = count_subgraphs(g, pattern)
            if got != 1:
                last_failure = f"{pattern.name or 'pattern'} count {got} != 1"
                continue
            for q, want in targets:
                got_q = count_subgraphs(g, q)
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
