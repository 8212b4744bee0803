"""Gaussian diffusion on adjacency matrices with an exact nonparametric score.

The forward process is the variance-preserving SDE on the strict upper
triangle of a symmetric zero-diagonal matrix: at time t the data adjacency
A0 is observed as W = alpha_t*A0 + beta_t*Z with Z standard normal per edge
slot, mirrored. The marginal density over a finite training set, symmetrized
over node permutations, is a Gaussian mixture whose components are the
permuted adjacencies. That makes the score available in closed form as a
posterior-mean, no learned network anywhere.

The same score has a truncated-series form organized around inner-product
powers. Both are implemented on a shared template table: the deduplicated
permuted-adjacency rows with multiplicities. Each row is built as a key
from the graph's edges alone: through the inverse permutation, one edge
sets one bit of the row's zero-padded big-endian packing, read as native
64-bit words, whose order is the rows' lexicographic order. The keys are
deduplicated by one in-place sort when a row fits one word, or by one
``np.lexsort`` over the word columns when it does not, so the table is the
one ``np.unique(rows, axis=0)`` would give. A table whose
float64 form would pass ``FLOAT_TABLE_BYTES_CAP`` is kept as its 0/1
bytes, which einsum casts to float64 exactly. ``verify_basis_expansion``
checks the algebraic identity behind the series form against the
graph-polynomial module, one term per set partition of the index positions.

All reductions that touch floating-point data go through einsum with a fixed
contraction order so that results are identical regardless of BLAS thread
count.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from .config import NoiseSchedule, ScoreConfig
from .errors import (CapacityError, InputError, NumericalRegimeError,
                     SeriesDivergenceError)
from .graphs import Dataset, Graph
from .polynomials import (_expansion_terms, _injective_assignments,
                          monomial_sum, pinned_monomial_matrix)

# Below this noise level the mixture components are numerically disjoint and
# the posterior weights degenerate; refuse rather than return garbage.
BETA_FLOOR = 1e-6

# Past this exponent argument (alpha/beta^2)<template, w> the series diverges.
SERIES_RATIO_MAX = 3.0

EXHAUSTIVE_PERM_CAP = 8

# Largest single array the oracle build may allocate, in bytes.
ORACLE_BYTES_CAP = 2**30

# Largest template table held as float64, in bytes; a larger one is held as
# its 0/1 bytes (see ScoreOracle).
FLOAT_TABLE_BYTES_CAP = 2**24

# Largest (samples x templates) float64 array one batch of reverse steps
# may hold, in bytes. Past 65,536 templates a batch is one sample, so the
# sampler's memory there stays that of one sample.
BATCH_BYTES_CAP = 2**20

# Monte Carlo permutations are drawn one generator call each (about 4 s per
# million); drawing them in one call would change the stream.
MC_SAMPLES_CAP = 10**6


def _check_oracle_bytes(nbytes: int, what: str) -> None:
    if nbytes > ORACLE_BYTES_CAP:
        raise CapacityError(
            f"score oracle: {what} would take {nbytes} bytes, over the"
            f" {ORACLE_BYTES_CAP}-byte cap; use fewer graphs, nodes or"
            f" --mc-samples")


def _check_sampling(steps: int, score_mode: str, threshold: float) -> None:
    """The reverse sampler's argument checks, which the CLI runs before the
    oracle build."""
    if steps < 10:
        raise InputError("steps must be at least 10")
    if score_mode not in ("direct", "series"):
        raise InputError(f"unknown score_mode {score_mode!r}")
    if not math.isfinite(threshold):  # would quantize to no or every edge
        raise InputError(f"threshold must be finite, got {threshold}")


def _log_sum_exp(x: np.ndarray) -> float:
    """log(sum(exp(x))), overwriting x: log1p(s / ties) + log(ties) + max,
    s the pairwise sum of exp(x - max) with the maxima's terms zeroed."""
    top = x.max()
    ties = x == top
    np.exp(np.subtract(x, top, out=x), out=x)
    x[ties] = 0.0
    m = np.float64(np.count_nonzero(ties))
    return float(np.log1p(x.sum() / m) + np.log(m) + top)


# ---------------------------------------------------------------------------
# symmetric-matrix plumbing


def upper_vector(W) -> np.ndarray:
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    iu = np.triu_indices(n, 1)
    return W[iu]


def symmetric_from_upper(vec, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=np.float64)
    iu = np.triu_indices(n, 1)
    out[iu] = vec
    return out + out.T


def validate_symmetric(W) -> np.ndarray:
    arr = np.asarray(W, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("expected a square matrix")
    if not np.isfinite(arr).all():
        raise InputError("matrix entries must be finite")
    if not np.array_equal(arr, arr.T):
        raise InputError("matrix must be symmetric")
    if arr.shape[0] and np.any(np.diagonal(arr) != 0.0):
        raise InputError("matrix must have a zero diagonal")
    return arr


def random_symmetric(n: int, rng) -> np.ndarray:
    return symmetric_from_upper(rng.standard_normal(n * (n - 1) // 2), n)


def permute_matrix(W, perm) -> np.ndarray:
    W = np.asarray(W)
    p = list(perm)
    if sorted(p) != list(range(W.shape[0])):
        raise InputError("perm must be a permutation of 0..n-1")
    idx = np.asarray(p, dtype=np.intp)
    return W[np.ix_(idx, idx)]


def quantize(W, threshold: float = 0.5) -> Graph:
    """Graph with an edge wherever the entry exceeds the threshold."""
    arr = validate_symmetric(W)
    adj = (arr > threshold).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return Graph(adj)


# ---------------------------------------------------------------------------
# the exact-score oracle


class ScoreOracle:
    """Exact score and log-density for one node count and training set.

    Precomputes the deduplicated table of permuted training adjacencies
    (upper-triangle rows with multiplicities, in lexicographic row order).
    A row's key is ceil(E/64) 64-bit words, E the edge-slot count: the
    row's zero-padded big-endian packing, read as native words. The P
    permutations are inverted once, node-major, into the narrowest unsigned
    dtype that holds a position; permutation p moves edge (a, b) to the
    pair (inv_p(a), inv_p(b)), so each graph's P keys are the OR of one
    precomputed bit per edge, gathered through an intp index of that pair
    (the adjacency itself is never read). One-word keys (E <= 64, so
    n <= 11) are sorted in place, wider ones by ``np.lexsort`` over the
    word columns. The first row of each run is a template, the run lengths
    are its count, and the words are unpacked back to rows. Beside the
    table, the build holds the permutations, their inverse, the keys and
    one edge's index and bits. The table is those 0/1 bytes, converted to
    float64 only while that copy fits ``FLOAT_TABLE_BYTES_CAP``: a table
    that outgrows the cache streams 8x fewer bytes per step as bytes, and
    one that stays in cache is faster without einsum's cast. The
    permutations with what is built from them, the keys and the byte table
    are each held under ``ORACLE_BYTES_CAP``, and Monte Carlo draws under
    ``MC_SAMPLES_CAP`` (``CapacityError`` past either). Everything else is
    a small amount of arithmetic per query against that table.
    """

    def __init__(self, dataset: Dataset, n: int, cfg: ScoreConfig | None = None,
                 sched: NoiseSchedule | None = None) -> None:
        if n < 1:
            raise InputError("n must be positive")
        self.cfg = cfg if cfg is not None else ScoreConfig()
        self.sched = sched if sched is not None else NoiseSchedule()
        self.n = n
        graphs = [g for g in dataset.graphs if g.n == n]
        if not graphs:
            raise InputError(f"dataset has no graphs with {n} nodes")
        self.num_graphs = len(graphs)
        policy = self.cfg.perm_policy
        if policy == "auto":
            policy = "exhaustive" if n <= EXHAUSTIVE_PERM_CAP else "monte_carlo"
        if policy == "exhaustive" and n > EXHAUSTIVE_PERM_CAP:
            raise CapacityError(
                f"exhaustive symmetrization is capped at n={EXHAUSTIVE_PERM_CAP},"
                f" got n={n}")
        self.policy = policy
        num_perms = factorial(n) if policy == "exhaustive" else self.cfg.mc_samples
        iu, ju = np.triu_indices(n, 1)
        slots = int(iu.size)
        inv_dtype = np.min_scalar_type(n - 1)
        # held beside the keys: the intp permutations, their inverse, five
        # vectors of 8 bytes a permutation and the n x n slot, word and bit
        # tables
        per_node = 8 + inv_dtype.itemsize
        _check_oracle_bytes(num_perms * (per_node * n + 40) + 24 * n * n,
                            "the permutations and their inverse")
        if policy == "monte_carlo" and num_perms > MC_SAMPLES_CAP:
            raise CapacityError(
                f"score oracle: {num_perms} Monte Carlo permutations are over"
                f" the cap of {MC_SAMPLES_CAP}; use fewer --mc-samples")
        if policy == "exhaustive":
            perms = _injective_assignments(n, n)
        else:
            rng = np.random.default_rng(self.cfg.seed)
            # rng.permutation(n) shuffles a fresh np.arange(n); each row is
            # that arange, shuffled in place: the same draws, no array each
            perms = np.empty((num_perms, n), dtype=np.intp)
            perms[:] = np.arange(n)
            for row in perms:
                rng.shuffle(row)
        # inv[v, p] is node v's position under permutation p
        rows = np.arange(num_perms)
        inv = np.empty((n, num_perms), dtype=inv_dtype)
        for pos in range(n):
            inv[perms[:, pos], rows] = pos
        # slot s of the pair (i, j), at i*n + j, is bit 63 - s % 64 of word
        # s // 64: the zero-padded big-endian packed row read as native
        # words, whose order is the rows' lexicographic order
        slot = np.zeros((n, n), dtype=np.intp)
        slot[iu, ju] = slot[ju, iu] = np.arange(slots)
        slot = slot.ravel()
        word = slot // 64
        bit = np.left_shift(np.ones(n * n, dtype=np.uint64),
                            (63 - slot % 64).astype(np.uint64))
        words = max(1, -(-slots // 64))  # n=1 still needs a key word
        total = len(graphs) * num_perms
        _check_oracle_bytes(total * 8 * words, "the row keys")
        keys = np.zeros((total, words), dtype=np.uint64)
        idx = np.empty(num_perms, dtype=np.intp)
        rows *= words  # row p's first word in one graph's raveled keys
        for i, g in enumerate(graphs):
            flat = keys[i * num_perms:(i + 1) * num_perms].reshape(-1)
            # permutation p moves edge (a, b) to the pair (inv_p(a), inv_p(b));
            # intp, as inv's narrow dtype would wrap a position times n
            for a, b in g.edge_list:
                np.multiply(inv[a], n, out=idx, dtype=np.intp)
                np.add(idx, inv[b], out=idx)
                if words == 1:
                    flat |= bit[idx]
                else:
                    at = word[idx]
                    at += rows
                    flat[at] |= bit[idx]
        # freed together after the keys, whose allocation the free of the
        # permutations would otherwise move onto the heap
        del perms, inv, rows, idx, flat
        # a one-word key is sorted in place, as equal keys are identical
        # rows, and wider keys by lexsort over the word columns
        if words == 1:
            keys.sort(axis=0)
        else:
            keys = keys[np.lexsort(keys.T[::-1])]
        starts = np.flatnonzero(np.concatenate(
            ([True], np.any(keys[1:] != keys[:-1], axis=1))))
        _check_oracle_bytes(starts.size * slots, "the template table")
        templates = np.unpackbits(keys[starts].astype(">u8").view(np.uint8),
                                  axis=1, count=slots)
        del keys
        counts = np.diff(starts, append=total)
        del starts
        # the einsums cast 0/1 bytes to float64 exactly, so either form
        # gives the same bits
        small = templates.size * 8 <= FLOAT_TABLE_BYTES_CAP
        self._V = templates.astype(np.float64) if small else templates
        self._logmult = np.log(counts.astype(np.float64))
        # on 0/1 rows the row sum is the sum of squares, exactly
        self._ssq = templates.sum(axis=1, dtype=np.float64)
        self._ssq_min = float(self._ssq.min())
        self._buf = np.empty_like(self._ssq)  # scratch for the step's logits
        self._log_total = math.log(total)
        self.num_templates = int(templates.shape[0])
        self.num_edge_slots = slots

    # -- upper-triangle-vector core --------------------------------------
    # One state w is an (E,) vector; a batch is (B, E), one sample per row,
    # and each row gets the bits it would get alone.

    def _alpha_beta(self, t: float) -> tuple[float, float]:
        alpha, beta = self.sched.alpha_beta(t)
        if beta < BETA_FLOOR:
            raise NumericalRegimeError(
                f"beta_t={beta:.3g} below {BETA_FLOOR}; mixture is degenerate")
        return alpha, beta

    def _logits(self, w: np.ndarray, alpha: float, beta: float) -> np.ndarray:
        # logmult + (alpha*ip - 0.5*alpha*alpha*ssq) / beta^2, the same
        # operations in the same order, in place in the einsum's result
        ip = np.einsum("ve,...e->...v", self._V, w, optimize=False)
        np.multiply(ip, alpha, out=ip)
        np.subtract(ip, np.multiply(self._ssq, 0.5 * alpha * alpha, out=self._buf), out=ip)
        np.divide(ip, beta * beta, out=ip)
        return np.add(self._logmult, ip, out=ip)

    def _log_density_upper(self, w: np.ndarray, t: float) -> float:
        alpha, beta = self._alpha_beta(t)
        logits = self._logits(w, alpha, beta)
        wsq = float(np.einsum("e,e->", w, w, optimize=False))
        return (_log_sum_exp(logits) - self._log_total
                - wsq / (2.0 * beta * beta)
                - self.num_edge_slots * (math.log(beta) + 0.5 * math.log(2.0 * math.pi)))

    def _score_upper(self, w: np.ndarray, t: float) -> np.ndarray:
        alpha, beta = self._alpha_beta(t)
        logits = self._logits(w, alpha, beta)
        np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
        weights = np.exp(logits, out=logits)
        np.divide(weights, weights.sum(axis=-1, keepdims=True), out=weights)
        posterior_mean = np.einsum("...v,ve->...e", weights, self._V, optimize=False)
        b2 = beta * beta
        return -w / b2 + (alpha / b2) * posterior_mean

    def _series_argument(self, w: np.ndarray, alpha: float,
                         beta: float) -> tuple[np.ndarray, np.ndarray]:
        """Exponent arguments x = (alpha/beta^2)<template, w> and max |x|."""
        ip = np.einsum("ve,...e->...v", self._V, w, optimize=False)
        x = (alpha / (beta * beta)) * ip
        return x, np.abs(x).max(axis=-1, initial=0.0)

    def _series_upper(self, w: np.ndarray, t: float, order: int):
        """Series scores of a (B, E) batch, and None or (row, error) for the
        first row whose truncation diverges; the scores stop before it."""
        alpha, beta = self._alpha_beta(t)
        b2 = beta * beta
        x, ratios = self._series_argument(w, alpha, beta)
        failure = None
        over = np.flatnonzero(ratios > SERIES_RATIO_MAX)
        if over.size:
            row = int(over[0])
            ratio = float(ratios[row])
            failure = (row, SeriesDivergenceError(
                f"series argument ratio {ratio:.3g} exceeds"
                f" {SERIES_RATIO_MAX}; truncation would diverge",
                ratio=ratio))
            w, x = w[:row], x[:row]
        # multiplicity times the self-energy weight, shifted for stability
        # (the shift cancels between numerator and denominator)
        logq = self._logmult - alpha * alpha * (self._ssq - self._ssq_min) / (2.0 * b2)
        q = np.exp(logq)
        sigma = np.ones_like(x)
        term = np.ones_like(x)
        for k in range(1, order + 1):
            term = term * x / k
            sigma = sigma + term
        mix = q * sigma
        # row by row: past 8,192 templates a batched "bv->b" sums in
        # another order than "v->"
        denoms = [float(np.einsum("v->", row, optimize=False)) for row in mix]
        for row, denom in enumerate(denoms):
            if not math.isfinite(denom) or denom <= 0.0:
                failure = (row, SeriesDivergenceError(
                    f"series denominator {denom:.3g} is not positive; truncation"
                    f" order {order} is outside its convergent regime",
                    ratio=float(ratios[row])))
                w, mix, denoms = w[:row], mix[:row], denoms[:row]
                break
        numer = np.einsum("bv,ve->be", mix, self._V, optimize=False)
        denom = np.array(denoms, dtype=np.float64)[:, None]
        return -w / b2 + (alpha / b2) * (numer / denom), failure

    # -- full-matrix interface --------------------------------------------

    def _check_matrix(self, W) -> np.ndarray:
        arr = validate_symmetric(W)
        if arr.shape[0] != self.n:
            raise InputError(
                f"matrix has {arr.shape[0]} nodes, oracle was built for {self.n}")
        return arr

    def log_density(self, W, t: float) -> float:
        return self._log_density_upper(upper_vector(self._check_matrix(W)), t)

    def score(self, W, t: float) -> np.ndarray:
        s = self._score_upper(upper_vector(self._check_matrix(W)), t)
        return symmetric_from_upper(s, self.n)

    def score_series(self, W, t: float, order: int | None = None) -> np.ndarray:
        if order is None:
            order = self.cfg.truncation_k
        elif order < 0:
            raise InputError("series order must be non-negative")
        s, failure = self._series_upper(
            upper_vector(self._check_matrix(W))[None], t, order)
        if failure is not None:
            raise failure[1]
        return symmetric_from_upper(s[0], self.n)

    def series_ratio(self, W, t: float) -> float:
        """Largest exponent argument the series would see; its regime gauge."""
        alpha, beta = self._alpha_beta(t)
        return float(self._series_argument(
            upper_vector(self._check_matrix(W)), alpha, beta)[1])

    def reverse_sample(self, steps: int, samples, score_mode: str = "direct",
                       *, threshold: float = 0.5,
                       trajectories: list | None = None) -> list[Graph]:
        """Integrate the reverse-time SDE from t_max to t_min and quantize,
        one graph per index in the sequence `samples`; sample idx draws from
        its own stream, ``default_rng([cfg.seed, idx])``.

        Euler-Maruyama on a uniform grid, score evaluated at the left
        endpoint of each step. The samples are stepped together, in batches
        whose (samples x templates) float64 arrays fit ``BATCH_BYTES_CAP``,
        and each sample's bits are those it would have alone. `trajectories`,
        if given, is extended by one list per sample of (t, full matrix)
        states including the final one. A series divergence raises the error
        of the lowest-index diverging sample.
        """
        _check_sampling(steps, score_mode, threshold)
        if min(samples, default=0) < 0:
            raise InputError("sample indices must be non-negative")
        rows = max(1, BATCH_BYTES_CAP // (8 * self.num_templates))
        graphs = []
        for start in range(0, len(samples), rows):
            rngs = [np.random.default_rng([self.cfg.seed, idx])
                    for idx in samples[start:start + rows]]
            states = [[] for _ in rngs] if trajectories is not None else None
            w, failure = self._integrate(steps, score_mode, rngs, states)
            if failure is not None:
                raise failure[1]
            graphs += [quantize(symmetric_from_upper(row, self.n), threshold)
                       for row in w]
            if trajectories is not None:
                trajectories += states
        return graphs

    def _integrate(self, steps: int, score_mode: str, rngs: list,
                   trajectories: list | None):
        """One batch's final (B, E) states, and the first series failure."""
        sched = self.sched
        n = self.n
        w = np.empty((len(rngs), self.num_edge_slots))
        for row, rng in zip(w, rngs):
            rng.standard_normal(out=row)
        z = np.empty_like(w)
        failure = None
        h = (sched.t_max - sched.t_min) / steps
        for step in range(steps):
            t = sched.t_max - step * h
            if trajectories is not None:
                for states, row in zip(trajectories, w):
                    states.append((float(t), symmetric_from_upper(row, n)))
            rate = sched.rate(t)
            if score_mode == "direct":
                s = self._score_upper(w, t)
            else:
                s, failed = self._series_upper(w, t, self.cfg.truncation_k)
                if failed is not None:
                    # the rows from the diverging one on can only lose to it
                    failure = failed
                    w, z = w[:failed[0]], z[:failed[0]]
                    if not len(w):
                        break
            for row, rng in zip(z, rngs):
                rng.standard_normal(out=row)
            # w + h*(0.5*rate*w + rate*s) + sqrt(rate*h)*z, in place
            drift = np.multiply(w, 0.5 * rate)
            np.add(drift, np.multiply(s, rate, out=s), out=drift)
            np.add(w, np.multiply(drift, h, out=drift), out=w)
            np.add(w, np.multiply(z, math.sqrt(rate * h), out=z), out=w)
        if trajectories is not None:
            for states, row in zip(trajectories, w):
                states.append((float(sched.t_min), symmetric_from_upper(row, n)))
        return w, failure


# ---------------------------------------------------------------------------
# series-identity verification


VERIFY_NODE_CAP = 6
VERIFY_ORDER_CAP = 4


def _require_verifiable(n: int, k: int) -> None:
    if n > VERIFY_NODE_CAP or k > VERIFY_ORDER_CAP:
        raise CapacityError(
            f"term verification enumerates the n! permutations and the set"
            f" partitions of 2k+2 index positions; capped at"
            f" n<={VERIFY_NODE_CAP}, k<={VERIFY_ORDER_CAP}")


def verify_basis_expansion(W, k: int, dataset: Dataset
                           ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Check the order-k term of the series score against its polynomial form.

    Moment side: averages over every (training graph, permutation) pair of
    the matrix pi(A0)*<pi(A0), W>^k and the scalar <pi(A0), W>^k, with
    full-matrix inner products. Basis side: the same quantities reassembled
    from invariant and equivariant basis polynomials, one term per set
    partition of the 2k+2 index positions, with the completion factorials
    the grouping by injective placements requires. Returns both sides,
    (f_moment, f_basis, g_moment, g_basis), which must agree to float
    precision.
    """
    arr = validate_symmetric(W)
    n = arr.shape[0]
    _require_verifiable(n, k)
    if k < 0:
        raise InputError("order k must be non-negative")
    graphs = [g for g in dataset.graphs if g.n == n]
    if not graphs:
        raise InputError(f"dataset has no graphs with {n} nodes")

    # moment side, by direct enumeration
    f_moment = np.zeros((n, n), dtype=np.float64)
    g_moment = 0.0
    perms = _injective_assignments(n, n)
    for g in graphs:
        A = g.adj.astype(np.float64)
        for perm in perms:
            B = A[np.ix_(perm, perm)]
            ip = float(np.einsum("ij,ij->", B, arr, optimize=False))
            wk = ip ** k
            f_moment += B * wk
            g_moment += wk
    f_moment /= len(graphs) * len(perms)
    g_moment /= len(graphs) * len(perms)

    nfact = factorial(n)
    mean_inv_cache: dict = {}

    def weighted_terms(length: int, rooted: bool):
        # one (weight, node count, multi edges) per set partition with a
        # nonzero coefficient: multiplicity times the completion factorial
        # times the dataset average of the collapsed pattern's invariant
        for mult, kp, simple, multi in _expansion_terms(n, length, rooted):
            key = (kp, simple)
            if key not in mean_inv_cache:
                total = 0.0
                for g in graphs:
                    total += monomial_sum(g.adj.astype(np.float64), kp, simple)
                mean_inv_cache[key] = total / (len(graphs) * nfact)
            coeff = factorial(n - kp) * mean_inv_cache[key]
            if coeff != 0.0:
                yield mult * coeff, kp, multi

    # basis side: the tuples of one set partition contribute identical terms
    f_basis = np.zeros((n, n), dtype=np.float64)
    for weight, kp, multi in weighted_terms(2 * k + 2, rooted=True):
        raw = pinned_monomial_matrix(arr, kp, multi, 0, 1)
        f_basis += weight * (raw * (factorial(n - kp) / nfact))
    g_basis = 0.0
    for weight, kp, multi in weighted_terms(2 * k, rooted=False):
        g_basis += weight * (factorial(n - kp) * monomial_sum(arr, kp, multi)
                             / nfact)

    return f_moment, f_basis, g_moment, float(g_basis)
