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
permuted-adjacency rows with multiplicities. The rows are bit-packed into
big-endian 64-bit words, whose order is the rows' lexicographic order, and
deduplicated by one ``np.lexsort`` over the word columns, so the table is
the one ``np.unique(rows, axis=0)`` would give. ``verify_basis_expansion``
checks the algebraic identity behind the series form, term by term, against
the graph-polynomial module.

All reductions that touch floating-point data go through einsum with a fixed
contraction order so that results are identical regardless of BLAS thread
count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import (CapacityError, InputError, NumericalRegimeError,
                     SeriesDivergenceError)
from .graphs import Dataset, Graph
from .polynomials import (_expansion_terms, monomial_sum,
                          pinned_monomial_matrix)

# Below this noise level the mixture components are numerically disjoint and
# the posterior weights degenerate; refuse rather than return garbage.
BETA_FLOOR = 1e-6

EXHAUSTIVE_PERM_CAP = 8

# Largest single array the oracle build may allocate, in bytes.
ORACLE_BYTES_CAP = 2**30

# Monte Carlo permutations are drawn one generator call each (about 4 s per
# million); drawing them in one call would change the stream.
MC_SAMPLES_CAP = 10**6


def _check_oracle_bytes(nbytes: int, what: str) -> None:
    if nbytes > ORACLE_BYTES_CAP:
        raise CapacityError(
            f"score oracle: {what} would take {nbytes} bytes, over the"
            f" {ORACLE_BYTES_CAP}-byte cap; use fewer graphs, nodes or"
            f" --mc-samples")


def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as intp rows, in the order
    ``itertools.permutations(range(n))`` yields them."""
    table = np.zeros((1, 0), dtype=np.intp)
    for m in range(1, n + 1):
        # head h, then the other m-1 values, sorted, in the (m-1)! table's order
        table = np.concatenate([
            np.column_stack((np.full(len(table), h, dtype=np.intp),
                             np.delete(np.arange(m, dtype=np.intp), h)[table]))
            for h in range(m)])
    return table


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


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance-preserving schedule with linear rate beta(t)."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    t_min: float = 1e-3
    t_max: float = 1.0

    def __post_init__(self):
        if not (0 < self.beta_min < self.beta_max):
            raise InputError("need 0 < beta_min < beta_max")
        if not (0 < self.t_min < self.t_max <= 1.0):
            raise InputError("need 0 < t_min < t_max <= 1")

    def _check(self, t: float) -> float:
        t = float(t)
        if not (self.t_min <= t <= self.t_max):
            raise InputError(
                f"t={t} outside schedule range [{self.t_min}, {self.t_max}]")
        return t

    def rate(self, t: float) -> float:
        t = self._check(t)
        return self.beta_min + t * (self.beta_max - self.beta_min)

    def alpha_beta(self, t: float) -> tuple[float, float]:
        t = self._check(t)
        integral = self.beta_min * t + 0.5 * t * t * (self.beta_max - self.beta_min)
        alpha = math.exp(-0.5 * integral)
        # beta^2 = 1 - alpha^2 = -expm1(-integral), stable near t=0
        beta = math.sqrt(-math.expm1(-integral))
        return alpha, beta


@dataclass(frozen=True)
class ScoreConfig:
    """Knobs of the exact-score oracle.

    perm_policy: "exhaustive" enumerates all n! permutations (n <= 8),
    "monte_carlo" draws mc_samples uniform permutations from `seed`,
    "auto" picks exhaustive when affordable. truncation_k is the series
    order; series_ratio_max bounds the largest exponent argument the series
    mode will accept before declaring itself out of its convergent regime.
    """

    perm_policy: str = "auto"
    mc_samples: int = 10000
    seed: int = 0
    truncation_k: int = 12
    series_ratio_max: float = 3.0

    def __post_init__(self):
        if self.perm_policy not in ("auto", "exhaustive", "monte_carlo"):
            raise InputError(f"unknown perm_policy {self.perm_policy!r}")
        if self.mc_samples < 1:
            raise InputError("mc_samples must be at least 1")
        if self.truncation_k < 0:
            raise InputError("truncation_k must be non-negative")
        if not (self.series_ratio_max > 0):
            raise InputError("series_ratio_max must be positive")


def perturb(graph: Graph, t: float, sched: NoiseSchedule, rng) -> np.ndarray:
    """Forward-process sample: alpha_t*A0 plus mirrored Gaussian edge noise."""
    alpha, beta = sched.alpha_beta(t)
    noise = random_symmetric(graph.n, rng)
    return alpha * graph.adj.astype(np.float64) + beta * noise


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
    One flat index (permutation x edge slot into a raveled adjacency) gathers
    each graph's permuted 0/1 rows, which are packed into zero-padded
    big-endian 64-bit words, ceil(E/64) per row. ``np.lexsort`` over the
    word columns sorts the rows; the first row of each run is a template,
    the run lengths are its count, and the words are unpacked back to rows.
    The gather, the keys and the float64 table are each held
    under ``ORACLE_BYTES_CAP``, and Monte Carlo draws under
    ``MC_SAMPLES_CAP`` (``CapacityError`` past either). Everything else is a
    small amount of arithmetic per query against that table.
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
        # intp permutations and flat gather index, plus one graph's uint8 rows
        _check_oracle_bytes(num_perms * (8 * n + 9 * slots),
                            "the permutations and gather")
        if policy == "monte_carlo" and num_perms > MC_SAMPLES_CAP:
            raise CapacityError(
                f"score oracle: {num_perms} Monte Carlo permutations are over"
                f" the cap of {MC_SAMPLES_CAP}; use fewer --mc-samples")
        if policy == "exhaustive":
            perms = _permutation_table(n)
        else:
            rng = np.random.default_rng(self.cfg.seed)
            perms = np.array([rng.permutation(n) for _ in range(self.cfg.mc_samples)],
                             dtype=np.intp)
        # row p, slot (i, j) reads adj[perm[i], perm[j]], at perm[i]*n + perm[j]
        # of the raveled adjacency; summed column by column, as a whole-array
        # sum would allocate (and free) a second index-sized array
        flat = perms[:, iu]
        flat *= n
        for s, j in enumerate(ju):
            flat[:, s] += perms[:, j]
        packed = -(-slots // 8)
        words = max(1, -(-packed // 8))  # n=1 still needs a key word
        total = len(graphs) * num_perms
        _check_oracle_bytes(total * 8 * words, "the row keys")
        keys = np.zeros((total, 8 * words), dtype=np.uint8)
        for i, g in enumerate(graphs):
            rows = g.adj.ravel()[flat]
            keys[i * num_perms:(i + 1) * num_perms, :packed] = np.packbits(rows, axis=1)
        # big-endian, zero-padded words: word order is the rows' order
        keys = keys.view(">u8").astype(np.uint64)
        keys = keys[np.lexsort(keys.T[::-1])]
        starts = np.flatnonzero(np.concatenate(
            ([True], np.any(keys[1:] != keys[:-1], axis=1))))
        _check_oracle_bytes(starts.size * slots * 8, "the template table")
        templates = np.unpackbits(keys[starts].astype(">u8").view(np.uint8),
                                  axis=1, count=slots)
        # freed only now: once a block this large is released, glibc serves
        # the sort's mid-size arrays from its heap, where they stay resident
        # after the build and raise the sampler's peak RSS
        del perms, flat, rows, keys
        counts = np.diff(starts, append=total)
        del starts
        self._V = templates.astype(np.float64)
        self._logmult = np.log(counts.astype(np.float64))
        # on 0/1 rows the row sum is the sum of squares, exactly
        self._ssq = templates.sum(axis=1, dtype=np.float64)
        self._ssq_min = float(self._ssq.min())
        self._buf = np.empty_like(self._ssq)  # scratch for the step's logits
        self._log_total = math.log(total)
        self.num_templates = int(templates.shape[0])
        self.num_edge_slots = slots

    # -- upper-triangle-vector core --------------------------------------

    def _alpha_beta(self, t: float) -> tuple[float, float]:
        alpha, beta = self.sched.alpha_beta(t)
        if beta < BETA_FLOOR:
            raise NumericalRegimeError(
                f"beta_t={beta:.3g} below {BETA_FLOOR}; mixture is degenerate")
        return alpha, beta

    def _logits(self, w: np.ndarray, alpha: float, beta: float) -> np.ndarray:
        # logmult + (alpha*ip - 0.5*alpha*alpha*ssq) / beta^2, the same
        # operations in the same order, in place in the einsum's result
        ip = np.einsum("ve,e->v", self._V, w, optimize=False)
        np.multiply(ip, alpha, out=ip)
        np.subtract(ip, np.multiply(self._ssq, 0.5 * alpha * alpha, out=self._buf), out=ip)
        np.divide(ip, beta * beta, out=ip)
        return np.add(self._logmult, ip, out=ip)

    def _log_density_upper(self, w: np.ndarray, t: float) -> float:
        # imported here: scipy is slow to import and only density queries use it
        from scipy.special import logsumexp

        alpha, beta = self._alpha_beta(t)
        logits = self._logits(w, alpha, beta)
        wsq = float(np.einsum("e,e->", w, w, optimize=False))
        return (float(logsumexp(logits)) - self._log_total
                - wsq / (2.0 * beta * beta)
                - self.num_edge_slots * (math.log(beta) + 0.5 * math.log(2.0 * math.pi)))

    def _score_upper(self, w: np.ndarray, t: float) -> np.ndarray:
        alpha, beta = self._alpha_beta(t)
        logits = self._logits(w, alpha, beta)
        np.subtract(logits, logits.max(), out=logits)
        weights = np.exp(logits, out=logits)
        np.divide(weights, weights.sum(), out=weights)
        posterior_mean = np.einsum("v,ve->e", weights, self._V, optimize=False)
        b2 = beta * beta
        return -w / b2 + (alpha / b2) * posterior_mean

    def _series_argument(self, w: np.ndarray, alpha: float,
                         beta: float) -> tuple[np.ndarray, float]:
        """Exponent arguments x = (alpha/beta^2)<template, w> and max |x|."""
        ip = np.einsum("ve,e->v", self._V, w, optimize=False)
        x = (alpha / (beta * beta)) * ip
        return x, float(np.abs(x).max()) if x.size else 0.0

    def _series_upper(self, w: np.ndarray, t: float, order: int) -> np.ndarray:
        alpha, beta = self._alpha_beta(t)
        b2 = beta * beta
        x, ratio = self._series_argument(w, alpha, beta)
        if ratio > self.cfg.series_ratio_max:
            raise SeriesDivergenceError(
                f"series argument ratio {ratio:.3g} exceeds"
                f" {self.cfg.series_ratio_max}; truncation would diverge",
                ratio=ratio)
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
        denom = float(np.einsum("v->", mix, optimize=False))
        if not math.isfinite(denom) or denom <= 0.0:
            raise SeriesDivergenceError(
                f"series denominator {denom:.3g} is not positive; truncation"
                f" order {order} is outside its convergent regime",
                ratio=ratio)
        numer = np.einsum("v,ve->e", mix, self._V, optimize=False)
        return -w / b2 + (alpha / b2) * (numer / denom)

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
        s = self._series_upper(upper_vector(self._check_matrix(W)), t, order)
        return symmetric_from_upper(s, self.n)

    def series_ratio(self, W, t: float) -> float:
        """Largest exponent argument the series would see; its regime gauge."""
        alpha, beta = self._alpha_beta(t)
        return self._series_argument(upper_vector(self._check_matrix(W)),
                                     alpha, beta)[1]

    def reverse_sample(self, steps: int, score_mode: str = "direct",
                       rng=None, *, threshold: float = 0.5,
                       trajectory: list | None = None) -> Graph:
        """Integrate the reverse-time SDE from t_max to t_min and quantize.

        Euler-Maruyama on a uniform grid, score evaluated at the left
        endpoint of each step. `trajectory`, if given, collects
        (t, full matrix) states including the final one.
        """
        if steps < 10:
            raise InputError("steps must be at least 10")
        if score_mode not in ("direct", "series"):
            raise InputError(f"unknown score_mode {score_mode!r}")
        if rng is None:
            rng = np.random.default_rng(self.cfg.seed)
        sched = self.sched
        n = self.n
        slots = self.num_edge_slots
        w = rng.standard_normal(slots)
        h = (sched.t_max - sched.t_min) / steps
        for step in range(steps):
            t = sched.t_max - step * h
            if trajectory is not None:
                trajectory.append((float(t), symmetric_from_upper(w, n)))
            rate = sched.rate(t)
            if score_mode == "direct":
                s = self._score_upper(w, t)
            else:
                s = self._series_upper(w, t, self.cfg.truncation_k)
            z = rng.standard_normal(slots)
            w = w + h * (0.5 * rate * w + rate * s) + math.sqrt(rate * h) * z
        if trajectory is not None:
            trajectory.append((float(sched.t_min), symmetric_from_upper(w, n)))
        return quantize(symmetric_from_upper(w, n), threshold)


# ---------------------------------------------------------------------------
# series-identity verification


VERIFY_NODE_CAP = 4
VERIFY_ORDER_CAP = 3


@dataclass(frozen=True, eq=False)
class BasisExpansionReport:
    """Both sides of the order-k moment decomposition, for inspection."""

    order: int
    n: int
    f_moment: np.ndarray
    f_basis: np.ndarray
    g_moment: float
    g_basis: float

    @property
    def f_discrepancy(self) -> float:
        return float(np.abs(self.f_moment - self.f_basis).max())

    @property
    def g_discrepancy(self) -> float:
        return abs(self.g_moment - self.g_basis)

    @property
    def max_discrepancy(self) -> float:
        return max(self.f_discrepancy, self.g_discrepancy)


def verify_basis_expansion(W, k: int, dataset: Dataset) -> BasisExpansionReport:
    """Check the order-k term of the series score against its polynomial form.

    Moment side: averages over every (training graph, permutation) pair of
    the matrix pi(A0)*<pi(A0), W>^k and the scalar <pi(A0), W>^k, with
    full-matrix inner products. Basis side: the same quantities reassembled
    from invariant and equivariant basis polynomials, one term per index
    tuple, with the completion factorials the grouping by injective
    placements requires. The two must agree to float precision; their
    difference is the report's discrepancy.
    """
    arr = validate_symmetric(W)
    n = arr.shape[0]
    if n > VERIFY_NODE_CAP or k > VERIFY_ORDER_CAP:
        raise CapacityError(
            f"term verification enumerates n^(2k+2) tuples; capped at"
            f" n<={VERIFY_NODE_CAP}, k<={VERIFY_ORDER_CAP}")
    if k < 0:
        raise InputError("order k must be non-negative")
    graphs = [g for g in dataset.graphs if g.n == n]
    if not graphs:
        raise InputError(f"dataset has no graphs with {n} nodes")

    # moment side, by direct enumeration
    f_moment = np.zeros((n, n), dtype=np.float64)
    g_moment = 0.0
    pairs = 0
    for g in graphs:
        A = g.adj.astype(np.float64)
        for perm in itertools.permutations(range(n)):
            idx = np.asarray(perm, dtype=np.intp)
            B = A[np.ix_(idx, idx)]
            ip = float(np.einsum("ij,ij->", B, arr, optimize=False))
            wk = ip ** k
            f_moment += B * wk
            g_moment += wk
            pairs += 1
    f_moment /= pairs
    g_moment /= pairs

    nfact = factorial(n)
    mean_inv_cache: dict = {}

    def weighted_terms(length: int, rooted: bool):
        # one (weight, node count, multi edges) per tuple group with a
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

    # basis side: tuples sharing a relabeling contribute identical terms
    f_basis = np.zeros((n, n), dtype=np.float64)
    for weight, kp, multi in weighted_terms(2 * k + 2, rooted=True):
        raw = pinned_monomial_matrix(arr, kp, multi, 0, 1)
        f_basis += weight * (raw * (factorial(n - kp) / nfact))
    g_basis = 0.0
    for weight, kp, multi in weighted_terms(2 * k, rooted=False):
        g_basis += weight * (factorial(n - kp) * monomial_sum(arr, kp, multi)
                             / nfact)

    return BasisExpansionReport(order=k, n=n, f_moment=f_moment,
                                f_basis=f_basis, g_moment=g_moment,
                                g_basis=float(g_basis))
