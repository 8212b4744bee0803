"""Numerical self-checks, shared between the CLI `verify` subcommand and the
acceptance tests.

Each suite returns one JSON-ready dict with the same shape: suite name,
pass flag, number of checks, failure count, worst observed error, the
tolerance it was held to, and the resolved parameters. Failures carry a few
human-readable examples for debugging, never silently truncated results.

The `verify` flags a suite reads are its runner's keyword parameters of the
same names (`n`, `k`, `trials`, `seed`, `tolerance`): `run_suites` routes
each flag by the runner's signature, and each runner turns its own flags
into sizes and orders.
"""

from __future__ import annotations

import inspect
import itertools

import numpy as np

from .config import SUITE_NAMES, NoiseSchedule, ScoreConfig
from .counting import count_subgraphs
from .diffusion import (ScoreOracle, _require_verifiable, random_symmetric,
                        permute_matrix, verify_basis_expansion)
from .errors import InputError
from .graphs import Dataset, Graph, Pattern, automorphism_count
from .patterns import PATTERN_LIBRARY, derive_marked_patterns
from .polynomials import (_require_assignments, _require_basis_pattern,
                          equivariant_basis, invariant_basis, monomial_sum)


def check_tolerance(tolerance: float) -> None:
    if not 0 <= tolerance < float("inf"):  # nan fails every comparison
        raise InputError(f"tolerance must be finite and >= 0, got {tolerance}")


def _report(suite: str, checks: int, failures: list, max_error: float,
            tolerance: float, params: dict) -> dict:
    # a self-check that checked nothing or could fail nothing reads as a pass
    if checks == 0:
        raise InputError(f"suite {suite} ran no checks: its trial count,"
                         " sizes or orders select none")
    check_tolerance(tolerance)
    return {
        "suite": suite,
        "passed": not failures,
        "checks": checks,
        "failures": len(failures),
        "failure_examples": failures[:8],
        "max_error": max_error,
        "tolerance": tolerance,
        "params": params,
    }


def _seeded(seed: int):
    if seed < 0:  # numpy would raise a bare ValueError
        raise InputError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _random_graph(n: int, prob: float, rng) -> Graph:
    upper = np.triu(rng.random((n, n)) < prob, 1).astype(np.uint8)
    return Graph(upper + upper.T)


def run_count_identity(n: int = 6, trials: int = 200, seed: int = 0) -> dict:
    """Scaled-integer identity: raw injective sum == |Aut| * subgraph count,
    on random graphs of 2 to n nodes.

    Both sides are exact integers, so the tolerance is zero and any mismatch
    is a hard failure.
    """
    if n < 2:
        raise InputError(f"count-identity needs n_max >= 2, got {n}")
    rng = _seeded(seed)
    patterns = [p for p in PATTERN_LIBRARY.values() if p.k <= 6]
    auts = [automorphism_count(p.graph) for p in patterns]
    checks = 0
    failures: list[str] = []
    for trial in range(trials):
        size = int(rng.integers(2, n + 1))
        for p in patterns:  # refuse an oversized graph before drawing it
            _require_assignments(size, p.k)
        g = _random_graph(size, float(rng.uniform(0.15, 0.7)), rng)
        adj = g.adj.astype(np.int64)
        for p, aut in zip(patterns, auts):
            lhs = monomial_sum(adj, p.k, p.graph.edge_list)
            rhs = aut * count_subgraphs(g, p)
            checks += 1
            if lhs != rhs:
                failures.append(
                    f"trial {trial}, pattern {p.name}: raw sum {lhs}"
                    f" != aut*count {rhs}")
    return _report("count-identity", checks, failures, float(bool(failures)),
                   0.0, {"n_max": n, "trials": trials, "seed": seed,
                         "patterns": [p.name for p in patterns]})


def run_finitediff(seed: int = 0, tolerance: float = 1e-4,
                   step: float = 1e-5) -> dict:
    """Score entries against central finite differences of the log-density.

    Also the arbiter for the score's sign convention: the leading term is
    minus W over beta squared, and only that sign matches the derivative of
    the mixture log-density.
    """
    rng = _seeded(seed)
    sched = NoiseSchedule()
    cfg = ScoreConfig(perm_policy="exhaustive")
    times = (0.2, 0.5, 0.9)
    checks = 0
    max_rel = 0.0
    failures: list[str] = []
    for n in (3, 4):
        for ds_size in (1, 2, 3):
            graphs = tuple(_random_graph(n, 0.5, rng) for _ in range(ds_size))
            oracle = ScoreOracle(Dataset(graphs=graphs), n, cfg=cfg, sched=sched)
            W = random_symmetric(n, rng)
            for t in times:
                S = oracle.score(W, t)
                for i in range(n):
                    for j in range(i + 1, n):
                        up = W.copy()
                        up[i, j] += step
                        up[j, i] += step
                        down = W.copy()
                        down[i, j] -= step
                        down[j, i] -= step
                        fd = (oracle.log_density(up, t)
                              - oracle.log_density(down, t)) / (2 * step)
                        rel = abs(fd - S[i, j]) / max(abs(S[i, j]), 1e-10)
                        checks += 1
                        max_rel = max(max_rel, rel)
                        if rel > tolerance:
                            failures.append(
                                f"n={n} |ds|={ds_size} t={t} entry ({i},{j}):"
                                f" fd {fd:.8g} vs score {S[i, j]:.8g}"
                                f" (rel {rel:.3g})")
    return _report("finitediff", checks, failures, max_rel, tolerance,
                   {"sizes": [3, 4], "dataset_sizes": [1, 2, 3],
                    "times": list(times), "step": step, "seed": seed})


def run_series(seed: int = 0, tolerance: float = 1e-3, k: int = 12,
               trials: int = 10) -> dict:
    """Order-k truncated series against the direct score in the convergent
    regime.

    Also checks that two extra orders never hurt (unless already at float
    noise), which is what convergence looks like numerically.
    """
    rng = _seeded(seed)
    n = 4
    # late enough that the exponent arguments stay below 1, early enough
    # that truncation error is actually visible above float noise
    t = 0.7
    sched = NoiseSchedule()
    cfg = ScoreConfig(perm_policy="exhaustive")
    graphs = tuple(_random_graph(n, 0.5, rng) for _ in range(2))
    oracle = ScoreOracle(Dataset(graphs=graphs), n, cfg=cfg, sched=sched)
    checks = 0
    max_rel = 0.0
    max_ratio = 0.0
    failures: list[str] = []
    for trial in range(trials):
        W = random_symmetric(n, rng)
        ratio = oracle.series_ratio(W, t)
        max_ratio = max(max_ratio, ratio)
        direct = oracle.score(W, t)
        scale = float(np.linalg.norm(direct))
        err = {}
        for order in (k, k + 2):
            approx = oracle.score_series(W, t, order=order)
            err[order] = float(np.linalg.norm(approx - direct)) / scale
        checks += 2
        if err[k] > tolerance:
            failures.append(
                f"trial {trial}: order-{k} error {err[k]:.3g}"
                f" (ratio {ratio:.3g})")
        if err[k + 2] > err[k] and err[k] > 1e-9:
            failures.append(
                f"trial {trial}: error grew from {err[k]:.3g} to"
                f" {err[k + 2]:.3g} with two extra orders")
        max_rel = max(max_rel, err[k])
    params = {"n": n, "t": t, "order": k, "trials": trials, "seed": seed,
              "max_series_ratio": max_ratio}
    return _report("series", checks, failures, max_rel, tolerance, params)


def run_basis(seed: int = 0, tolerance: float = 1e-9, n: int | None = None,
              k: int = 3) -> dict:
    """Moment form versus basis-polynomial form at orders 0 to k, on n nodes
    (3 and 4 when n is None)."""
    sizes = (3, 4) if n is None else (n,)
    if min(sizes) < 1:
        raise InputError(f"basis needs n >= 1, got {list(sizes)}")
    rng = _seeded(seed)
    _require_verifiable(max(sizes), k)  # before any draw
    checks = 0
    max_disc = 0.0
    failures: list[str] = []
    for size in sizes:
        graphs = tuple(_random_graph(size, 0.5, rng) for _ in range(2))
        ds = Dataset(graphs=graphs)
        W = random_symmetric(size, rng)
        for order in range(k + 1):
            f_moment, f_basis, g_moment, g_basis = verify_basis_expansion(
                W, order, ds)
            f_disc = float(np.abs(f_moment - f_basis).max())
            g_disc = abs(g_moment - g_basis)
            disc = max(f_disc, g_disc)
            checks += 1
            max_disc = max(max_disc, disc)
            if disc > tolerance:
                failures.append(f"n={size} k={order}: discrepancy {disc:.3g}"
                                f" (f {f_disc:.3g}, g {g_disc:.3g})")
    return _report("basis", checks, failures, max_disc, tolerance,
                   {"n_values": list(sizes), "orders": list(range(k + 1)),
                    "seed": seed})


def _equivariance_patterns(n: int) -> tuple[list[Pattern], list[Pattern]]:
    unmarked = [p for p in PATTERN_LIBRARY.values() if p.k <= n]
    edge = Pattern(Graph.from_edges(2, [(0, 1)]), name="edge")
    sources = [edge] + [PATTERN_LIBRARY[name] for name in ("c3", "c4", "c5")]
    marked = [p for p in derive_marked_patterns(sources) if p.k <= n]
    return unmarked, marked


def run_equivariance(seed: int = 0, tolerance: float = 1e-12,
                     n: int | None = None, trials: int = 2) -> dict:
    """Invariance of Q and equivariance of the marked form under every
    permutation of n nodes (3, 4 and 5 when n is None), exhaustively."""
    rng = _seeded(seed)
    sizes = (3, 4, 5) if n is None else (n,)
    plans = [(size, *_equivariance_patterns(size)) for size in sizes]
    for _, unmarked, _ in plans:  # refuse an oversized pattern before any W
        for p in unmarked:
            _require_basis_pattern(p, marked=False)
    checks = 0
    max_rel = 0.0
    failures: list[str] = []
    for size, unmarked, marked in plans:
        for trial in range(trials):
            W = random_symmetric(size, rng)
            inv_base = {p.name: invariant_basis(W, p) for p in unmarked}
            equi_base = [(p, equivariant_basis(W, p)) for p in marked]
            for perm in itertools.permutations(range(size)):
                Wp = permute_matrix(W, perm)
                for p in unmarked:
                    base = inv_base[p.name]
                    rel = abs(invariant_basis(Wp, p) - base) / max(abs(base), 1e-300)
                    checks += 1
                    max_rel = max(max_rel, rel)
                    if rel > tolerance:
                        failures.append(
                            f"n={size} trial {trial} pattern {p.name}"
                            f" perm {perm}: invariance off by {rel:.3g}")
                for p, base in equi_base:
                    expected = permute_matrix(base, perm)
                    got = equivariant_basis(Wp, p)
                    scale = max(float(np.abs(base).max()), 1e-300)
                    rel = float(np.abs(got - expected).max()) / scale
                    checks += 1
                    max_rel = max(max_rel, rel)
                    if rel > tolerance:
                        failures.append(
                            f"n={size} trial {trial} marked {p.name} marks"
                            f" {p.marks} perm {perm}: equivariance off by"
                            f" {rel:.3g}")
    return _report("equivariance", checks, failures, max_rel, tolerance,
                   {"n_values": list(sizes), "trials": trials, "seed": seed})


_RUNNERS = {
    "count-identity": run_count_identity,
    "finitediff": run_finitediff,
    "series": run_series,
    "basis": run_basis,
    "equivariance": run_equivariance,
}


def run_suites(suite: str, flags: dict) -> list[dict]:
    """Run one suite, or every suite when suite is "all", and return their
    reports. Each suite gets the flags its runner names as keyword
    parameters; a flag that a single named suite does not read is refused."""
    if suite != "all" and suite not in _RUNNERS:
        known = ", ".join(SUITE_NAMES)
        raise InputError(f"unknown suite {suite!r}; known suites: {known}")
    names = SUITE_NAMES if suite == "all" else (suite,)
    routed = {name: {flag: value for flag, value in flags.items()
                     if flag in inspect.signature(_RUNNERS[name]).parameters}
              for name in names}
    unread = sorted(set(flags) - set(routed[suite])) if suite != "all" else []
    if unread:
        raise InputError(f"suite {suite} does not read "
                         + ", ".join(f"--{flag}" for flag in unread))
    if "tolerance" in flags:  # before --suite all runs count-identity
        check_tolerance(flags["tolerance"])
    return [_RUNNERS[name](**routed[name]) for name in names]
