"""Noise schedule, exact-score oracle, series score, reverse sampler."""

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from motifdiff import diffusion, polynomials
from motifdiff.diffusion import (NoiseSchedule, ScoreConfig, ScoreOracle,
                                 permute_matrix, perturb, quantize,
                                 random_symmetric, symmetric_from_upper,
                                 upper_vector, validate_symmetric)
from motifdiff.errors import (CapacityError, InputError, NumericalRegimeError,
                              SeriesDivergenceError)
from motifdiff.graphs import (Dataset, Graph, automorphism_count,
                              canonical_form)

from conftest import complete_graph, make_random_graph

EXH = ScoreConfig(perm_policy="exhaustive")


def small_dataset(n, size, seed):
    rng = np.random.default_rng(seed)
    return Dataset(graphs=tuple(make_random_graph(n, 0.5, rng)
                                for _ in range(size)))


def test_upper_vector_round_trip():
    rng = np.random.default_rng(0)
    W = random_symmetric(5, rng)
    assert np.array_equal(symmetric_from_upper(upper_vector(W), 5), W)
    assert np.array_equal(W, W.T)
    assert not np.diagonal(W).any()


def test_validate_symmetric_errors():
    with pytest.raises(InputError):
        validate_symmetric(np.zeros((2, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(InputError):
        validate_symmetric(bad)
    with pytest.raises(InputError):
        validate_symmetric(np.eye(3))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_matrices_are_refused(bad):
    oracle = ScoreOracle(Dataset(graphs=(complete_graph(3),
                                         Graph.from_edges(3, [(0, 1)]))),
                         3, cfg=EXH)
    W = np.full((3, 3), 0.5)
    np.fill_diagonal(W, 0.0)
    W[0, 2] = W[2, 0] = bad
    calls = [lambda: oracle.log_density(W, 0.5), lambda: oracle.score(W, 0.5),
             lambda: oracle.score_series(W, 0.5),
             lambda: oracle.series_ratio(W, 0.5), lambda: quantize(W)]
    # errstate turns any numpy floating-point warning into an exception
    with np.errstate(all="raise"):
        for call in calls:
            with pytest.raises(InputError, match="finite"):
                call()


def test_permute_matrix_rejects_non_permutation():
    with pytest.raises(InputError):
        permute_matrix(np.zeros((3, 3)), [0, 0, 1])


def test_schedule_constants():
    sched = NoiseSchedule()
    alpha1, beta1 = sched.alpha_beta(1.0)
    # closed form: exp(-(beta_min + (beta_max - beta_min)/2) / 2) at t=1
    assert alpha1 == pytest.approx(math.exp(-5.025), rel=1e-12)
    assert beta1 == pytest.approx(math.sqrt(1 - alpha1 ** 2), rel=1e-12)
    _, beta0 = sched.alpha_beta(1e-3)
    assert beta0 == pytest.approx(0.010485416335094895, abs=1e-12)
    assert sched.rate(0.5) == pytest.approx(0.1 + 0.5 * 19.9, rel=1e-15)
    for t in np.linspace(1e-3, 1.0, 23):
        a, b = sched.alpha_beta(float(t))
        assert a * a + b * b == pytest.approx(1.0, abs=1e-12)
        assert 0 < a < 1 and 0 < b < 1


def test_schedule_validation():
    with pytest.raises(InputError):
        NoiseSchedule(beta_min=2.0, beta_max=1.0)
    with pytest.raises(InputError):
        NoiseSchedule(t_min=0.0)
    with pytest.raises(InputError):
        NoiseSchedule(t_max=1.5)
    sched = NoiseSchedule()
    with pytest.raises(InputError):
        sched.alpha_beta(0.0)
    with pytest.raises(InputError):
        sched.rate(1.1)


def test_perturb_is_seeded_and_symmetric():
    g = complete_graph(4)
    sched = NoiseSchedule()
    W1 = perturb(g, 0.5, sched, np.random.default_rng(9))
    W2 = perturb(g, 0.5, sched, np.random.default_rng(9))
    assert np.array_equal(W1, W2)
    assert np.array_equal(W1, W1.T)
    assert not np.diagonal(W1).any()
    # at tiny t the noise term is ~1e-2, so the signal dominates every slot
    W3 = perturb(g, 1e-3, sched, np.random.default_rng(9))
    a3, _ = sched.alpha_beta(1e-3)
    assert W3[0, 1] == pytest.approx(a3, abs=0.1)


def test_quantize_threshold_is_strict():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 0.5
    W[1, 2] = W[2, 1] = 0.6
    g = quantize(W, threshold=0.5)
    assert g.edge_list == ((1, 2),)


def test_score_config_validation():
    with pytest.raises(InputError):
        ScoreConfig(perm_policy="sometimes")
    with pytest.raises(InputError):
        ScoreConfig(mc_samples=0)
    with pytest.raises(InputError):
        ScoreConfig(truncation_k=-1)
    # the series gate is the module constant SERIES_RATIO_MAX, not a knob
    with pytest.raises(TypeError):
        ScoreConfig(series_ratio_max=0.0)
    with pytest.raises(InputError, match="seed must be non-negative"):
        ScoreConfig(seed=-1)


def test_oracle_template_table():
    tri = Dataset(graphs=(complete_graph(3),))
    oracle = ScoreOracle(tri, 3, cfg=EXH)
    # K3 is permutation-fixed: one template, multiplicity 3! = 6
    assert oracle.num_templates == 1
    assert oracle.num_edge_slots == 3
    assert oracle.policy == "exhaustive"

    p3 = Dataset(graphs=(Graph.from_edges(3, [(0, 1), (1, 2)]),))
    oracle = ScoreOracle(p3, 3, cfg=EXH)
    # a path on 3 nodes has 3 labeled images, each hit twice
    assert oracle.num_templates == 3


def reference_table(graphs, n, cfg):
    """The template table by its definition: np.unique over the unpacked
    permuted rows, lexicographic row order."""
    if cfg.perm_policy == "exhaustive":
        perms = np.array(list(itertools.permutations(range(n))),
                         dtype=np.intp).reshape(-1, n)
    else:
        rng = np.random.default_rng(cfg.seed)
        perms = np.array([rng.permutation(n) for _ in range(cfg.mc_samples)],
                         dtype=np.intp)
    iu, ju = np.triu_indices(n, 1)
    rows = np.concatenate(
        [g.adj[perms[:, :, None], perms[:, None, :]][:, iu, ju] for g in graphs])
    templates, counts = np.unique(rows, axis=0, return_counts=True)
    V = templates.astype(np.float64)
    return (V, np.log(counts.astype(np.float64)),
            np.einsum("ve,ve->v", V, V, optimize=False),
            math.log(rows.shape[0]), templates.shape[0])


def star_graph(n):
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_table_is_itertools_order(n):
    # the oracle's template table: every relabelling of [n], in the order
    # of itertools.permutations
    table = diffusion._injective_assignments(n, n)
    assert table.dtype == np.intp
    assert table.tolist() == [list(p) for p in itertools.permutations(range(n))]


def table_cases():
    rng = np.random.default_rng(17)
    for n in range(1, 8):
        a, b = make_random_graph(n, 0.5, rng), make_random_graph(n, 0.3, rng)
        relabeled = Graph(permute_matrix(a.adj, rng.permutation(n)))
        empty = Graph(np.zeros((n, n), dtype=np.uint8))
        # repeated, isomorphic, empty, complete and star members
        yield pytest.param(
            n, (a, b, a, relabeled, empty, complete_graph(n), star_graph(n)),
            EXH, id=f"exhaustive-n{n}")
    for n in (9, 12):  # 36 and 66 edge slots: one- and two-word keys
        graphs = tuple(make_random_graph(n, 0.4, rng) for _ in range(3))
        cfg = ScoreConfig(perm_policy="monte_carlo", mc_samples=3000, seed=n)
        yield pytest.param(n, graphs + (star_graph(n), graphs[0]), cfg,
                           id=f"monte-carlo-n{n}")
    # sample-wide's size: 40,320 permutations, 28 slots in one key word
    yield pytest.param(8, (make_random_graph(8, 0.4, rng), star_graph(8)), EXH,
                       id="exhaustive-n8")
    # the build sets one key bit per edge through the inverse permutations,
    # which only Monte Carlo draws tell apart from the permutations (S_n is
    # closed under inversion); n = 11's 55 slots are the widest key sorted
    # in place as one word, n = 12 is on the two-word lexsort path, n = 17
    # (136 slots, three words) is the first n at which a position times n
    # passes 255, and the sparse n = 30 has 435 slots in seven words
    for n, draws in ((9, 37), (11, 500), (12, 1001), (17, 300)):
        graphs = tuple(make_random_graph(n, 0.4, rng) for _ in range(2))
        cfg = ScoreConfig(perm_policy="monte_carlo", mc_samples=draws, seed=n)
        yield pytest.param(n, graphs + (star_graph(n),), cfg,
                           id=f"monte-carlo-n{n}-{draws}")
    graphs = tuple(make_random_graph(30, 0.1, rng) for _ in range(2))
    cfg = ScoreConfig(perm_policy="monte_carlo", mc_samples=200, seed=30)
    yield pytest.param(30, graphs + (star_graph(30),), cfg,
                       id="monte-carlo-n30-200-sparse")


@pytest.mark.parametrize("n,graphs,cfg", list(table_cases()))
def test_oracle_table_matches_row_unique(n, graphs, cfg):
    oracle = ScoreOracle(Dataset(graphs=graphs), n, cfg=cfg)
    V, logmult, ssq, log_total, num = reference_table(graphs, n, cfg)
    assert oracle.num_templates == num
    assert oracle._V.shape == V.shape
    assert np.array_equal(oracle._V, V)
    assert np.array_equal(oracle._logmult, logmult)
    assert np.array_equal(oracle._ssq, ssq)
    assert oracle._log_total == log_total
    if n == 1:
        assert V.shape == (1, 0) and oracle._logmult[0] == math.log(len(graphs))


def test_oracle_build_peak_memory():
    # sample-wide's shape: 3 asymmetric 8-node classes x 2 labelings, so
    # V = 3 x 8! = 120,960 templates, held as bytes. The build sets its
    # row keys from the edges through a one-byte inverse of the
    # permutations, one edge's intp index at a time, and sorts the keys in
    # place, so beyond what the oracle keeps it holds at most one row-key
    # buffer; a whole-table gather index alone (8! x 28 slots of intp)
    # would be 9 MB
    rng = np.random.default_rng(8)
    classes: list = []
    while len(classes) < 3:
        g = make_random_graph(8, 0.4, rng)
        if automorphism_count(g) == 1 and all(
                canonical_form(g) != canonical_form(h)
                for h in classes):
            classes.append(g)
    train = Dataset(graphs=tuple(
        h for g in classes
        for h in (g, Graph(permute_matrix(g.adj, rng.permutation(8))))))
    keys = len(train.graphs) * math.factorial(8) * 8  # one word per row
    tracemalloc.start()
    try:
        oracle = ScoreOracle(train, 8, cfg=EXH)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.num_templates == 120960 and oracle._V.dtype == np.uint8
    assert peak <= held + keys, (peak, held, keys)


def test_monte_carlo_build_peak_memory():
    # the draws fill one (draws, n) intp array, so the build's peak stays
    # within what the byte cap charges it (permutations, inverse, five
    # vectors a permutation, slot tables) plus the keys; a Python list of
    # one ndarray a draw would more than double it
    n, draws = 9, 20000
    star = Dataset(graphs=(star_graph(n),))
    cfg = ScoreConfig(perm_policy="monte_carlo", mc_samples=draws, seed=3)
    charged = draws * ((8 + 1) * n + 40) + 24 * n * n
    keys = draws * 8  # one word per row
    np.random.default_rng(0)  # numpy.random loaded before the trace
    tracemalloc.start()
    try:
        oracle = ScoreOracle(star, n, cfg=cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle.num_templates == n
    assert peak <= charged + keys, (peak, charged, keys)


def test_exhaustive_oracle_adds_nothing_to_the_monomial_cache():
    # the oracle builds its permutation table uncached, so the 8! table of a
    # sample-wide run is freed with the build
    before = polynomials._cached_assignments.cache_info()
    assert ScoreOracle(small_dataset(7, 2, 5), 7, cfg=EXH).num_templates > 1
    assert polynomials._cached_assignments.cache_info() == before


def log_density_cases():
    rng = np.random.default_rng(23)
    shipped = diffusion.FLOAT_TABLE_BYTES_CAP
    # ties: at W = 0 the 5 star templates share the largest logit, above
    # the 60 path templates
    path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    yield pytest.param(Dataset(graphs=(star_graph(5), star_graph(5), path)), 5,
                       300, shipped, id="ties")
    yield pytest.param(Dataset(graphs=(complete_graph(4),)), 4, 20, shipped,
                       id="one-template")
    graphs = tuple(make_random_graph(6, 0.5, rng) for _ in range(3))
    yield pytest.param(Dataset(graphs=graphs), 6, 300, shipped, id="n6")
    # sample-wide's n, with 70,560 templates (15.8 MB as float64), and the
    # same table held as bytes
    graphs = tuple(make_random_graph(8, 0.4, rng) for _ in range(3))
    yield pytest.param(Dataset(graphs=graphs), 8, 60, shipped, id="wide")
    yield pytest.param(Dataset(graphs=graphs), 8, 60, 0, id="wide-bytes")


@pytest.fixture
def byte_table(monkeypatch):
    """Every template table held as its 0/1 bytes, however small."""
    monkeypatch.setattr(diffusion, "FLOAT_TABLE_BYTES_CAP", 0)


@pytest.mark.parametrize("dataset,n,queries,float_cap", list(log_density_cases()))
def test_log_density_matches_scipy_logsumexp_bit_for_bit(dataset, n, queries,
                                                         float_cap, monkeypatch):
    # scipy is a test-only witness: the oracle's own log-sum-exp must give
    # the bits of scipy's, which log_density returned before; a plain sum of
    # exp(x - max), or the same terms summed in another order, differs from
    # it in the last bit on a few percent of these queries
    pytest.importorskip("scipy", minversion="1.17", exc_type=ImportError)
    from scipy.special import logsumexp

    monkeypatch.setattr(diffusion, "FLOAT_TABLE_BYTES_CAP", float_cap)
    oracle = ScoreOracle(dataset, n, cfg=EXH)
    assert oracle._V.dtype == (np.uint8 if float_cap == 0 else np.float64)
    rng = np.random.default_rng(n)
    spread = 0.0
    for query in range(queries):
        # the first queries are W = 0, where isomorphic templates tie
        scale = rng.uniform(0.0, 3.0) if query >= 3 else 0.0
        t = (0.01, 0.3, 1.0)[query] if query < 3 else rng.uniform(0.01, 1.0)
        W = scale * random_symmetric(n, rng)
        w = upper_vector(W)
        alpha, beta = oracle._alpha_beta(t)
        logits = oracle._logits(w, alpha, beta)
        spread = max(spread, float(logits.max() - logits.min()))
        want = (float(logsumexp(logits)) - oracle._log_total
                - float(np.einsum("e,e->", w, w, optimize=False)) / (2.0 * beta * beta)
                - oracle.num_edge_slots * (math.log(beta) + 0.5 * math.log(2.0 * math.pi)))
        assert oracle.log_density(W, t) == want, (query, scale, t)
    assert spread > 300.0 or oracle.num_templates == 1


def test_log_sum_exp_of_a_non_finite_maximum_is_that_maximum():
    # as with scipy's logsumexp; numpy warns of the inf - inf on the way
    for x, want in (([np.inf, 1.0], np.inf), ([-np.inf, -np.inf], -np.inf),
                    ([1.0, np.nan], np.nan)):
        with np.errstate(all="ignore"):
            got = diffusion._log_sum_exp(np.array(x))
        assert got == want or (np.isnan(got) and np.isnan(want))


def test_oracle_byte_cap(monkeypatch):
    # 50 random 9-node graphs under 20 Monte Carlo permutations, whose 1,000
    # rows of 36 slots are all distinct: 20 x ((8 + 1) x 9 + 40) + 24 x 81
    # = 4,364 bytes of permutations, one-byte inverse, five per-permutation
    # vectors and slot tables; 1,000 one-word keys x 8 = 8,000 bytes;
    # 1,000 templates x 36 slots = 36,000 bytes of 0/1 table
    rng = np.random.default_rng(9)
    wide = Dataset(graphs=tuple(make_random_graph(9, 0.5, rng)
                                for _ in range(50)))
    twenty = ScoreConfig(perm_policy="monte_carlo", mc_samples=20)
    for cap, what in ((4363, "permutations"), (4364, "row keys"),
                      (7999, "row keys"), (8000, "template table"),
                      (35999, "template table")):
        monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", cap)
        with pytest.raises(CapacityError, match=what):
            ScoreOracle(wide, 9, cfg=twenty)
    monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", 36000)
    assert ScoreOracle(wide, 9, cfg=twenty).num_templates == 1000
    # one graph of each of the 11 isomorphism classes on 4 nodes
    classes = [[], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)],
               [(0, 1), (1, 2), (0, 2)], [(0, 1), (0, 2), (0, 3)],
               [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 3), (0, 3)],
               [(0, 1), (1, 2), (0, 2), (2, 3)],
               [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
               [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    every = Dataset(graphs=tuple(Graph.from_edges(4, e) for e in classes))
    # at the shipped cap, 4 nodes charge (8 + 1) x 4 + 40 = 76 bytes a draw
    # plus 384: up to 14,128,176 draws fit, and only the Monte Carlo cap
    # refuses them; one more is refused by its bytes first. Neither draws a
    # permutation
    monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", 2**30)
    for draws, what in ((14128176, "Monte Carlo"), (14128177, "permutations")):
        many = ScoreConfig(perm_policy="monte_carlo", mc_samples=draws)
        with pytest.raises(CapacityError, match=what):
            ScoreOracle(every, 4, cfg=many)


def test_oracle_mc_samples_cap(monkeypatch):
    paths = Dataset(graphs=(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),))
    assert diffusion.MC_SAMPLES_CAP == 10**6
    with monkeypatch.context() as m:
        # the boundary, at a small cap: at it the build runs, one past it not
        m.setattr(diffusion, "MC_SAMPLES_CAP", 5)
        at_cap = ScoreConfig(perm_policy="monte_carlo", mc_samples=5)
        assert ScoreOracle(paths, 4, cfg=at_cap).num_templates >= 1
        with pytest.raises(CapacityError, match="Monte Carlo"):
            ScoreOracle(paths, 4, cfg=ScoreConfig(perm_policy="monte_carlo",
                                                  mc_samples=6))

    # past the shipped cap the build is refused before any permutation is
    # drawn; the exhaustive policy never reads mc_samples
    def no_draws(*args, **kwargs):
        raise AssertionError("permutations drawn past the cap")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    over = ScoreConfig(perm_policy="monte_carlo", mc_samples=10**6 + 1)
    with pytest.raises(CapacityError, match="Monte Carlo"):
        ScoreOracle(paths, 4, cfg=over)
    exhaustive = ScoreConfig(perm_policy="exhaustive", mc_samples=10**6 + 1)
    assert ScoreOracle(paths, 4, cfg=exhaustive).num_templates == 12


def test_table_is_float64_up_to_the_cap(monkeypatch):
    # 12 paths on 4 nodes x 6 slots: 72 entries, 576 bytes as float64
    paths = Dataset(graphs=(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),))
    assert diffusion.FLOAT_TABLE_BYTES_CAP == 2**24
    tables = []
    for cap, dtype in ((575, np.uint8), (576, np.float64)):
        monkeypatch.setattr(diffusion, "FLOAT_TABLE_BYTES_CAP", cap)
        oracle = ScoreOracle(paths, 4, cfg=EXH)
        assert oracle._V.dtype == dtype and oracle._V.shape == (12, 6)
        assert oracle._ssq.dtype == np.float64
        tables.append((oracle._V, oracle._logmult, oracle._ssq))
    assert all(np.array_equal(a, b) for a, b in zip(*tables))


@pytest.mark.parametrize("V,E", [(2, 1), (12, 6), (64, 6), (1000, 10),
                                 (2520, 21), (16000, 14), (9000, 28)])
def test_einsum_gives_byte_and_float_tables_the_same_bits(V, E):
    # einsum casts a uint8 operand to float64 through 8,192-element buffers;
    # the oracle's contractions must give the float64 table's bits on both
    # sides of that size. An E-slot table has at most 2^E distinct rows, so
    # V <= 2^E here: at E = 1 and V > 8,192 the batched posterior mean does
    # sum in another order
    rng = np.random.default_rng(V * E)
    T = (rng.random((V, E)) < 0.5).astype(np.uint8)
    F = T.astype(np.float64)
    for batch in [()] + [(b,) for b in range(1, 9)]:
        w = rng.standard_normal(batch + (E,))
        x = rng.standard_normal(batch + (V,))
        pairs = [[np.einsum("ve,...e->...v", t, w, optimize=False) for t in (T, F)],
                 [np.einsum("...v,ve->...e", x, t, optimize=False) for t in (T, F)]]
        if batch:  # the series numerator's spelling
            pairs.append([np.einsum("bv,ve->be", x, t, optimize=False)
                          for t in (T, F)])
        for got, want in pairs:
            assert got.dtype == np.float64 and np.array_equal(got, want), batch


def test_oracle_input_errors():
    ds = small_dataset(4, 2, 0)
    with pytest.raises(InputError):
        ScoreOracle(ds, 0)
    with pytest.raises(InputError):
        ScoreOracle(ds, 5)  # no graphs of that size
    with pytest.raises(CapacityError):
        ScoreOracle(small_dataset(9, 1, 0), 9, cfg=EXH)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    with pytest.raises(InputError):
        oracle.score(np.zeros((3, 3)), 0.5)


def test_score_matches_finite_difference():
    ds = small_dataset(4, 2, 7)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    rng = np.random.default_rng(8)
    W = random_symmetric(4, rng)
    t = 0.4
    S = oracle.score(W, t)
    h = 1e-5
    for i, j in ((0, 1), (1, 3)):
        up = W.copy()
        up[i, j] += h
        up[j, i] += h
        down = W.copy()
        down[i, j] -= h
        down[j, i] -= h
        fd = (oracle.log_density(up, t) - oracle.log_density(down, t)) / (2 * h)
        assert S[i, j] == pytest.approx(fd, rel=1e-6)


def test_in_place_step_matches_the_expression_bit_for_bit():
    # the reference is the step's arithmetic written out of place; the
    # oracle computes it in place, and sample bytes depend on every bit
    oracle = ScoreOracle(small_dataset(6, 4, 11), 6, cfg=EXH)
    rng = np.random.default_rng(12)
    V = oracle._V.astype(np.float64)
    for t in (1.0, 0.5, 0.05, 0.002):
        w = 3.0 * rng.standard_normal(oracle.num_edge_slots)
        alpha, beta = oracle._alpha_beta(t)
        ip = np.einsum("ve,e->v", V, w, optimize=False)
        logits = oracle._logmult + (alpha * ip - 0.5 * alpha * alpha
                                    * oracle._ssq) / (beta * beta)
        weights = np.exp(logits - logits.max())
        weights = weights / weights.sum()
        mean = np.einsum("v,ve->e", weights, V, optimize=False)
        b2 = beta * beta
        assert np.array_equal(oracle._logits(w, alpha, beta), logits)
        assert np.array_equal(oracle._score_upper(w, t),
                              -w / b2 + (alpha / b2) * mean)


def test_in_place_step_on_the_byte_table(byte_table):
    test_in_place_step_matches_the_expression_bit_for_bit()


def test_batched_rows_match_one_row_calls():
    # the sampler steps (B, E) batches; each row must get the bits of the
    # one-row calls, on both sides of einsum's 8,192-element buffer (past
    # it, a batched "bv->b" sum does differ from "v->")
    rng = np.random.default_rng(31)
    for V, E in ((12, 6), (2520, 21), (9000, 28)):
        T = (rng.random((V, E)) < 0.5).astype(np.float64)
        w = rng.standard_normal((4, E))
        x = rng.standard_normal((4, V))
        ip = np.einsum("ve,...e->...v", T, w, optimize=False)
        mean = np.einsum("...v,ve->...e", x, T, optimize=False)
        sums = x.sum(axis=-1, keepdims=True)
        for b in range(4):
            assert np.array_equal(ip[b], np.einsum("ve,e->v", T, w[b], optimize=False))
            assert np.array_equal(mean[b], np.einsum("v,ve->e", x[b], T, optimize=False))
            assert sums[b, 0] == x[b].sum()
    oracle = ScoreOracle(small_dataset(6, 4, 11), 6, cfg=EXH)
    w = 0.5 * rng.standard_normal((5, oracle.num_edge_slots))
    for t in (1.0, 0.3, 0.02):
        scores = oracle._score_upper(w, t)
        for b in range(5):
            assert np.array_equal(scores[b], oracle._score_upper(w[b], t))
    series, failure = oracle._series_upper(w, 0.9, 12)
    assert failure is None
    for b in range(5):
        one, failure = oracle._series_upper(w[b:b + 1], 0.9, 12)
        assert failure is None and np.array_equal(series[b], one[0])


def test_batched_rows_on_the_byte_table(byte_table):
    test_batched_rows_match_one_row_calls()


def test_reverse_sample_batches_match_single_samples(monkeypatch):
    oracle = ScoreOracle(small_dataset(5, 3, 2), 5,
                         cfg=ScoreConfig(perm_policy="exhaustive", seed=3))

    def sample(indices):
        trajectories = []
        graphs = oracle.reverse_sample(15, indices, trajectories=trajectories)
        return graphs, [[(t, W.tobytes()) for t, W in states]
                        for states in trajectories]

    singles = [sample([i]) for i in range(5)]
    want = ([g for graphs, _ in singles for g in graphs],
            [traj for _, trajs in singles for traj in trajs])
    assert sample(range(5)) == want
    # one and two rows per batch
    for rows in (1, 2):
        monkeypatch.setattr(diffusion, "BATCH_BYTES_CAP",
                            rows * 8 * oracle.num_templates)
        assert sample(range(5)) == want


def test_reverse_sample_batches_on_the_byte_table(byte_table, monkeypatch):
    test_reverse_sample_batches_match_single_samples(monkeypatch)


def test_density_invariance_and_score_equivariance():
    ds = small_dataset(4, 3, 1)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    rng = np.random.default_rng(2)
    W = random_symmetric(4, rng)
    t = 0.6
    ld = oracle.log_density(W, t)
    S = oracle.score(W, t)
    for perm in itertools.permutations(range(4)):
        Wp = permute_matrix(W, perm)
        assert oracle.log_density(Wp, t) == pytest.approx(ld, abs=1e-10)
        assert np.abs(oracle.score(Wp, t)
                      - permute_matrix(S, perm)).max() < 1e-9


def test_series_matches_direct_in_convergent_regime():
    ds = small_dataset(4, 2, 3)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    rng = np.random.default_rng(4)
    t = 0.7
    for _ in range(5):
        W = random_symmetric(4, rng)
        assert oracle.series_ratio(W, t) < 3.0
        direct = oracle.score(W, t)
        approx = oracle.score_series(W, t, order=12)
        rel = np.linalg.norm(approx - direct) / np.linalg.norm(direct)
        assert rel < 1e-3
        better = oracle.score_series(W, t, order=16)
        rel16 = np.linalg.norm(better - direct) / np.linalg.norm(direct)
        assert rel16 <= rel + 1e-9


def test_series_refuses_negative_order():
    oracle = ScoreOracle(small_dataset(4, 2, 3), 4, cfg=EXH)
    W = random_symmetric(4, np.random.default_rng(0))
    with pytest.raises(InputError):
        oracle.score_series(W, 0.7, order=-1)


def test_series_divergence_raises_with_ratio():
    ds = small_dataset(4, 2, 3)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    W = symmetric_from_upper(np.full(6, 5.0), 4)
    # near t_min the exponent argument alpha/beta^2 * <v, w> blows up
    with pytest.raises(SeriesDivergenceError) as err:
        oracle.score_series(W, 1e-3, order=12)
    assert err.value.ratio is not None
    assert err.value.ratio > diffusion.SERIES_RATIO_MAX
    assert oracle.series_ratio(W, 1e-3) == pytest.approx(err.value.ratio)


def test_beta_floor_refuses_degenerate_noise():
    sched = NoiseSchedule(t_min=1e-12)
    ds = small_dataset(3, 1, 0)
    oracle = ScoreOracle(ds, 3, cfg=EXH, sched=sched)
    W = random_symmetric(3, np.random.default_rng(0))
    with pytest.raises(NumericalRegimeError):
        oracle.score(W, 1e-12)
    with pytest.raises(NumericalRegimeError):
        oracle.log_density(W, 1e-12)


def test_monte_carlo_policy():
    ds = small_dataset(9, 2, 6)
    cfg = ScoreConfig(perm_policy="auto", mc_samples=60, seed=5)
    oracle = ScoreOracle(ds, 9, cfg=cfg)
    assert oracle.policy == "monte_carlo"
    again = ScoreOracle(ds, 9, cfg=cfg)
    W = random_symmetric(9, np.random.default_rng(1))
    assert np.array_equal(oracle.score(W, 0.5), again.score(W, 0.5))
    # a different seed draws different permutations
    other = ScoreOracle(ds, 9, cfg=ScoreConfig(perm_policy="monte_carlo",
                                               mc_samples=60, seed=6))
    assert not np.array_equal(oracle.score(W, 0.5), other.score(W, 0.5))


def test_reverse_sample_contracts():
    ds = small_dataset(4, 2, 0)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    with pytest.raises(InputError):
        oracle.reverse_sample(9, [0])
    with pytest.raises(InputError):
        oracle.reverse_sample(20, [0], score_mode="guess")
    # no entry exceeds nan or inf, so either would quantize to no edges
    for threshold in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="threshold"):
            oracle.reverse_sample(20, [0], threshold=threshold)
    # a sample's stream is [seed, idx], which needs idx >= 0
    with pytest.raises(InputError, match="sample indices"):
        oracle.reverse_sample(20, [0, -1])
    assert "rngs" not in inspect.signature(ScoreOracle.reverse_sample).parameters


def test_reverse_sample_determinism_and_trajectory():
    ds = small_dataset(4, 2, 0)
    oracle = ScoreOracle(ds, 4, cfg=ScoreConfig(perm_policy="exhaustive", seed=3))
    trajectories = []
    (g1,) = oracle.reverse_sample(12, [0], trajectories=trajectories)
    (g2,) = oracle.reverse_sample(12, [0])
    (traj,) = trajectories
    assert g1 == g2
    assert g1.n == 4
    assert len(traj) == 13  # one state per step plus the final one
    ts = [t for t, _ in traj]
    assert ts[0] == pytest.approx(1.0)
    assert ts[-1] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(ts, ts[1:]))
    for _, W in traj:
        assert W.shape == (4, 4)
        assert np.array_equal(W, W.T)
    # each sample's stream comes from the config seed, deterministically
    assert oracle.reverse_sample(12, range(3)) == oracle.reverse_sample(12, range(3))
