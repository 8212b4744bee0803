"""Noise schedule, exact-score oracle, series score, reverse sampler."""

import itertools
import math

import numpy as np
import pytest

from motifdiff import diffusion
from motifdiff.diffusion import (NoiseSchedule, ScoreConfig, ScoreOracle,
                                 permute_matrix, perturb, quantize,
                                 random_symmetric, symmetric_from_upper,
                                 upper_vector, validate_symmetric)
from motifdiff.errors import (CapacityError, InputError, NumericalRegimeError,
                              SeriesDivergenceError)
from motifdiff.graphs import Dataset, Graph

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
    with pytest.raises(InputError):
        ScoreConfig(series_ratio_max=0.0)


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
    table = diffusion._permutation_table(n)
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


def test_oracle_byte_cap(monkeypatch):
    # one graph of each of the 11 isomorphism classes on 4 nodes: 24
    # permutations x (8 x 4 + 9 x 6) = 2,064 bytes of permutations, flat
    # index and rows; 11 x 24 one-word keys x 8 = 2,112 bytes; all 64
    # labeled graphs as templates x 6 slots x 8 = 3,072 bytes of table
    classes = [[], [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (2, 3)],
               [(0, 1), (1, 2), (0, 2)], [(0, 1), (0, 2), (0, 3)],
               [(0, 1), (1, 2), (2, 3)], [(0, 1), (1, 2), (2, 3), (0, 3)],
               [(0, 1), (1, 2), (0, 2), (2, 3)],
               [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
               [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    every = Dataset(graphs=tuple(Graph.from_edges(4, e) for e in classes))
    for cap, what in ((2063, "gather"), (2064, "row keys"), (2111, "row keys"),
                      (2112, "template table"), (3071, "template table")):
        monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", cap)
        with pytest.raises(CapacityError, match=what):
            ScoreOracle(every, 4, cfg=EXH)
    monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", 3072)
    assert ScoreOracle(every, 4, cfg=EXH).num_templates == 64
    # the flat index and one graph's rows of 1.5e7 permutations fit
    # (1.5e7 x 54 bytes), but not with the 1.5e7 x 4 x 8 bytes of
    # permutations beside them; refused before the Monte Carlo cap
    monkeypatch.setattr(diffusion, "ORACLE_BYTES_CAP", 2**30)
    many = ScoreConfig(perm_policy="monte_carlo", mc_samples=15 * 10**6)
    with pytest.raises(CapacityError, match="gather"):
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
    for t in (1.0, 0.5, 0.05, 0.002):
        w = 3.0 * rng.standard_normal(oracle.num_edge_slots)
        alpha, beta = oracle._alpha_beta(t)
        ip = np.einsum("ve,e->v", oracle._V, w, optimize=False)
        logits = oracle._logmult + (alpha * ip - 0.5 * alpha * alpha
                                    * oracle._ssq) / (beta * beta)
        weights = np.exp(logits - logits.max())
        weights = weights / weights.sum()
        mean = np.einsum("v,ve->e", weights, oracle._V, optimize=False)
        b2 = beta * beta
        assert np.array_equal(oracle._logits(w, alpha, beta), logits)
        assert np.array_equal(oracle._score_upper(w, t),
                              -w / b2 + (alpha / b2) * mean)


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


def test_series_divergence_raises_with_ratio():
    ds = small_dataset(4, 2, 3)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    W = symmetric_from_upper(np.full(6, 5.0), 4)
    # near t_min the exponent argument alpha/beta^2 * <v, w> blows up
    with pytest.raises(SeriesDivergenceError) as err:
        oracle.score_series(W, 1e-3, order=12)
    assert err.value.ratio is not None
    assert err.value.ratio > oracle.cfg.series_ratio_max
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
        oracle.reverse_sample(9)
    with pytest.raises(InputError):
        oracle.reverse_sample(20, score_mode="guess")


def test_reverse_sample_determinism_and_trajectory():
    ds = small_dataset(4, 2, 0)
    oracle = ScoreOracle(ds, 4, cfg=EXH)
    traj = []
    g1 = oracle.reverse_sample(12, rng=np.random.default_rng(3),
                               trajectory=traj)
    g2 = oracle.reverse_sample(12, rng=np.random.default_rng(3))
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
    # omitted rng falls back to the config seed, deterministically
    assert oracle.reverse_sample(12) == oracle.reverse_sample(12)
