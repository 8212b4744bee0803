"""Acceptance gate.

One test per shipped acceptance criterion, each run at its stated tolerance
and budget. Every test prints a single PASS/FAIL line with the measured
numbers (visible with -s; pytest -v adds its own per-criterion verdict).
"""

import time
from fractions import Fraction

import numpy as np

from motifdiff.cli import main
from motifdiff.counting import count_subgraphs
from motifdiff.datagen import plant_pattern_dataset
from motifdiff.diffusion import ScoreConfig, ScoreOracle
from motifdiff.evaluation import evaluate
from motifdiff.graphs import Dataset, Graph
from motifdiff.patterns import PATTERN_LIBRARY
from motifdiff.verification import (run_basis, run_count_identity,
                                    run_equivariance, run_finitediff,
                                    run_series)

from conftest import complete_graph, make_random_graph, naive_count_oracle


def _conclude(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_matcher_agrees_with_bruteforce_oracle():
    # 500 random graphs (n <= 8, edge prob 0.3) x all 13 patterns,
    # zero mismatches, within a 2-minute budget
    start = time.monotonic()
    rng = np.random.default_rng(20240801)
    patterns = list(PATTERN_LIBRARY.values())
    checks = 0
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        g = make_random_graph(n, 0.3, rng)
        for p in patterns:
            checks += 1
            if count_subgraphs(g, p) != naive_count_oracle(g, p):
                mismatches += 1
    elapsed = time.monotonic() - start
    _conclude(1, mismatches == 0 and elapsed <= 120.0,
              f"{checks} matcher/oracle comparisons, {mismatches} mismatches,"
              f" {elapsed:.1f}s (budget 120s)")


def test_criterion_2_scaled_integer_count_identity():
    # raw injective sum == |Aut| * count, exact integers, 200 graphs n <= 6
    rep = run_count_identity(n=6, trials=200, seed=0)
    _conclude(2, rep["passed"] and rep["tolerance"] == 0.0,
              f"{rep['checks']} exact identities over"
              f" {len(rep['params']['patterns'])} patterns,"
              f" {rep['failures']} failures")


def test_criterion_3_invariance_and_equivariance():
    # all permutations, n in {3,4,5}, relative deviation <= 1e-12
    rep = run_equivariance(trials=2, tolerance=1e-12)
    assert rep["params"]["n_values"] == [3, 4, 5]
    _conclude(3, rep["passed"],
              f"{rep['checks']} permutation checks, max relative deviation"
              f" {rep['max_error']:.3g} (tolerance 1e-12)")


def test_criterion_4_score_matches_log_density_gradient():
    # central finite differences, n in {3,4}, datasets of 1..3 graphs,
    # t in {0.2, 0.5, 0.9}, relative error <= 1e-4; this check is also the
    # arbiter for the score's sign convention
    rep = run_finitediff(tolerance=1e-4, step=1e-5)
    _conclude(4, rep["passed"],
              f"{rep['checks']} entries, max relative error"
              f" {rep['max_error']:.3g} (tolerance 1e-4)")


def test_criterion_5_series_decomposition():
    # (a) moment form vs basis-polynomial form, n <= 4, order k <= 3,
    #     discrepancy <= 1e-9
    # (b) order-12 truncated series vs direct score, 10 random inputs at
    #     n = 4 in the convergent regime, relative error <= 1e-3
    rep_a = run_basis(k=3, tolerance=1e-9)
    rep_b = run_series(k=12, trials=10, tolerance=1e-3)
    assert rep_a["params"]["n_values"] == [3, 4]
    assert rep_a["params"]["orders"] == [0, 1, 2, 3]
    _conclude(5, rep_a["passed"] and rep_b["passed"],
              f"term identity max discrepancy {rep_a['max_error']:.3g}"
              f" (tolerance 1e-9); series max relative error"
              f" {rep_b['max_error']:.3g} (tolerance 1e-3, worst ratio"
              f" {rep_b['params']['max_series_ratio']:.2f})")


def test_criterion_6_end_to_end_substructure_preservation():
    # 50 planted training graphs per pattern, 100 reverse-diffusion samples
    # (direct score, exhaustive permutations, 500 steps), TV <= 0.10 per
    # pattern, all within a 15-minute budget
    start = time.monotonic()
    cfg = ScoreConfig(perm_policy="exhaustive")
    tvs = {}
    for name in ("c3", "c4", "c5", "c6"):
        pattern = PATTERN_LIBRARY[name]
        n = pattern.k + 1  # one pendant node keeps the planted count at 1
        train = plant_pattern_dataset(pattern, n=n, count=50, seed=100)
        oracle = ScoreOracle(train, n, cfg=cfg)
        rngs = [np.random.default_rng([2024, idx]) for idx in range(100)]
        graphs = oracle.reverse_sample(500, rngs=rngs)
        report = evaluate(train, Dataset(graphs=tuple(graphs)), [pattern])
        tvs[name] = report.per_pattern[name].tv
    elapsed = time.monotonic() - start
    ok = all(tv <= 0.10 for tv in tvs.values()) and elapsed <= 900.0
    detail = ", ".join(f"TV({k})={v:.3f}" for k, v in sorted(tvs.items()))
    _conclude(6, ok, f"{detail}; {elapsed:.0f}s (limits: 0.10 per pattern,"
                     f" 900s total)")


def test_criterion_7_point_mass_tv_is_exact():
    # with a point-mass training histogram the reported TV must equal the
    # fraction of generated graphs with a different count, bit for bit
    one_tri = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    four_tri = complete_graph(4)
    no_tri = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    train = Dataset(graphs=(one_tri,) * 20)
    c3 = PATTERN_LIBRARY["c3"]

    gen_a = Dataset(graphs=(one_tri,) * 7 + (four_tri, four_tri, no_tri))
    tv_a = evaluate(train, gen_a, [c3]).per_pattern["c3"].tv
    gen_b = Dataset(graphs=(one_tri,) * 64 + (four_tri,) * 18 + (no_tri,) * 15)
    tv_b = evaluate(train, gen_b, [c3]).per_pattern["c3"].tv

    ok = tv_a == 0.30 and tv_b == float(Fraction(33, 97))
    _conclude(7, ok, f"tv {tv_a!r} == 0.3 exactly and"
                     f" tv {tv_b!r} == 33/97 exactly")


def test_criterion_8_cli_outputs_are_byte_identical(tmp_path):
    # every subcommand, two runs, thread counts 1 and 2: identical bytes
    train = tmp_path / "train.jsonl"
    gen = tmp_path / "gen.jsonl"
    traj = tmp_path / "traj.jsonl"
    count_out = tmp_path / "count.json"
    eval_out = tmp_path / "eval.json"
    verify_out = tmp_path / "verify.json"
    outputs = (train, count_out, gen, traj, eval_out, verify_out)
    snapshots = []
    codes = []
    for _ in range(2):
        for threads in ("1", "2"):
            codes.extend([
                main(["gen-data", "--pattern", "c4", "--n", "5", "--count",
                      "6", "--seed", "3", "--out", str(train)]),
                main(["count", "--in", str(train), "--patterns", "c3,c4,l5",
                      "--threads", threads, "--out", str(count_out)]),
                main(["sample", "--train", str(train), "--num-samples", "4",
                      "--steps", "60", "--seed", "5", "--threads", threads,
                      "--trajectories", str(traj), "--out", str(gen)]),
                main(["eval", "--train", str(train), "--gen", str(gen),
                      "--patterns", "c3,c4", "--threads", threads,
                      "--out", str(eval_out)]),
                main(["verify", "--suite", "basis", "--n", "3",
                      "--out", str(verify_out)]),
            ])
            snapshots.append(tuple(p.read_bytes() for p in outputs))
    ok = (all(rc == 0 for rc in codes)
          and all(s == snapshots[0] for s in snapshots[1:]))
    _conclude(8, ok, "5 subcommands x 2 runs x threads {1,2}:"
                     " all output files byte-identical")
