"""CLI subcommands, exit codes, and output determinism."""

import json
import os
import subprocess
import sys

import pytest

from motifdiff import cli, counting, diffusion, graphs
from motifdiff.cli import _default_threads, build_parser, main
from motifdiff.counting import count_subgraphs
from motifdiff.dataio import read_dataset, write_dataset
from motifdiff.diffusion import NoiseSchedule, ScoreConfig, ScoreOracle
from motifdiff.errors import SeriesDivergenceError
from motifdiff.graphs import Dataset, Graph
from motifdiff.patterns import get_pattern

from conftest import src_env


def run(argv):
    return main(argv)


@pytest.fixture()
def train_path(tmp_path):
    path = tmp_path / "train.jsonl"
    rc = run(["gen-data", "--pattern", "c3", "--n", "4", "--count", "6",
              "--seed", "7", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_count_report(train_path, tmp_path, capsys):
    out = tmp_path / "counts.json"
    rc = run(["count", "--in", train_path, "--patterns", "c3,c4",
              "--threads", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n_graphs"] == 6
    assert report["config"] == {"input": train_path, "patterns": "c3,c4"}
    c3 = report["patterns"]["c3"]
    assert c3["per_graph"] == [1] * 6
    assert c3["histogram"]["mass"] == {"1": 1.0}
    assert c3["histogram"]["sample_size"] == 6
    err = capsys.readouterr().err
    assert "counted 2 pattern(s)" in err


def test_count_error_paths(train_path, capsys):
    assert run(["count", "--in", train_path, "--patterns", "c99"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["count", "--in", train_path, "--patterns", " , "]) == 2
    assert run(["count", "--in", train_path, "--patterns", "c3,c3"]) == 2


def test_each_command_compiles_its_patterns_once(train_path, tmp_path,
                                                 monkeypatch):
    # each in-process command starts with no plan and compiles each pattern
    # once, as its own process would; the plans then outlive it for library
    # calls
    calls = []
    real = counting.automorphism_count
    monkeypatch.setattr(counting, "automorphism_count",
                        lambda g: calls.append(g) or real(g))
    names = ("c3", "c4", "l5")
    for _ in range(2):
        calls.clear()
        assert run(["count", "--in", train_path, "--patterns", ",".join(names),
                    "--threads", "1", "--out", str(tmp_path / "c.json")]) == 0
        assert calls == [get_pattern(name).graph for name in names]
    calls.clear()
    assert count_subgraphs(Graph.from_edges(4, []), get_pattern("c4")) == 0
    assert calls == []


def test_count_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert run(["count", "--in", missing, "--patterns", "c3"]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_missing_train_file_exits_2(train_path, tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")
    assert run(["eval", "--train", missing, "--gen", train_path,
                "--patterns", "c3"]) == 2
    assert run(["sample", "--train", missing, "--num-samples", "1",
                "--out", str(tmp_path / "g.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: cannot read") == 2


def test_non_utf8_input_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(b'{"meta": {"note": "caf\xe9"}}\n{"n": 2, "edges": [[1, 2]]}\n')
    assert run(["count", "--in", str(latin1), "--patterns", "c3"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_out_in_missing_directory_exits_2_before_work(train_path, tmp_path,
                                                        capsys):
    out = tmp_path / "no_such_dir" / "counts.json"
    assert run(["count", "--in", train_path, "--patterns", "c3",
                "--threads", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: output directory" in err
    assert "counted" not in err  # refused before counting


def _no_oracle(self, *args, **kwargs):
    raise AssertionError("the oracle was built before the input was checked")


def _no_read(path):
    raise AssertionError(f"{path} was read before the flags were checked")


@pytest.mark.parametrize("flag, argv", [
    ("--trajectories", ["sample", "--train", "train.jsonl", "--num-samples", "2",
                        "--steps", "10", "--out", "g.jsonl",
                        "--trajectories", ""]),
    ("--out", ["sample", "--train", "train.jsonl", "--num-samples", "2",
               "--steps", "10", "--out", ""]),
    ("--out", ["gen-data", "--pattern", "c3", "--n", "4", "--count", "2",
               "--out", ""]),
    ("--out", ["count", "--in", "train.jsonl", "--patterns", "c3", "--out", ""]),
    ("--out", ["eval", "--train", "train.jsonl", "--gen", "train.jsonl",
               "--out", ""]),
    ("--out", ["verify", "--suite", "basis", "--n", "3", "--out", ""])],
    ids=lambda v: v[0] if isinstance(v, list) else v)
def test_empty_output_path_exits_2_before_work(flag, argv, train_path,
                                               tmp_path, capsys, monkeypatch):
    # an empty path names no file: before, sample wrote --out and then
    # failed on "", and count, eval and verify wrote the report to stdout
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "read_dataset", _no_read)
    before = sorted(os.listdir(tmp_path))
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} names no file\n")
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("flag", ["--out", "--trajectories"])
def test_sample_output_that_is_a_directory_exits_2_before_work(
        flag, train_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ScoreOracle, "__init__", _no_oracle)
    paths = {"--out": str(tmp_path / "g.jsonl"),
             "--trajectories": str(tmp_path / "traj.jsonl")}
    paths[flag] = str(tmp_path)
    assert run(["sample", "--train", train_path, "--num-samples", "2",
                "--steps", "10", "--threads", "1",
                "--out", paths["--out"],
                "--trajectories", paths["--trajectories"]]) == 2
    assert capsys.readouterr().err == f"error: output path {tmp_path} is a directory\n"


def test_sample_out_and_trajectories_on_one_file_exit_2_before_work(
        train_path, tmp_path, capsys, monkeypatch):
    # the trajectory lines would overwrite the samples the run reports
    monkeypatch.setattr(ScoreOracle, "__init__", _no_oracle)
    out = tmp_path / "g.jsonl"
    assert run(["sample", "--train", train_path, "--num-samples", "2",
                "--steps", "10", "--threads", "1", "--out", str(out),
                "--trajectories", str(tmp_path / "." / "g.jsonl")]) == 2
    assert "error: --out and --trajectories both name" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_deterministic_bytes(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        rc = run(["gen-data", "--pattern", "c4", "--n", "6", "--count", "5",
                  "--seed", "11", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["gen-data", "--pattern", "c4", "--n", "6", "--count", "0",
                "--out", str(a)]) == 2


def test_gen_data_refuses_hosts_its_reader_refuses(tmp_path, capsys):
    out = tmp_path / "big.jsonl"
    assert run(["gen-data", "--pattern", "c3", "--n", "1001", "--count", "1",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 1001 nodes exceeds the host cap of 1000\n")
    assert not out.exists()
    assert run(["gen-data", "--pattern", "c3", "--n", "1000", "--count", "1",
                "--out", str(out)]) == 0
    assert read_dataset(out).graphs[0].n == 1000


def test_sample_deterministic_and_trajectories(train_path, tmp_path):
    outs, trajs = [], []
    for tag in ("x", "y"):
        out = tmp_path / f"gen_{tag}.jsonl"
        traj = tmp_path / f"traj_{tag}.jsonl"
        rc = run(["sample", "--train", train_path, "--num-samples", "3",
                  "--steps", "12", "--seed", "5", "--threads", "1",
                  "--trajectories", str(traj), "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
        trajs.append(traj.read_bytes())
    assert outs[0] == outs[1]
    assert trajs[0] == trajs[1]
    ds = read_dataset(tmp_path / "gen_x.jsonl")
    assert len(ds) == 3
    assert ds.node_counts() == (4,)
    assert ds.metadata["generator"] == "reverse-diffusion"
    assert ds.metadata["steps"] == "12"
    assert "threads" not in ds.metadata  # thread count never reaches outputs
    lines = (tmp_path / "traj_x.jsonl").read_text().splitlines()
    assert len(lines) == 3 * 13  # per sample: one state per step plus final
    first = json.loads(lines[0])
    assert set(first) == {"sample", "t", "W"}
    assert first["t"] == pytest.approx(1.0)


def test_sample_builds_one_oracle_in_the_parent(train_path, tmp_path,
                                                monkeypatch):
    # the workers inherit the parent's oracle by fork and build none
    builds = tmp_path / "builds.txt"
    build = ScoreOracle.__init__

    def recording_build(self, *args, **kwargs):
        with open(builds, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        build(self, *args, **kwargs)

    monkeypatch.setattr(ScoreOracle, "__init__", recording_build)
    outs = []
    for threads in ("2", "1"):
        out = tmp_path / f"gen_{threads}.jsonl"
        traj = tmp_path / f"traj_{threads}.jsonl"
        assert run(["sample", "--train", train_path, "--num-samples", "4",
                    "--steps", "12", "--seed", "5", "--threads", threads,
                    "--trajectories", str(traj), "--out", str(out)]) == 0
        if threads == "2":
            assert builds.read_text().split() == [str(os.getpid())]
        outs.append((out.read_bytes(), traj.read_bytes()))
    assert outs[0] == outs[1]


def test_sample_batches_match_one_sample_calls(train_path, tmp_path):
    # the map hands worker k one contiguous share of the samples, stepped
    # as one batch; each sample's bytes are those of a one-sample call on
    # its own stream [seed, idx]
    files = []
    for threads in ("1", "2", "3"):
        out = tmp_path / f"gen_{threads}.jsonl"
        traj = tmp_path / f"traj_{threads}.jsonl"
        assert run(["sample", "--train", train_path, "--num-samples", "5",
                    "--steps", "12", "--seed", "5", "--threads", threads,
                    "--trajectories", str(traj), "--out", str(out)]) == 0
        files.append((out.read_bytes(), traj.read_bytes()))
    assert files[0] == files[1] == files[2]
    oracle = ScoreOracle(read_dataset(train_path), 4, cfg=ScoreConfig(seed=5))
    graphs, lines = [], []
    for idx in range(5):
        trajectories = []
        graphs += oracle.reverse_sample(12, [idx], trajectories=trajectories)
        lines += [json.dumps({"sample": idx, "t": t, "W": W.tolist()},
                             sort_keys=True) + "\n"
                  for t, W in trajectories[0]]
    assert read_dataset(tmp_path / "gen_1.jsonl").graphs == tuple(graphs)
    assert files[0][1] == "".join(lines).encode()


def test_sample_writes_the_same_bytes_from_a_byte_table(train_path, tmp_path,
                                                       monkeypatch):
    # this set's table is float64 as shipped; held as its 0/1 bytes it
    # gives the same samples and trajectories, direct and series
    def outputs():
        files = []
        for score in ("direct", "series"):
            out, traj = tmp_path / "gen.jsonl", tmp_path / "traj.jsonl"
            assert run(["sample", "--train", train_path, "--num-samples", "5",
                        "--steps", "12", "--score", score, "--t-min", "0.5",
                        "--seed", "5", "--threads", "2", "--trajectories", str(traj),
                        "--out", str(out)]) == 0
            files.append((out.read_bytes(), traj.read_bytes()))
        return files

    shipped = outputs()
    monkeypatch.setattr(diffusion, "FLOAT_TABLE_BYTES_CAP", 0)
    assert outputs() == shipped


def test_sample_divergence_reports_the_lowest_failing_sample(train_path,
                                                             tmp_path, capsys):
    # at seed 25 samples 2, 4 and 6 of 7 diverge, 4 and 6 at earlier steps
    # than 2; one worker steps all three in one batch, and at 2 and 3
    # workers the map's shares (0-2, 3-6 and 0-1, 2-3, 4-6) put sample 2 in
    # the first failing share, whose error the map raises
    oracle = ScoreOracle(read_dataset(train_path), 4,
                         cfg=ScoreConfig(seed=25),
                         sched=NoiseSchedule(t_min=0.3))
    failing = {}
    for idx in range(7):
        try:
            oracle.reverse_sample(20, [idx], "series")
        except SeriesDivergenceError as exc:
            failing[idx] = str(exc)
    assert sorted(failing) == [2, 4, 6]
    with pytest.raises(SeriesDivergenceError) as err:
        oracle.reverse_sample(20, range(7), "series")
    assert str(err.value) == failing[2]
    out = tmp_path / "g.jsonl"
    for threads in ("1", "2", "3"):
        assert run(["sample", "--train", train_path, "--num-samples", "7",
                    "--steps", "20", "--score", "series", "--t-min", "0.3",
                    "--seed", "25", "--threads", threads,
                    "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {failing[2]}\n"
        assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "9", "steps must be at least 10"),
    ("--threshold", "nan", "threshold must be finite"),
    ("--seed", "-1", "seed must be non-negative"),
    ("--beta-max", "inf", "beta_max must be finite")])
def test_sample_refuses_flags_before_the_oracle_build(flag, value, message,
                                                      train_path, tmp_path,
                                                      capsys, monkeypatch):
    monkeypatch.setattr(ScoreOracle, "__init__", _no_oracle)
    out = tmp_path / "g.jsonl"
    assert run(["sample", "--train", train_path, "--num-samples", "2",
                "--threads", "1", flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--pattern", "c3", "--n", "4", "--count", "2"],
    ["sample", "--num-samples", "2", "--steps", "10", "--threads", "1"],
    ["verify", "--suite", "count-identity"],
    ["verify", "--suite", "all"]])
def test_negative_seed_exits_2(argv, train_path, tmp_path, capsys):
    if argv[0] == "sample":
        argv = argv + ["--train", train_path]
    out = tmp_path / "out.json"
    assert run(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "error: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_sample_requires_n_for_mixed_sizes(tmp_path):
    mixed = tmp_path / "mixed.jsonl"
    write_dataset(Dataset(graphs=(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]),
                                  Graph.from_edges(4, [(0, 1)]))), mixed)
    rc = run(["sample", "--train", str(mixed), "--num-samples", "1",
              "--steps", "10", "--out", str(tmp_path / "g.jsonl")])
    assert rc == 2
    rc = run(["sample", "--train", str(mixed), "--n", "3", "--num-samples", "1",
              "--steps", "10", "--threads", "1",
              "--out", str(tmp_path / "g.jsonl")])
    assert rc == 0


def test_sample_series_divergence_exits_cleanly(train_path, tmp_path, capsys,
                                               monkeypatch):
    out = str(tmp_path / "g.jsonl")
    # beyond its convergent regime the series mode must fail loudly
    rc = run(["sample", "--train", train_path, "--num-samples", "1",
              "--steps", "200", "--score", "series", "--seed", "0",
              "--threads", "1", "--out", out])
    assert rc == 2
    assert "ratio" in capsys.readouterr().err
    # a tiny ratio cap trips on the very first step, deterministically
    monkeypatch.setattr(diffusion, "SERIES_RATIO_MAX", 1e-9)
    rc = run(["sample", "--train", train_path, "--num-samples", "1",
              "--steps", "10", "--score", "series", "--seed", "0",
              "--threads", "1", "--out", out])
    assert rc == 2


def test_sample_validates_num_samples(train_path, tmp_path):
    assert run(["sample", "--train", train_path, "--num-samples", "0",
                "--steps", "10", "--out", str(tmp_path / "g.jsonl")]) == 2


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_sample_non_finite_threshold_exits_2(train_path, tmp_path, capsys,
                                             threshold):
    out = tmp_path / "g.jsonl"
    assert run(["sample", "--train", train_path, "--num-samples", "2",
                "--steps", "10", "--threshold", threshold, "--threads", "1",
                "--out", str(out)]) == 2
    assert "threshold must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_eval_self_comparison(train_path, tmp_path):
    out = tmp_path / "eval.json"
    rc = run(["eval", "--train", train_path, "--gen", train_path,
              "--patterns", "c3,c4,l5", "--threads", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert set(report["patterns"]) == {"c3", "c4", "l5"}
    for pe in report["patterns"].values():
        assert pe["tv"] == 0.0
    assert report["novelty"] == 0.0
    assert report["config"]["train"] == train_path
    assert report["config"]["gen"] == train_path


def test_verify_suite_reports(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = run(["verify", "--suite", "basis", "--n", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    (suite,) = report["suites"]
    assert suite["suite"] == "basis"
    assert suite["params"]["n_values"] == [3]
    assert "basis: ok" in capsys.readouterr().err


def test_verify_failure_exit_code(tmp_path):
    # an impossible tolerance must flip the exit code, not hide the miss
    rc = run(["verify", "--suite", "basis", "--n", "3",
              "--tolerance", "1e-18", "--out", str(tmp_path / "v.json")])
    assert rc == 1
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["passed"] is False


def test_verify_checks_each_suite_against_the_schema(tmp_path, capsys,
                                                     monkeypatch):
    from motifdiff import verification

    def no_checks(suite, flags):
        return [{"suite": suite, "passed": True, "failures": 0,
                 "failure_examples": [], "max_error": 0.0, "tolerance": 0.0,
                 "params": {}}]

    monkeypatch.setattr(verification, "run_suites", no_checks)
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "basis", "--out", str(out)]) == 2
    assert ("output failed its schema at $.suites[0]: missing key 'checks'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_verify_count_identity_overrides(tmp_path):
    out = tmp_path / "v.json"
    rc = run(["verify", "--suite", "count-identity", "--n", "4",
              "--trials", "20", "--seed", "1", "--out", str(out)])
    assert rc == 0
    (suite,) = json.loads(out.read_text())["suites"]
    assert suite["params"]["n_max"] == 4
    assert suite["params"]["trials"] == 20
    assert suite["tolerance"] == 0.0


def test_verify_all_routes_each_flag_to_the_suites_that_read_it(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "all", "--n", "4", "--k", "1",
                "--trials", "1", "--out", str(out)]) == 0
    params = {s["suite"]: s["params"]
              for s in json.loads(out.read_text())["suites"]}
    assert params["count-identity"]["n_max"] == 4
    assert params["count-identity"]["trials"] == 1
    assert params["basis"]["n_values"] == [4]
    assert params["basis"]["orders"] == [0, 1]
    assert params["series"]["order"] == 1
    assert params["series"]["trials"] == 1
    assert params["equivariance"]["n_values"] == [4]
    assert params["equivariance"]["trials"] == 1
    assert params["finitediff"]["sizes"] == [3, 4]


@pytest.mark.parametrize("argv", [
    ["--suite", "series", "--n", "5"],
    ["--suite", "finitediff", "--trials", "1", "--k", "3"],
    ["--suite", "count-identity", "--tolerance", "0.5"],
])
def test_verify_rejects_flags_the_suite_does_not_read(argv, tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verify", *argv, "--out", str(out)]) == 2
    assert "does not read" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--suite", "count-identity", "--n", "1"],
    ["--suite", "count-identity", "--n", "-3"],
    ["--suite", "basis", "--n", "0"],
    ["--suite", "count-identity", "--trials", "0"],
    ["--suite", "series", "--trials", "0"],
    ["--suite", "equivariance", "--n", "0"],
    ["--suite", "equivariance", "--n", "1"],
    ["--suite", "equivariance", "--trials", "-3"],
    ["--suite", "basis", "--k", "-1"],
    # no error exceeds an infinite tolerance or compares above nan
    ["--suite", "finitediff", "--tolerance", "nan"],
    ["--suite", "basis", "--tolerance", "inf"],
    ["--suite", "finitediff", "--tolerance", "-1"],
    ["--suite", "series", "--k", "-1"],
])
def test_verify_out_of_range_flags_exit_2(argv, tmp_path, capsys):
    # a self-check that crashes or checks nothing is a usage error, not a
    # failed (exit 1) or passed (exit 0) suite
    out = tmp_path / "v.json"
    assert run(["verify", *argv, "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_verify_all_refuses_tolerance_before_any_suite(tolerance, tmp_path,
                                                       capsys, monkeypatch):
    from motifdiff import verification

    def never(**_):
        raise AssertionError("a suite ran before the tolerance was checked")

    for name in verification._RUNNERS:
        monkeypatch.setitem(verification._RUNNERS, name, never)
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "all", "--tolerance", tolerance,
                "--out", str(out)]) == 2
    assert "tolerance must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_verify_past_assignment_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "count-identity", "--n", "30",
                "--out", str(out)]) == 2
    assert "injective assignments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suite, refusal", [
    ("count-identity", "injective assignments"),
    ("equivariance", "capped at 6-node patterns"),
    ("basis", "capped at n<=6"),
])
def test_verify_refuses_a_large_n_before_drawing(suite, refusal, tmp_path,
                                                 capsys, monkeypatch):
    # --n 100000 would draw arrays of tens of GB; every n past the caps
    # (12 for count-identity, 6 for equivariance, 6 for basis) must be
    # refused first
    from motifdiff import verification

    def sized(draw, cap):
        def guarded(n, *args):
            assert n <= cap, f"drew an n={n} array before the size check"
            return draw(n, *args)
        return guarded

    monkeypatch.setattr(verification, "_random_graph",
                        sized(verification._random_graph, 12))
    monkeypatch.setattr(verification, "random_symmetric",
                        sized(verification.random_symmetric, 6))
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", suite, "--n", "100000",
                "--out", str(out)]) == 2
    assert refusal in capsys.readouterr().err
    assert not out.exists()


def test_verify_unknown_suite_is_a_usage_error():
    with pytest.raises(SystemExit):
        run(["verify", "--suite", "everything"])


def test_default_threads_env(monkeypatch, train_path, tmp_path, capsys):
    monkeypatch.setenv("MOTIFDIFF_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.setenv("MOTIFDIFF_THREADS", "0")
    assert _default_threads() == 1
    # a bad value is refused only where it is read: by count, eval and
    # sample without --threads
    monkeypatch.setenv("MOTIFDIFF_THREADS", "banana")
    assert run(["count", "--in", train_path, "--patterns", "c3"]) == 2
    assert capsys.readouterr().err == (
        "error: MOTIFDIFF_THREADS='banana' is not an integer\n")
    assert run(["count", "--in", train_path, "--patterns", "c3",
                "--threads", "4", "--out", str(tmp_path / "c.json")]) == 0
    assert run(["gen-data", "--pattern", "c3", "--n", "4", "--count", "2",
                "--out", str(tmp_path / "g.jsonl")]) == 0
    assert run(["verify", "--suite", "basis", "--n", "3",
                "--out", str(tmp_path / "v.json")]) == 0
    with pytest.raises(SystemExit) as help_exit:
        run(["--help"])
    assert help_exit.value.code == 0
    assert capsys.readouterr().out.startswith("usage: motifdiff")


def _no_fork():
    raise AssertionError("a worker was forked")


def test_threads_above_the_cap_exit_2_before_any_fork(train_path, tmp_path,
                                                     capsys, monkeypatch):
    # at the cap the flag is taken (six graphs, so six workers)
    assert run(["count", "--in", train_path, "--patterns", "c3", "--threads",
                str(cli.THREADS_CAP), "--out", str(tmp_path / "c.json")]) == 0
    assert capsys.readouterr().err == "counted 1 pattern(s) over 6 graph(s)\n"
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(cli, "read_dataset", _no_read)
    want = (f"error: {cli.THREADS_CAP + 1} worker processes asked for"
            f" (--threads or MOTIFDIFF_THREADS); at most {cli.THREADS_CAP}\n")
    for argv in (["count", "--in", train_path, "--patterns", "c3"],
                 ["eval", "--train", train_path, "--gen", train_path],
                 ["sample", "--train", train_path, "--num-samples", "2",
                  "--steps", "10", "--out", str(tmp_path / "g.jsonl")]):
        assert run(argv + ["--threads", str(cli.THREADS_CAP + 1)]) == 2
        assert capsys.readouterr().err == want
        monkeypatch.setenv("MOTIFDIFF_THREADS", str(cli.THREADS_CAP + 1))
        assert run(argv) == 2
        assert capsys.readouterr().err == want
        monkeypatch.delenv("MOTIFDIFF_THREADS")
    assert not (tmp_path / "g.jsonl").exists()
    # the default is every core, up to the cap
    monkeypatch.setattr(os, "cpu_count", lambda: 100_000)
    assert _default_threads() == cli.THREADS_CAP


def test_stdout_emission(train_path, capsys):
    rc = run(["count", "--in", train_path, "--patterns", "c3", "--threads", "1"])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["patterns"]["c3"]["per_graph"] == [1] * 6
    assert captured.out.endswith("\n")


def test_eval_with_isolated_nodes_finishes(tmp_path):
    # one edge among ten isolated nodes: novelty's canonical form must not
    # enumerate every ordering of the isolated nodes
    train = tmp_path / "train.jsonl"
    gen = tmp_path / "gen.jsonl"
    train.write_text('{"n": 12, "edges": [[1, 2], [2, 3]]}\n')
    gen.write_text('{"n": 12, "edges": [[1, 2]]}\n')
    out = tmp_path / "eval.json"
    done = subprocess.run(
        [sys.executable, "-m", "motifdiff", "eval", "--train", str(train),
         "--gen", str(gen), "--patterns", "c3", "--threads", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=src_env())
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["novelty"] == 1.0


def test_eval_past_symmetry_search_cap_exits_2(tmp_path, monkeypatch, capsys):
    # novelty canonicalizes every graph; 5 disjoint edges build 2,910
    # refinement signatures, past a cap lowered to 1,000
    five_edges = json.dumps({"n": 10, "edges": [[2 * i + 1, 2 * i + 2]
                                                for i in range(5)]})
    train = tmp_path / "train.jsonl"
    train.write_text('{"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}\n')
    gen = tmp_path / "gen.jsonl"
    gen.write_text(five_edges + "\n")
    out = tmp_path / "eval.json"
    argv = ["eval", "--train", str(train), "--gen", str(gen), "--patterns",
            "c3", "--threads", "1", "--out", str(out)]
    monkeypatch.setattr(graphs, "SYMMETRY_SIGNATURE_CAP", 1000)
    assert run(argv) == 2
    assert "refinement signatures" in capsys.readouterr().err
    assert not out.exists()


def test_sample_over_oracle_byte_cap_exits_2(tmp_path):
    # 11 400-node graphs under the default 10,000 Monte Carlo permutations
    # would key 110,000 rows of 1,247 words, 1.1 GB; it must be refused
    train = tmp_path / "big.jsonl"
    edges = [[v, v + 1] for v in range(1, 400)]
    train.write_text((json.dumps({"n": 400, "edges": edges}) + "\n") * 11)
    out = tmp_path / "gen.jsonl"
    done = subprocess.run(
        [sys.executable, "-m", "motifdiff", "sample", "--train", str(train),
         "--num-samples", "1", "--steps", "10", "--threads", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=src_env())
    assert done.returncode == 2, done.stderr
    assert "byte cap" in done.stderr
    assert not out.exists()


def test_sample_over_mc_samples_cap_exits_2(train_path, tmp_path, capsys):
    out = tmp_path / "gen.jsonl"
    assert run(["sample", "--train", train_path, "--num-samples", "1",
                "--steps", "10", "--perm-policy", "monte_carlo",
                "--mc-samples", "1000001", "--threads", "1",
                "--out", str(out)]) == 2
    assert "Monte Carlo permutations" in capsys.readouterr().err
    assert not out.exists()


def under_blas_threads(argv, outputs):
    """Run the CLI in a subprocess at 1, then 2 BLAS threads (every BLAS
    numpy may be built on); one (stdout, stderr, output bytes) per run."""
    runs = []
    for blas in ("1", "2"):
        env = src_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = blas
        done = subprocess.run([sys.executable, "-m", "motifdiff", *argv],
                              capture_output=True, timeout=120, env=env)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, done.stderr,
                     [path.read_bytes() for path in outputs]))
        for path in outputs:
            path.unlink()
    return runs


def test_sample_bytes_independent_of_blas_threads(tmp_path):
    train = tmp_path / "train.jsonl"
    assert run(["gen-data", "--pattern", "c4", "--n", "6", "--count", "4",
                "--seed", "3", "--out", str(train)]) == 0
    out, traj = tmp_path / "gen.jsonl", tmp_path / "traj.jsonl"
    first, second = under_blas_threads(
        ["sample", "--train", str(train), "--num-samples", "3", "--steps",
         "40", "--seed", "9", "--score", "direct", "--perm-policy",
         "exhaustive", "--threads", "1", "--trajectories", str(traj),
         "--out", str(out)], [out, traj])
    assert first == second


def test_verify_bytes_independent_of_blas_threads(tmp_path):
    # the series suite measures its errors with np.linalg.norm
    out = tmp_path / "verify.json"
    first, second = under_blas_threads(
        ["verify", "--suite", "series", "--out", str(out)], [out])
    assert first == second


def test_sample_defaults_are_the_dataclass_defaults():
    args = build_parser().parse_args(
        ["sample", "--train", "t.jsonl", "--num-samples", "1", "--out", "o"])
    sched, cfg = NoiseSchedule(), ScoreConfig()
    assert (args.beta_min, args.beta_max, args.t_min, args.t_max) == (
        sched.beta_min, sched.beta_max, sched.t_min, sched.t_max)
    assert (args.perm_policy, args.mc_samples, args.seed, args.series_k) == (
        cfg.perm_policy, cfg.mc_samples, cfg.seed, cfg.truncation_k)
