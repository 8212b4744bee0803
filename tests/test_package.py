"""The package's public namespace and what importing it loads."""

import os
import random
import subprocess
import sys
from pathlib import Path

import motifdiff
from motifdiff.cli import main

from conftest import src_env

# the package never imports any of the four
_DEFERRED = ("jsonschema", "multiprocessing", "concurrent.futures", "scipy")


def test_public_names_resolve_once():
    names = motifdiff.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(motifdiff, name)]
    assert missing == []


def test_cli_import_defers_validation_and_the_pool():
    code = f"""
import sys
import motifdiff.cli
from motifdiff.errors import ContractError
from motifdiff.schemas import TRAJECTORY_LINE, validate_output
print([m for m in {_DEFERRED!r} if m in sys.modules])
try:
    validate_output({{"sample": -1, "t": 0.5, "W": [[0.0]]}}, TRAJECTORY_LINE)
except ContractError as exc:
    print("jsonschema" in sys.modules, exc)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env())
    assert done.returncode == 0, done.stderr
    loaded, raised = done.stdout.splitlines()
    assert loaded == "[]"
    # the checker is the package's own; jsonschema is only a test witness
    assert raised == ("False output failed its schema at $.sample:"
                      " -1 is below the minimum 0")


def test_log_density_does_not_load_scipy():
    code = """
import sys
import numpy as np
from motifdiff.diffusion import ScoreOracle
from motifdiff.graphs import Dataset, Graph
oracle = ScoreOracle(Dataset(graphs=(Graph.from_edges(3, [(0, 1)]),)), 3)
print(np.isfinite(oracle.log_density(np.ones((3, 3)) - np.eye(3), 0.5)),
      "scipy" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env())
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "False"]


def test_cli_import_loads_every_traced_layer_but_no_numpy():
    code = """
import sys
import motifdiff.cli
print("numpy" in sys.modules, sorted(m for m in sys.modules
                                      if m.startswith("motifdiff.")))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=src_env())
    assert done.returncode == 0, done.stderr
    numpy_loaded, modules = done.stdout.split(" ", 1)
    assert numpy_loaded == "False"
    for layer in ("cli", "dataio", "datagen", "graphs", "counting",
                  "evaluation", "schemas", "parallel"):
        assert f"'motifdiff.{layer}'" in modules


def test_count_and_eval_run_without_numpy(tmp_path):
    poisoned = tmp_path / "poisoned"
    (poisoned / "numpy").mkdir(parents=True)
    (poisoned / "numpy" / "__init__.py").write_text(
        'raise ImportError("numpy is not installed")\n')
    plain = src_env()
    blocked = dict(plain, PYTHONPATH=os.pathsep.join(
        [str(poisoned), plain["PYTHONPATH"]]))
    rng = random.Random(5)
    for label in ("train", "gen"):
        graphs = []
        for _ in range(6):
            n = rng.randrange(6, 10)
            graphs.append(motifdiff.Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.random() < 0.4]))
        motifdiff.write_dataset(motifdiff.Dataset(graphs=tuple(graphs)),
                                tmp_path / f"{label}.jsonl")
    calls = [["-c", "import motifdiff; print(len(motifdiff.__all__))"],
             ["-m", "motifdiff", "gen-data", "--pattern", "c4", "--n", "7",
              "--count", "5", "--seed", str(2**32 + 1), "--monitor", "c3",
              "--out", "/dev/stdout"]]
    for threads in ("1", "2"):
        calls += [
            ["-m", "motifdiff", "count", "--in", "train.jsonl", "--patterns",
             ",".join(motifdiff.PATTERN_NAMES), "--threads", threads],
            *(["-m", "motifdiff", "eval", "--train", "train.jsonl", "--gen",
               "gen.jsonl", "--novelty-mode", mode, "--threads", threads]
              for mode in ("isomorphism", "size"))]
    for argv in calls:
        runs = [subprocess.run([sys.executable, *argv], capture_output=True,
                               timeout=120, env=env, cwd=tmp_path)
                for env in (plain, blocked)]
        assert runs[0].returncode == runs[1].returncode == 0, runs[1].stderr
        assert runs[0].stdout == runs[1].stdout and runs[0].stdout
        assert runs[0].stderr == runs[1].stderr
    # the poisoned numpy is really what the blocked runs would import
    done = subprocess.run([sys.executable, "-c", "import motifdiff.diffusion"],
                          capture_output=True, text=True, timeout=120,
                          env=blocked)
    assert done.returncode != 0 and "numpy is not installed" in done.stderr


def test_readme_library_use_runs_and_matches_the_cli(tmp_path, capsys):
    # the block README shows under "Library use", run as written; its
    # samples are those `motifdiff sample` draws from the same set
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(code, "README.md", "exec"), scope)
    (printed,) = capsys.readouterr().out.splitlines()
    assert printed == repr(scope["report"]["patterns"]["c4"]["tv"])
    train, gen = tmp_path / "train.jsonl", tmp_path / "gen.jsonl"
    assert main(["gen-data", "--pattern", "c4", "--n", "5", "--count", "50",
                 "--seed", "0", "--out", str(train)]) == 0
    assert main(["sample", "--train", str(train), "--num-samples", "100",
                 "--seed", "1", "--threads", "2", "--out", str(gen)]) == 0
    assert motifdiff.read_dataset(gen).graphs == tuple(scope["samples"])
