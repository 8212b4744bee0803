"""Command-line interface.

One executable, five subcommands: count, gen-data, sample, eval, verify.
Machine-readable JSON goes to stdout (or --out); human summaries go to
stderr. Every report embeds its resolved configuration, minus anything
(like thread counts) that does not affect the output bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import SUITE_NAMES, NoiseSchedule, ScoreConfig
from .counting import _compile, count_table, histogram
from .dataio import read_dataset, write_dataset
from .datagen import DECORATIONS, plant_pattern_dataset
from .errors import InputError, MotifdiffError
from .evaluation import evaluate
from .graphs import Dataset
from .parallel import ordered_map
from .patterns import PATTERN_NAMES, get_pattern, resolve_patterns
from .schemas import (COUNT_REPORT, EVAL_REPORT, TRAJECTORY_LINE,
                      VERIFY_REPORT, validate_output)


# the most worker processes one command forks, each with its own pipe
THREADS_CAP = 256


def _default_threads() -> int:
    env = os.environ.get("MOTIFDIFF_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"MOTIFDIFF_THREADS={env!r} is not an integer") from None
    return min(os.cpu_count() or 1, THREADS_CAP)


def _note(line: str) -> None:
    """A human line: to stderr, or nowhere when stderr is closed (``print``
    would send it to stdout, mixed into a report)."""
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _split_names(raw: str) -> list[str]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    if not names:
        raise InputError("pattern list is empty")
    return names


# ---------------------------------------------------------------------------
# subcommands


def cmd_count(args) -> int:
    ds = read_dataset(args.infile)
    patterns = resolve_patterns(_split_names(args.patterns))
    report: dict = {
        "config": {"input": args.infile,
                   "patterns": ",".join(p.name for p in patterns)},
        "n_graphs": len(ds),
        "patterns": {},
    }
    table = count_table(ds.graphs, patterns, threads=args.threads)
    for p, values in zip(patterns, table):
        report["patterns"][p.name] = {
            "per_graph": values,
            "histogram": histogram(values),
        }
    validate_output(report, COUNT_REPORT)
    _emit(report, args.out)
    _note(f"counted {len(patterns)} pattern(s) over {len(ds)} graph(s)")
    return 0


def cmd_gen_data(args) -> int:
    pattern = get_pattern(args.pattern)
    monitors = tuple(resolve_patterns(_split_names(args.monitor))) if args.monitor else ()
    ds = plant_pattern_dataset(pattern, args.n, args.count,
                               decoration=args.decoration, seed=args.seed,
                               monitors=monitors,
                               max_retries=args.max_retries)
    write_dataset(ds, args.out)
    _note(f"wrote {len(ds)} graph(s) with one {pattern.name} each to {args.out}")
    return 0


def _sample_share(oracle, args, share: range):
    """One share of the samples: (graph, its (t, W) states or None) per
    sample. It runs in the worker, where `reverse_sample` loads numpy.random,
    which would add about 5 MB to the parent's RSS."""
    traj: list | None = [] if args.trajectories is not None else None
    graphs = oracle.reverse_sample(args.steps, share, args.score,
                                   threshold=args.threshold,
                                   trajectories=traj)
    return list(zip(graphs, traj or [None] * len(graphs)))


# the sample flags echoed, as str(value), into the output's metadata line
_SAMPLE_ECHOED = ("train", "num_samples", "steps", "score", "seed", "beta_min",
                  "beta_max", "t_min", "t_max", "perm_policy", "mc_samples",
                  "series_k", "threshold")


def cmd_sample(args) -> int:
    from .diffusion import ScoreOracle, _check_sampling

    train = read_dataset(args.train)
    if args.num_samples < 1:
        raise InputError("--num-samples must be at least 1")
    sched = NoiseSchedule(beta_min=args.beta_min, beta_max=args.beta_max,
                          t_min=args.t_min, t_max=args.t_max)
    cfg = ScoreConfig(perm_policy=args.perm_policy,
                      mc_samples=args.mc_samples, seed=args.seed,
                      truncation_k=args.series_k)
    _check_sampling(args.steps, args.score, args.threshold)
    n = args.n
    if n is None:
        sizes = train.node_counts()
        if len(sizes) != 1:
            raise InputError(
                f"training set mixes node counts {list(sizes)}; pass --n")
        (n,) = sizes
    oracle = ScoreOracle(train, n, cfg=cfg, sched=sched)
    results = ordered_map(lambda share: _sample_share(oracle, args, share),
                          range(args.num_samples), threads=args.threads)
    graphs = tuple(g for g, _ in results)
    metadata = {flag: str(getattr(args, flag)) for flag in _SAMPLE_ECHOED}
    metadata.update(generator="reverse-diffusion", n=str(n))
    write_dataset(Dataset(graphs=graphs, metadata=metadata), args.out)
    if args.trajectories is not None:
        with open(args.trajectories, "w", encoding="utf-8") as fh:
            for idx, (_, states) in enumerate(results):
                for t, W in states:
                    line = {"sample": idx, "t": float(t), "W": W.tolist()}
                    validate_output(line, TRAJECTORY_LINE)
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
    _note(f"wrote {len(graphs)} sample(s) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    train = read_dataset(args.train)
    gen = read_dataset(args.gen)
    names = _split_names(args.patterns)
    patterns = resolve_patterns(names)
    report = evaluate(train, gen, patterns, novelty_mode=args.novelty_mode,
                      threads=args.threads)
    report["config"].update(train=str(args.train), gen=str(args.gen))
    validate_output(report, EVAL_REPORT)
    _emit(report, args.out)
    worst = max((pe["tv"] for pe in report["patterns"].values()), default=0.0)
    _note(f"evaluated {len(patterns)} pattern(s); worst tv {worst:.4f};"
          f" novelty {report['novelty']:.4f}")
    return 0


def cmd_verify(args) -> int:
    from .verification import run_suites

    flags = {flag: getattr(args, flag)
             for flag in ("n", "k", "trials", "seed", "tolerance")
             if getattr(args, flag) is not None}
    suites = run_suites(args.suite, flags)
    report = {"suites": suites, "passed": all(s["passed"] for s in suites)}
    validate_output(report, VERIFY_REPORT)
    _emit(report, args.out)
    for s in suites:
        status = "ok" if s["passed"] else "FAIL"
        _note(f"{s['suite']}: {status} ({s['checks']} checks,"
              f" max error {s['max_error']:.3g}, tolerance {s['tolerance']:.3g})")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifdiff",
        description="Subgraph-count evaluation for graph generative models,"
                    " with an exact-score graph-diffusion testbed.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker processes, at most {THREADS_CAP}"
                            " (default: MOTIFDIFF_THREADS or all cores);"
                            " never affects output bytes")

    def add_out(p, required=False):
        p.add_argument("--out", required=required,
                       help="output path" + ("" if required else
                                             " (default: stdout)"))

    p_count = sub.add_parser("count", help="count patterns over a dataset")
    p_count.add_argument("--in", dest="infile", required=True,
                         help="dataset JSONL path")
    p_count.add_argument("--patterns", required=True,
                         help=f"comma-separated names from: {', '.join(PATTERN_NAMES)}")
    add_threads(p_count)
    add_out(p_count)
    p_count.set_defaults(func=cmd_count)

    p_gen = sub.add_parser("gen-data",
                           help="plant one pattern occurrence per graph")
    p_gen.add_argument("--pattern", required=True)
    p_gen.add_argument("--n", type=int, required=True, help="nodes per graph")
    p_gen.add_argument("--count", type=int, required=True,
                       help="number of graphs")
    p_gen.add_argument("--decoration", choices=DECORATIONS, default="tree",
                       help="how the non-pattern nodes attach (default tree)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--monitor", default=None,
                       help="comma-separated extra patterns whose counts must"
                            " match the bare pattern's")
    p_gen.add_argument("--max-retries", type=int, default=1000)
    add_out(p_gen, required=True)
    p_gen.set_defaults(func=cmd_gen_data)

    p_sample = sub.add_parser("sample",
                              help="reverse-diffusion samples from the exact score")
    p_sample.add_argument("--train", required=True, help="training JSONL path")
    p_sample.add_argument("--n", type=int, default=None,
                          help="node count (default: the training set's)")
    p_sample.add_argument("--num-samples", type=int, required=True)
    p_sample.add_argument("--steps", type=int, default=500)
    p_sample.add_argument("--score", choices=("direct", "series"),
                          default="direct")
    p_sample.add_argument("--seed", type=int, default=ScoreConfig.seed)
    p_sample.add_argument("--beta-min", type=float, default=NoiseSchedule.beta_min)
    p_sample.add_argument("--beta-max", type=float, default=NoiseSchedule.beta_max)
    p_sample.add_argument("--t-min", type=float, default=NoiseSchedule.t_min)
    p_sample.add_argument("--t-max", type=float, default=NoiseSchedule.t_max)
    p_sample.add_argument("--perm-policy", default=ScoreConfig.perm_policy,
                          choices=("auto", "exhaustive", "monte_carlo"))
    p_sample.add_argument("--mc-samples", type=int, default=ScoreConfig.mc_samples)
    p_sample.add_argument("--series-k", type=int, default=ScoreConfig.truncation_k,
                          help="series truncation order (series mode)")
    p_sample.add_argument("--threshold", type=float, default=0.5)
    p_sample.add_argument("--trajectories", default=None,
                          help="optional JSONL path for per-step states")
    add_threads(p_sample)
    add_out(p_sample, required=True)
    p_sample.set_defaults(func=cmd_sample)

    p_eval = sub.add_parser("eval",
                            help="TV distances and novelty between two datasets")
    p_eval.add_argument("--train", required=True)
    p_eval.add_argument("--gen", required=True)
    p_eval.add_argument("--patterns", default=",".join(PATTERN_NAMES))
    p_eval.add_argument("--novelty-mode", choices=("isomorphism", "size"),
                        default="isomorphism")
    add_threads(p_eval)
    add_out(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="numerical self-check suites")
    p_verify.add_argument("--suite", choices=SUITE_NAMES + ("all",),
                          required=True)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--tolerance", type=float, default=None)
    add_out(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that is empty, a directory
    or in a missing directory, one file named by both --out and
    --trajectories, and a report meant for a closed stdout."""
    paths = [getattr(args, flag, None) for flag in ("out", "trajectories")]
    if paths[0] is None and sys.stdout is None:
        raise InputError("stdout is closed; name a report file with --out")
    for flag, path in zip(("--out", "--trajectories"), paths):
        if path == "":
            raise InputError(f"{flag} names no file")
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise InputError(f"output path {path} is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"output directory of {path} does not exist")
    if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise InputError(f"--out and --trajectories both name {paths[1]}")


def main(argv=None) -> int:
    # a command compiles its patterns as its own process would, so calls
    # in one process each do the same work
    _compile.cache_clear()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        # count, eval and sample read MOTIFDIFF_THREADS only when it is used
        if getattr(args, "threads", 0) is None:
            args.threads = _default_threads()
        if getattr(args, "threads", 0) > THREADS_CAP:
            raise InputError(f"{args.threads} worker processes asked for"
                             f" (--threads or MOTIFDIFF_THREADS); at most"
                             f" {THREADS_CAP}")
        _check_outputs(args)
        return args.func(args)
    except (MotifdiffError, OSError) as exc:
        _note(f"error: {exc}")
        return 2
