"""Run one motifdiff benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is the checkout's
``src/motifdiff``, put on PYTHONPATH, never an installed copy.

``--trace 0`` runs the workload's CLI sequence (``python -m motifdiff ...``)
as subprocesses, again and again for S seconds, with MOTIFDIFF_THREADS set
to the number of usable cores and the BLAS thread variables set to 1; each
repetition follows two set-up probes (the cheapest call of the same kind).
It reports the end-to-end metrics as medians over repetitions and probes.
``--trace 1`` replays the same sequence in this process through
``motifdiff.cli.main``, alternating plain and traced replays for S seconds,
and reports the per-layer metrics. Both check every output; the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit status is 1 if any operation or check failed.
Full reports, spans included, go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin thread counts before numpy can be imported, here or in a child.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["MOTIFDIFF_THREADS"] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostinfo  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 3
SETUP_PROBES_PER_REP = 2
IMPORT_PROBES = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import motifdiff.cli;"
                " print(time.perf_counter() - t)")


class Ops:
    """Operations attempted and failed; failures keep a short reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def run_cli(argv, cwd: Path, threads: int, code=None):
    """One subprocess; returns (ok, wall s, user+sys s, peak RSS MB, output).

    ``os.wait4`` reports the child's own usage plus that of every
    descendant it waited for, so pool workers are included.
    """
    cmd = [sys.executable, "-c", code] if code else [sys.executable, "-m",
                                                      "motifdiff", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), MOTIFDIFF_THREADS=str(threads))
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT) as proc:
        out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0
    if not ok:
        sys.stderr.write(f"[bench] {' '.join(argv)} exited {proc.returncode}:"
                         f" {out[-800:]}\n")
    return ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out


def digest(work: Path, names) -> dict[str, str]:
    out = {}
    for name in names:
        path = work / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def library_counts(path: Path) -> dict[str, list[int]]:
    """Per-graph counts from the program's library (for histogram checks)."""
    import_program()
    import motifdiff
    ds = motifdiff.read_dataset(path)
    return {p.name: [motifdiff.count_subgraphs(g, p) for g in ds.graphs]
            for p in motifdiff.resolve_patterns(list(motifdiff.PATTERN_NAMES))}


def import_program() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import motifdiff
    if not Path(motifdiff.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"motifdiff imported from {motifdiff.__file__}, not {SRC}")


def check_outputs(wl, work: Path, seed: int, ops: Ops) -> dict:
    try:
        failures, quality = wl.check(work, seed, library_counts)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        failures, quality = [f"output check raised {exc!r}"], {}
    for f in failures[:20]:
        sys.stderr.write(f"[bench] check failed: {f}\n")
    ops.record(not failures, f"{wl.name} output check: {failures[:3]}")
    return quality


def prepare(wl, work: Path, seed: int, ops: Ops) -> None:
    def cli(argv):
        ok = run_cli(argv, work, NPROC)[0]
        if not ops.record(ok, f"prepare {argv[0]}"):
            raise RuntimeError(f"input preparation failed: {argv}")
    wl.prepare(work, seed, cli)


# ---------------------------------------------------------------------------
# --trace 0: end to end, CLI subprocesses


def run_end_to_end(wl, seed: int, seconds: float, work: Path, ops: Ops) -> tuple[dict, dict]:
    start = time.perf_counter()
    prepare(wl, work, seed, ops)
    # set-up probes alternate with repetitions, so both sample the same
    # stretch of host time; a repetition is only begun if it can end within
    # the run's seconds (input preparation included), once MIN_REPS are done
    setup = []
    reps = []
    first = None
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUP_PROBES_PER_REP):
            ok, wall, _, _, _ = run_cli(wl.setup_call(seed), work, NPROC)
            ops.record(ok, "setup probe")
            setup.append(wall)
        t1 = time.perf_counter()
        cpu = rss = 0.0
        for argv in wl.sequence(seed):
            ok, _, c, r, _ = run_cli(argv, work, NPROC)
            ops.record(ok, f"{argv[0]} exit status")
            cpu += c
            rss = max(rss, r)
        t2 = time.perf_counter()
        reps.append((t2 - t1, cpu, rss))
        got = digest(work, wl.outputs())
        first = first or got
        ops.record(got == first, "outputs differ between repetitions")
        if len(reps) >= MIN_REPS and t2 + (t2 - t0) > start + seconds:
            break
    quality = check_outputs(wl, work, seed, ops)
    metrics = {
        "wall_s": statistics.median(r[0] for r in reps),
        "cpu_s": statistics.median(r[1] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r[2] for r in reps),
    }
    detail = {"repetitions": len(reps), "rep_wall_s": [r[0] for r in reps],
              "rep_cpu_s": [r[1] for r in reps], "setup_probe_s": setup,
              "tv_max": quality.get("tv_max")}
    return metrics, detail


# ---------------------------------------------------------------------------
# --trace 1: per layer, in-process replays


def replay(wl, seed: int, work: Path, threads: int, tracer, full: bool, ops: Ops) -> float:
    """One pass of the workload's CLI sequence through ``cli.main``."""
    import motifdiff.cli  # noqa: F401  (loaded before patching)
    missing = (tracing.install_all if full else tracing.install_parallel)(tracer)
    ops.record(not missing, f"trace targets missing from the program: {missing}")
    os.environ["MOTIFDIFF_THREADS"] = str(threads)
    here = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        for argv in wl.sequence(seed):
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = sys.modules["motifdiff.cli"].main(argv)
            except Exception as exc:  # a crash in the program is a failed operation
                traceback.print_exc()
                rc = repr(exc)
            ops.record(rc == 0, f"in-process {argv[0]} returned {rc}")
        return time.perf_counter() - start
    finally:
        os.chdir(here)
        os.environ["MOTIFDIFF_THREADS"] = str(NPROC)
        tracer.uninstall()


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_traced(wl, seed: int, seconds: float, work: Path, ops: Ops) -> tuple[dict, dict]:
    start = time.perf_counter()
    prepare(wl, work, seed, ops)
    imports, import_rss = [], []
    for _ in range(IMPORT_PROBES):
        ok, _, _, rss, out = run_cli(["import"], work, NPROC, code=IMPORT_PROBE)
        ops.record(ok, "import probe")
        imports.append(float(out.split()[-1]) if ok else 0.0)
        import_rss.append(rss)
    build_rss = 0.0
    if wl.samples:
        ok, _, _, rss, _ = run_cli(wl.setup_call(seed), work, NPROC)
        ops.record(ok, "oracle memory probe")
        build_rss = max(0.0, rss - statistics.median(import_rss))
    import_program()

    # plain and traced replays alternate; a pair is only begun if it and
    # the closing replay at NPROC threads can end within the run's seconds
    plain, traced = [], []
    first = None
    while True:
        t0 = time.perf_counter()
        for full, runs in ((False, plain), (True, traced)):
            tr = tracing.Tracer()
            runs.append((replay(wl, seed, work, 1, tr, full, ops), tr))
            got = digest(work, wl.outputs())
            first = first or got
            ops.record(got == first, "outputs differ between replays")
        t1 = time.perf_counter()
        if t1 + 1.5 * (t1 - t0) > start + seconds:
            break
    wide = tracing.Tracer()
    replay(wl, seed, work, NPROC, wide, False, ops)
    ops.record(digest(work, wl.outputs()) == first,
               f"outputs differ between 1 and {NPROC} threads")
    unseen = sorted(set(wl.spans) - {span[0] for span in traced[0][1].spans})
    ops.record(not unseen, f"traced replays recorded no {unseen} span")
    quality = check_outputs(wl, work, seed, ops)

    # times are means over the traced replays; counters are the same in
    # every replay of a deterministic sequence, so the first one's are kept
    k = len(traced)
    inc: dict[str, float] = {}
    self_s: dict[str, float] = {}
    steps: list[float] = []
    for _, tr in traced:
        i, s = tr.totals()
        for key, v in i.items():
            inc[key] = inc.get(key, 0.0) + v / k
        for key, v in s.items():
            self_s[key] = self_s.get(key, 0.0) + v / k
        steps.extend(tr.step_us)
    counters = traced[0][1].counters
    t1 = statistics.mean(tr.totals()[0].get("parallel.ordered_map", 0.0)
                         for _, tr in plain)
    t2 = wide.totals()[0].get("parallel.ordered_map", 0.0)
    evals = counters.get("diffusion.score_evals", 0.0)
    sample_s = inc.get("diffusion.reverse_sample", 0.0)
    matcher_s = inc.get("counting.matcher", 0.0)
    embeddings = counters.get("counting.embeddings", 0.0)
    plain_wall = statistics.median(w for w, _ in plain)
    traced_wall = statistics.median(w for w, _ in traced)

    m = {
        "cli.import_s": statistics.median(imports),
        "dataio.read_dataset_s": inc.get("dataio.read_dataset", 0.0),
        "dataio.graphs_read": counters.get("dataio.graphs_read", 0.0),
        "datagen.plant_s": inc.get("datagen.plant", 0.0),
        "counting.matcher_s": matcher_s,
        "counting.embeddings": embeddings,
        "counting.embeddings_per_s": embeddings / matcher_s if matcher_s else 0.0,
        "evaluation.novelty_s": inc.get("evaluation.novelty", 0.0),
        "evaluation.tv_max": quality.get("tv_max") or 0.0,
        "diffusion.oracle_build_rss_mb": build_rss,
        "diffusion.step_us_p50": percentile(steps, 0.50),
        "diffusion.step_us_p99": percentile(steps, 0.99),
        "diffusion.flops_per_step": counters.get("diffusion.flops", 0.0) / evals if evals else 0.0,
        "diffusion.bytes_per_step": counters.get("diffusion.bytes", 0.0) / evals if evals else 0.0,
        "diffusion.achieved_gbps": (counters.get("diffusion.bytes", 0.0) / sample_s / 1e9
                                    if sample_s else 0.0),
        "parallel.scaling_eff": t1 / (NPROC * t2) if t2 else 0.0,
        "trace.plain_wall_s": plain_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    }
    for key in ("graphs.automorphism_count", "graphs.canonical_form",
                "counting.count_subgraphs", "evaluation.evaluate",
                "diffusion.oracle_build", "schemas.validate_output"):
        m[f"{key}_s"] = inc.get(key, 0.0)
    for key in ("graphs.automorphism_count_calls", "graphs.canonical_form_calls",
                "counting.count_subgraphs_calls", "diffusion.template_rows",
                "diffusion.templates", "diffusion.score_evals"):
        m[key] = counters.get(key, 0.0)
    for layer in tracing.LAYERS:
        m[f"self.{layer}_s"] = self_s.get(layer, 0.0)

    spans = [dict(tr.dump(), replay=i) for i, (_, tr) in enumerate(traced)]
    detail = {"plain_replays": len(plain), "traced_replays": k,
              "scaling_ordered_map_s": {"1": t1, str(NPROC): t2},
              "tv_max": quality.get("tv_max"), "traces": spans}
    return m, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "motifdiff" / "__init__.py").is_file():
        print(f"error: no motifdiff sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    wl = WORKLOADS[args.workload]
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = Ops()
    host = hostinfo.host_record()
    calibration = hostinfo.calibration_s()
    started = time.time()
    runner = run_traced if args.trace else run_end_to_end
    try:
        values, detail = runner(wl, args.seed, args.seconds, run_dir, ops)
    except RuntimeError as exc:
        # inputs could not be made; the run measured nothing
        ops.record(False, str(exc))
        values, detail = {}, {}
    values.setdefault("host.calibration_s", calibration)
    if values:
        missing = sorted({m["name"] for m in declared} - set(values))
        ops.record(not missing, f"metrics not measured: {missing}")
    failed = len(ops.failures)
    error_rate = failed / max(1, ops.attempted)

    metrics = {}
    for spec_m in declared:
        name = spec_m["name"]
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec_m["unit"]}
    report = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started": started,
        "host": host, "calibration_s": calibration,
        "error_rate": error_rate, "failures": ops.failures[:50],
        "metrics": metrics, "detail": detail,
        "elapsed_s": time.time() - started,
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True))

    print(f"workload {wl.name} (seed {args.seed}, trace {args.trace}): {wl.why}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"calibration probe = {calibration:.6f} s; run took {report['elapsed_s']:.1f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {error_rate:.6g} ratio ({failed} of {ops.attempted} operations failed)")
    if detail.get("tv_max") is not None:
        print(f"tv_max = {detail['tv_max']:.6g} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": ops.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
