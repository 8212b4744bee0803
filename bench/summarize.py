"""Summarize benchmark reports: per workload and metric, the median, the
quartiles and the quartile spread as a share of the median, checked
against the bound BENCHMARK.json gives each end-to-end metric.

    python3 bench/summarize.py [--trace 0|1] [--out FILE] [REPORT.json ...]

Without report files it reads every report under ``.bench_work/reports``.
``--out`` writes the summary as JSON (the committed baselines under
``bench/baseline/`` were made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(reports: list[dict], bounds: dict[str, float]) -> dict:
    values: dict = defaultdict(lambda: defaultdict(list))
    seeds: dict = defaultdict(list)
    failures: dict = defaultdict(int)
    calibration: dict = defaultdict(list)
    hosts = {}
    for rep in reports:
        wl = rep["workload"]
        seeds[wl].append(rep["seed"])
        calibration[wl].append(rep["calibration_s"])
        hosts[wl] = rep["host"]
        failures[wl] += len(rep["failures"])
        for name, m in rep["metrics"].items():
            values[wl][name].append(m["value"])
    out = {}
    for wl in sorted(values):
        rows = {}
        for name, vals in values[wl].items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], None, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "n": len(vals)}
            if name in bounds:
                rows[name]["bound"] = bounds[name]
        out[wl] = {"seeds": sorted(seeds[wl]), "failures": failures[wl],
                   "host": hosts[wl], "metrics": rows,
                   "calibration_s": {"min": min(calibration[wl]),
                                     "median": statistics.median(calibration[wl]),
                                     "max": max(calibration[wl])}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="*")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    paths = [Path(p) for p in args.reports] or sorted(
        (ROOT / ".bench_work" / "reports").glob(f"*-trace{args.trace}.json"))
    reports = [json.loads(p.read_text()) for p in paths]
    reports = [r for r in reports if r["trace"] == args.trace]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize(reports, bounds)
    steady = True
    for wl, s in summary.items():
        print(f"{wl}: {len(s['seeds'])} runs, {s['failures']} failures")
        for name, row in s["metrics"].items():
            flag = ""
            if "bound" in row:
                ok = row["spread"] < row["bound"] / 3
                steady &= ok
                flag = "" if ok else "  <-- spread above a third of the bound"
            print(f"  {name:34s} median {row['median']:<12.6g} spread"
                  f" {row['spread']:.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
