"""Host record and a fixed calibration probe, stored with every report.

The probe is a fixed pure-Python workload timed in the benchmark process.
It does not depend on motifdiff, so a change in its time between runs is
host-speed drift, not a change in the program.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("MOTIFDIFF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def host_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _probe() -> int:
    # integer hashing and dict traffic, the same mix the matcher leans on
    acc = 0
    table: dict[int, int] = {}
    for i in range(300_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 0xFFF] = table.get(acc & 0xFFF, 0) + 1
    return acc + len(table)


def calibration_s(repeats: int = 5) -> float:
    """Median seconds of the fixed probe."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
