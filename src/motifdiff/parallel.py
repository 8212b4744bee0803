"""Deterministic fork-based map.

Results always come back in input order, so output bytes do not depend on
the worker count. Each worker is a plain fork of the caller and inherits
the callable and the items: only results cross its pipe, and the callable
may be a closure over unpicklable state. Worker k of w computes items k,
k+w, k+2w, ... and writes them as one pickle. Where fork is missing, the
map runs in-process.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _share(fn: Callable, work: Sequence, k: int, w: int, fd: int,
           readers: list) -> None:
    """Worker k's body: write (ok, results or (index, exception)), exit."""
    try:
        # only the parent may hold read ends: if it stops reading, a worker
        # blocked on a full pipe must fail its write instead of waiting
        for reader in readers:
            reader.close()
        done = []
        try:
            for i in range(k, len(work), w):
                done.append(fn(work[i]))
            payload = (True, done)
        except Exception as exc:
            payload = (False, (k + len(done) * w, exc))
        with os.fdopen(fd, "wb") as out:
            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> list[R]:
    work: Sequence[T] = list(items)
    w = min(threads, len(work))
    if w <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in work]
    readers, pids, shares = [], [], []
    try:
        for k in range(w):
            r, fd = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _share(fn, work, k, w, fd, readers)
            finally:
                os.close(fd)
            pids.append(pid)
        for k, reader in enumerate(readers):
            try:  # a worker that died wrote nothing, or a cut-off pickle
                shares.append(pickle.loads(reader.read()))
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"worker {k} of {w} exited without"
                                   " returning its share") from None
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)
    failures = [value for ok, value in shares if not ok]
    if failures:
        # the first failing item in input order, as the in-process map raises
        raise min(failures, key=lambda f: f[0])[1]
    results: list = [None] * len(work)
    for k, (_, done) in enumerate(shares):
        results[k::w] = done
    return results
