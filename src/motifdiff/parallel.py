"""Deterministic fork-based map.

The map cuts its items into w contiguous, balanced shares (worker k of w
takes items[N*k//w : N*(k+1)//w]) and calls the function once per share;
the function returns its share's results as a list, and the parent joins
the lists in worker order, so output bytes do not depend on the worker
count. Each worker is a plain fork of the caller and inherits the callable
and the items: only results cross its pipe, and the callable may be a
closure over unpicklable state. The first failing share's exception is
raised; as the function stops at its own first failure, that is the first
failing item in input order. With one worker, or where fork is missing,
the map is the function applied to all the items, in-process.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def _share(fn: Callable, share: Sequence, fd: int, readers: list) -> None:
    """A worker's body: write (ok, results or exception), exit."""
    try:
        # only the parent may hold read ends: if it stops reading, a worker
        # blocked on a full pipe must fail its write instead of waiting
        for reader in readers:
            reader.close()
        try:
            payload = (True, fn(share))
        except Exception as exc:
            payload = (False, exc)
        with os.fdopen(fd, "wb") as out:
            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def ordered_map(fn: Callable[[Sequence[T]], list[R]], items: Sequence[T],
                threads: int = 1) -> list[R]:
    n = len(items)
    w = min(threads, n)
    if w <= 1 or not hasattr(os, "fork"):
        return fn(items)
    readers, pids, shares = [], [], []
    try:
        for k in range(w):
            r, fd = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _share(fn, items[n * k // w:n * (k + 1) // w], fd, readers)
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
    results: list = []
    for ok, value in shares:
        if not ok:
            raise value
        results += value
    return results
