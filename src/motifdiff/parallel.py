"""Deterministic worker-pool helper.

Results always come back in input order, so output bytes do not depend on
the worker count. The job (the callable and the items) is set in this
module just before the pool forks its workers, so they inherit it: only
item indices and results cross the pipe, and the callable may be a closure
over unpicklable state. Where fork is missing, the map runs in-process.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_JOB: tuple[Callable, Sequence] | None = None


def _apply(i: int):
    fn, work = _JOB
    return fn(work[i])


def ordered_map(fn: Callable[[T], R], items: Iterable[T], threads: int = 1) -> list[R]:
    global _JOB
    work: Sequence[T] = list(items)
    if threads <= 1 or len(work) <= 1:
        return [fn(x) for x in work]
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in work]
    from concurrent.futures import ProcessPoolExecutor
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(work) // (threads * 4))
    _JOB = (fn, work)
    try:
        with ProcessPoolExecutor(max_workers=min(threads, len(work)), mp_context=ctx) as pool:
            return list(pool.map(_apply, range(len(work)), chunksize=chunk))
    finally:
        _JOB = None
