"""The worker pool: the job reaches forked workers by inheritance, results
come back in input order, and without fork the map runs in-process."""

import multiprocessing
import os
import threading

import pytest

from motifdiff import parallel
from motifdiff.parallel import ordered_map

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers are forked")


@needs_fork
def test_workers_inherit_an_unpicklable_closure():
    lock = threading.Lock()  # pickling the callable would fail on this

    def square(x):
        with lock:
            return x * x, os.getpid()

    got = ordered_map(square, range(9), threads=2)
    assert [value for value, _ in got] == [x * x for x in range(9)]
    assert os.getpid() not in {pid for _, pid in got}
    assert parallel._JOB is None


def test_without_fork_the_map_runs_in_process(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    got = ordered_map(lambda x: (x + 1, os.getpid()), range(5), threads=2)
    assert got == [(x + 1, os.getpid()) for x in range(5)]


def test_a_failing_item_raises_and_clears_the_job():
    def check(x):
        if x == 3:
            raise ValueError("item 3")
        return x

    with pytest.raises(ValueError, match="item 3"):
        ordered_map(check, range(6), threads=2)
    assert parallel._JOB is None


def test_one_worker_or_one_item_stays_in_process():
    pid = os.getpid()
    assert ordered_map(lambda x: (x, os.getpid()), [7], threads=4) == [(7, pid)]
    assert ordered_map(lambda x: (x, os.getpid()), range(3), threads=1) == [
        (x, pid) for x in range(3)]
