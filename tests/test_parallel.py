"""The fork map: each worker takes one contiguous, balanced share and
inherits the job, results come back in input order, worker errors and
deaths reach the parent, and without fork the map runs in-process."""

import os
import signal
import subprocess
import sys
import threading

import pytest

from motifdiff import counting
from motifdiff.cli import main
from motifdiff.errors import CapacityError, SeriesDivergenceError
from motifdiff.parallel import ordered_map

from conftest import src_env

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="workers are forked")


@pytest.fixture()
def deadline():
    """Fail a map that blocks for a minute instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("ordered_map blocked for 60 s")

    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@needs_fork
def test_workers_inherit_an_unpicklable_closure(deadline):
    lock = threading.Lock()  # pickling the callable would fail on this

    def square(share):
        with lock:
            return [(x * x, os.getpid()) for x in share]

    got = ordered_map(square, range(9), threads=2)
    assert [value for value, _ in got] == [x * x for x in range(9)]
    assert os.getpid() not in {pid for _, pid in got}


def test_without_fork_the_map_runs_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    got = ordered_map(lambda share: [(x + 1, os.getpid()) for x in share],
                      range(5), threads=2)
    assert got == [(x + 1, os.getpid()) for x in range(5)]


def test_the_first_failing_item_raises(deadline):
    # at 2 threads the shares are items 0-2 and 3-5: the second share fails
    # at item 3, or both fail and the lower share's item 1 wins over item 4
    for failing, first in (((3, 4), 3), ((1, 4), 1)):
        def check(share):
            for x in share:
                if x in failing:
                    raise ValueError(f"item {x}")
            return list(share)

        with pytest.raises(ValueError, match=f"^item {first}$"):
            ordered_map(check, range(6), threads=2)


@needs_fork
def test_shares_are_contiguous_and_balanced(deadline):
    got = ordered_map(lambda share: [(os.getpid(), type(share))] * len(share),
                      range(7), threads=3)
    groups = {}
    for x, (pid, kind) in enumerate(got):
        groups.setdefault(pid, []).append(x)
        assert kind is range  # sliced, not copied into a list
    assert sorted(groups.values()) == [[0, 1], [2, 3], [4, 5, 6]]
    assert os.getpid() not in groups


def test_one_worker_or_one_item_stays_in_process():
    pid = os.getpid()

    def tag(share):
        return [(x, os.getpid()) for x in share]

    assert ordered_map(tag, [7], threads=4) == [(7, pid)]
    assert ordered_map(tag, range(3), threads=1) == [(x, pid) for x in range(3)]


@needs_fork
def test_a_worker_error_keeps_its_type_and_message(deadline, monkeypatch,
                                                  tmp_path, capsys):
    def refuse(x):
        if x == 2:
            raise CapacityError("item 2 is over the cap")
        return x

    with pytest.raises(CapacityError, match="^item 2 is over the cap$"):
        ordered_map(lambda share: [refuse(x) for x in share], range(5),
                    threads=2)

    def diverge(x):
        if x == 3:
            raise SeriesDivergenceError("item 3 diverged", ratio=3.5)
        return x

    with pytest.raises(SeriesDivergenceError,
                       match="^item 3 diverged$") as err:
        ordered_map(lambda share: [diverge(x) for x in share], range(5),
                    threads=2)
    assert err.value.ratio == 3.5

    data = str(tmp_path / "train.jsonl")
    assert main(["gen-data", "--pattern", "c3", "--n", "4", "--count", "4",
                 "--seed", "7", "--out", data]) == 0

    def over_cap(g, pattern):
        raise CapacityError(f"{pattern.name} is over the cap")

    monkeypatch.setattr(counting, "count_subgraphs", over_cap)
    capsys.readouterr()
    assert main(["count", "--in", data, "--patterns", "c3",
                 "--threads", "2"]) == 2
    assert capsys.readouterr().err == "error: c3 is over the cap\n"


@needs_fork
@pytest.mark.parametrize("dying, expected", [
    (1, "worker 1 of 2 exited without returning its share"),
    # worker 1 then blocks writing a share larger than a pipe buffer; once
    # the parent stops reading, its write must fail rather than hang
    (0, "worker 0 of 2 exited without returning its share"),
])
def test_a_worker_that_dies_raises_in_the_parent(dying, expected):
    code = f"""
import os
from motifdiff.parallel import ordered_map
try:
    # worker k's share is items 3k to 3k+2; the dying worker exits at 3k
    ordered_map(lambda share: [os._exit(1) if x == {3 * dying} else bytes(100_000)
                               for x in share], range(6), threads=2)
except RuntimeError as exc:
    print(exc)
"""
    with subprocess.Popen([sys.executable, "-c", code], env=src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the workers too
            raise
    assert proc.returncode == 0, err
    assert out == expected + "\n"


@needs_fork
def test_results_larger_than_a_pipe_buffer_arrive_in_order(deadline):
    got = ordered_map(lambda share: [bytes([x]) * 100_000 for x in share],
                      range(6), threads=3)
    assert got == [bytes([x]) * 100_000 for x in range(6)]
