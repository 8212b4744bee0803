"""The `motifdiff` command's exit path, against `sys.exit(main(argv))`.

`python -m motifdiff` flushes stdout and stderr and ends without the
interpreter's teardown; every run here must match a reference process that
leaves the ordinary way. PYTHONUNBUFFERED is unset, so stdout to a pipe or
a file is block-buffered, as in a shell pipeline. Runs started with stdout
or stderr closed, where Python sets that stream to None, check the rule for
closed streams: human lines go to stderr or nowhere, and a report meant for
a closed stdout exits 2.
"""

import json
import os
import subprocess
import sys

import pytest

from motifdiff.cli import main
from motifdiff.patterns import PATTERN_NAMES

from conftest import src_env

REFERENCE = "import sys; from motifdiff.cli import main; sys.exit(main(sys.argv[1:]))"


def both(argv, stdout=subprocess.PIPE):
    """(entry, reference) CompletedProcess of one argv."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return [subprocess.run([sys.executable, *head, *argv], stdout=stdout,
                           stderr=subprocess.PIPE, env=env, timeout=120)
            for head in (["-m", "motifdiff"], ["-c", REFERENCE])]


def assert_same(entry, reference):
    assert entry.returncode == reference.returncode
    assert entry.stdout == reference.stdout
    assert entry.stderr == reference.stderr


@pytest.fixture(scope="module")
def hosts(tmp_path_factory):
    path = tmp_path_factory.mktemp("entry") / "hosts.jsonl"
    assert main(["gen-data", "--pattern", "c4", "--n", "6", "--count", "600",
                 "--seed", "1", "--out", str(path)]) == 0
    return str(path)


def test_large_report_arrives_whole_over_a_pipe(hosts):
    # past 64 KB, more than a pipe holds at once, so the final flush blocks
    # until the reader has taken it
    entry, reference = both(["count", "--in", hosts, "--patterns",
                             ",".join(PATTERN_NAMES), "--threads", "2"])
    assert entry.returncode == 0
    assert len(entry.stdout) > 64 * 1024
    assert entry.stdout.endswith(b"}\n")
    assert_same(entry, reference)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("graphs,patterns", [
    (10, "c3"),  # 0.2 KB: the failed flush keeps the report buffered
    (600, "c3"),  # 6.9 KB, over /dev/full's 4 KiB buffer: it drops it
    (600, ",".join(PATTERN_NAMES)),  # 88 KB: the write fails in main
])
def test_stdout_to_a_full_device(hosts, tmp_path, graphs, patterns):
    path = tmp_path / "hosts.jsonl"
    with open(hosts) as src:
        path.write_text("".join(src.readlines()[:graphs]))
    with open("/dev/full", "wb") as full:
        entry, reference = both(["count", "--in", str(path), "--patterns",
                                 patterns, "--threads", "2"], stdout=full)
    if patterns == "c3":
        assert entry.returncode == 120
        assert b"Exception ignored in: <_io.TextIOWrapper" in entry.stderr
    assert_same(entry, reference)


def test_refusal_and_usage_error_exit_2(hosts):
    for argv in (["count", "--in", hosts, "--patterns", "c99"],
                 ["count", "--in", hosts]):
        entry, reference = both(argv)
        assert entry.returncode == 2
        assert_same(entry, reference)


def test_failing_verify_exits_1():
    entry, reference = both(["verify", "--suite", "basis", "--n", "3",
                             "--tolerance", "1e-18"])
    assert entry.returncode == 1
    assert b'"passed": false' in entry.stdout
    assert_same(entry, reference)


def test_importing_the_entry_module_runs_nothing():
    done = subprocess.run([sys.executable, "-c", "import motifdiff.__main__"],
                          capture_output=True, env=src_env(), timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


def closed(fd, argv):
    """`python -m motifdiff argv`, started with file descriptor `fd` closed."""
    return subprocess.run([sys.executable, "-m", "motifdiff", *argv],
                          capture_output=True, env=src_env(), timeout=120,
                          preexec_fn=lambda: os.close(fd))


def test_closed_stderr_keeps_human_lines_off_stdout(hosts, tmp_path):
    # print(..., file=None) would write them to stdout
    done = closed(2, ["count", "--in", hosts, "--patterns", "c3"])
    assert done.returncode == 0
    assert json.loads(done.stdout)["n_graphs"] == 600
    refused = closed(2, ["count", "--in", hosts, "--patterns", "c99"])
    assert (refused.returncode, refused.stdout) == (2, b"")
    out = tmp_path / "counts.json"
    done = closed(2, ["count", "--in", hosts, "--patterns", "c3",
                      "--out", str(out)])
    assert (done.returncode, done.stdout) == (0, b"")
    assert json.loads(out.read_text())["n_graphs"] == 600


def test_closed_stdout_refuses_a_report_with_exit_2(hosts, tmp_path):
    done = closed(1, ["count", "--in", hosts, "--patterns", "c3"])
    assert done.returncode == 2
    assert done.stderr == b"error: stdout is closed; name a report file with --out\n"
    out = tmp_path / "counts.json"
    done = closed(1, ["count", "--in", hosts, "--patterns", "c3",
                      "--out", str(out)])
    assert done.returncode == 0
    assert json.loads(out.read_text())["n_graphs"] == 600
