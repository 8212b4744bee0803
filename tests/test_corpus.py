"""Pinned CLI bytes: every call in corpus.json, replayed against its digests.

The calls run in order, in-process through `main`, in one temporary
directory and with relative paths, so `gen-data` writes the inputs the later
calls read. `count`, `eval` and `sample` run at 1, 2 and 3 workers, each
from the same files. A call's exit code and the sha256 of its stdout, its
stderr and every file it writes must equal the digests recorded in
corpus.json. `count`, `eval` and `gen-data` never load numpy, so their
digests hold everywhere; `sample` and `verify` digests are compared only
under the numpy release they were recorded with.

To record the digests again after a deliberate output change (the argv
lists in corpus.json stay as written):

    PYTHONPATH=src python tests/test_corpus.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from motifdiff.cli import main

CORPUS = Path(__file__).with_name("corpus.json")
MANIFEST = json.loads(CORPUS.read_text(encoding="utf-8"))
THREADED = ("count", "eval", "sample")
NUMPY_BACKED = ("sample", "verify")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {p.name: _sha(p.read_bytes()) for p in root.iterdir()}


def _thread_counts(call: dict) -> tuple[int, ...]:
    return (1, 2, 3) if call["argv"][0] in THREADED else (1,)


def replay(corpus: dict, root: Path) -> dict[tuple[str, int], dict]:
    """Run every call in `root`; its record per (call id, worker count)."""
    records = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        # argparse wraps its usage line to the terminal's width
        mp.setenv("COLUMNS", "80")
        for name, text in corpus["inputs"].items():
            (root / name).write_text(text, encoding="utf-8")
        for call in corpus["calls"]:
            written: dict[str, str] = {}
            for threads in _thread_counts(call):
                # each worker count writes its files afresh (the calls
                # write only new files, never over an input)
                for name in written:
                    (root / name).unlink()
                argv = list(call["argv"])
                if argv[0] in THREADED:
                    argv += ["--threads", str(threads)]
                before = _files(root)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse's usage errors
                        code = exc.code
                written = {name: digest for name, digest in _files(root).items()
                           if before.get(name) != digest}
                records[call["id"], threads] = {
                    "exit": code,
                    "stdout": _sha(out.getvalue().encode()),
                    "stderr": _sha(err.getvalue().encode()),
                    "files": written,
                }
    return records


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return replay(MANIFEST, tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("call, threads", [
    pytest.param(call, threads, id=f"{call['id']}-threads{threads}")
    for call in MANIFEST["calls"] for threads in _thread_counts(call)])
def test_call_matches_its_recorded_digests(records, call, threads):
    got = records[call["id"], threads]
    recorded_numpy = MANIFEST["numpy"]
    if call["argv"][0] in NUMPY_BACKED and np.__version__ != recorded_numpy:
        pytest.skip(f"{call['id']}: digests recorded under numpy"
                    f" {recorded_numpy}, this is numpy {np.__version__}")
    want = {key: call[key] for key in ("exit", "stdout", "stderr", "files")}
    assert got == want


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        records = replay(MANIFEST, Path(tmp))
    MANIFEST["numpy"] = np.__version__
    for call in MANIFEST["calls"]:
        call.update(records[call["id"], 1])
    CORPUS.write_text(json.dumps(MANIFEST, indent=2) + "\n", encoding="utf-8")
    print(f"recorded {len(MANIFEST['calls'])} calls under numpy {np.__version__}")
