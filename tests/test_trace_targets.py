"""The benchmark's traced replay wraps functions by name; a rename in the
package must fail here, not only in a benchmark run."""

import sys
from pathlib import Path

import pytest

import motifdiff.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOAD_NAMES = ("eval-dense", "pipeline-planted", "sample-wide")


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        assert tracing.install_all(tracer) == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_replay_after_a_plain_one_records_every_span(
        name, tmp_path, monkeypatch):
    # as the benchmark's --trace 1 does, in one process: a plain replay,
    # then a traced one that must still reach every span the workload
    # requires (a memo filled by the plain pass would hide one)
    pytest.importorskip("networkx")
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)
    wl = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MOTIFDIFF_THREADS", "1")

    def cli(argv):
        # looked up on every call, so a traced pass runs the wrapped main
        assert sys.modules["motifdiff.cli"].main(argv) == 0

    seed = 3
    wl.prepare(tmp_path, seed, cli)
    outputs = []
    for traced in (False, True):
        tracer = tracing.Tracer()
        try:
            if traced:
                assert tracing.install_all(tracer) == []
            for argv in wl.sequence(seed):
                cli(argv)
        finally:
            tracer.uninstall()
        outputs.append([(tmp_path / out).read_bytes() for out in wl.outputs()])
    recorded = {span[0] for span in tracer.spans}
    assert sorted(set(wl.spans) - recorded) == []
    assert outputs[0] == outputs[1]
