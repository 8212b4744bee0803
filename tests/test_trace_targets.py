"""The benchmark's traced replay wraps functions by name; a rename in the
package must fail here, not only in a benchmark run."""

from pathlib import Path

import motifdiff.cli  # noqa: F401  (loads every module the tracer wraps)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_trace_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        assert tracing.install_all(tracer) == []
    finally:
        tracer.uninstall()
