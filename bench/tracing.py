"""In-memory spans and counters around motifdiff's layer boundaries.

The tracer wraps the public (and a few module-level) functions each layer
exposes, from outside the package: every module-global binding of a wrapped
function inside ``motifdiff.*`` is swapped for the wrapper, so calls across
modules (``from .graphs import automorphism_count``) and within one are
both seen. ``uninstall`` restores every binding. Spans are (name, start,
end, parent) records kept in a list; a layer's self time is the time of its
spans minus the time of their direct children.

A wrapped name that a later version of the package no longer has is
reported by ``install_all``; the benchmark counts it as a failure rather
than letting the metrics it feeds read 0.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "dataio", "datagen", "graphs", "counting", "evaluation",
          "diffusion", "parallel", "schemas")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.step_us: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrapper(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after` then updates counters."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if after is not None:
                after(self, end - start, parent, result, args, kwargs)
            return result
        return traced

    # -- patching --------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str, after=None) -> bool:
        """Wrap `module.attr`; False if there is no such function."""
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None)
        if original is None:
            return False
        traced = self.wrapper(name, original, after)
        for mname, m in list(sys.modules.items()):
            if not (mname == "motifdiff" or mname.startswith("motifdiff.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, key, value))
                    setattr(m, key, traced)
        return True

    def patch_method(self, cls, attr: str, name: str, after=None) -> bool:
        """Wrap `cls.attr`; False if the class defines no such method."""
        original = cls.__dict__.get(attr)
        if original is None:
            return False
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrapper(name, original, after))
        return True

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patched):
            setattr(owner, key, value)
        self._patched.clear()

    # -- aggregation -----------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive seconds per span name (outermost of a nested run of the
        same name only) and self seconds per layer."""
        inclusive: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if parent < 0 or self.spans[parent][0] != name:
                inclusive[name] += dur
            self_by_layer[name.split(".")[0]] += dur - child_time[idx]
        return inclusive, self_by_layer

    def dump(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"name": n, "start": s - origin, "end": e - origin,
                       "parent": p} for n, s, e, p in self.spans],
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# what gets wrapped, and the counters recorded at each boundary


def _count_graphs(tr, dur, parent, result, args, kwargs):
    tr.counters["dataio.graphs_read"] += len(result.graphs)


def _count_call(key):
    def after(tr, dur, parent, result, args, kwargs):
        tr.counters[key] += 1
    return after


def _count_embeddings(tr, dur, parent, result, args, kwargs):
    if parent < 0 or tr.spans[parent][0] != "counting.matcher":
        tr.counters["counting.embeddings"] += int(result)


def _oracle_built(tr, dur, parent, result, args, kwargs):
    oracle = args[0]
    perms = (math.factorial(oracle.n) if oracle.policy == "exhaustive"
             else oracle.cfg.mc_samples)
    tr.counters["diffusion.template_rows"] += oracle.num_graphs * perms
    tr.counters["diffusion.templates"] += oracle.num_templates


def _sampled(tr, dur, parent, result, args, kwargs):
    oracle = args[0]
    steps = args[1] if len(args) > 1 else kwargs["steps"]
    v, e = oracle.num_templates, oracle.num_edge_slots
    tr.counters["diffusion.score_evals"] += steps
    tr.counters["diffusion.flops"] += 4.0 * v * e * steps
    tr.counters["diffusion.bytes"] += 16.0 * v * e * steps
    tr.step_us.append(dur / steps * 1e6)


def install_parallel(tr: Tracer) -> list[str]:
    """Wrap the worker pool only; returns the targets that were missing."""
    if tr.patch_function("motifdiff.parallel", "ordered_map", "parallel.ordered_map"):
        return []
    return ["motifdiff.parallel.ordered_map"]


def install_all(tr: Tracer) -> list[str]:
    """Wrap every layer boundary the per-layer metrics are taken at;
    returns the targets that were missing."""
    from motifdiff import diffusion

    missing = install_parallel(tr)
    functions = [
        ("motifdiff.cli", "main", "cli.main", None),
        ("motifdiff.dataio", "read_dataset", "dataio.read_dataset", _count_graphs),
        ("motifdiff.dataio", "write_dataset", "dataio.write_dataset", None),
        ("motifdiff.datagen", "plant_pattern_dataset", "datagen.plant", None),
        ("motifdiff.graphs", "automorphism_count", "graphs.automorphism_count",
         _count_call("graphs.automorphism_count_calls")),
        ("motifdiff.graphs", "canonical_form", "graphs.canonical_form",
         _count_call("graphs.canonical_form_calls")),
        ("motifdiff.counting", "count_subgraphs", "counting.count_subgraphs",
         _count_call("counting.count_subgraphs_calls")),
        # the matcher: the public entry point and the search it wraps
        ("motifdiff.counting", "count_injective_homs", "counting.matcher",
         _count_embeddings),
        ("motifdiff.counting", "_count_embeddings", "counting.matcher",
         _count_embeddings),
        ("motifdiff.evaluation", "evaluate", "evaluation.evaluate", None),
        ("motifdiff.evaluation", "novelty_ratio", "evaluation.novelty", None),
        ("motifdiff.schemas", "validate_output", "schemas.validate_output", None),
    ]
    for module, attr, name, after in functions:
        if not tr.patch_function(module, attr, name, after):
            missing.append(f"{module}.{attr}")
    for attr, name, after in (("__init__", "diffusion.oracle_build", _oracle_built),
                              ("reverse_sample", "diffusion.reverse_sample", _sampled)):
        if not tr.patch_method(diffusion.ScoreOracle, attr, name, after):
            missing.append(f"motifdiff.diffusion.ScoreOracle.{attr}")
    return missing
