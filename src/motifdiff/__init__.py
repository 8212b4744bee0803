"""Subgraph-count evaluation for graph generative models, plus an exact-score
Gaussian graph-diffusion testbed."""

from importlib import import_module

from .config import NoiseSchedule, ScoreConfig
from .counting import (count_injective_homs, count_subgraphs, count_table,
                       histogram)
from .datagen import plant_pattern_dataset
from .dataio import read_dataset, write_dataset
from .errors import (CapacityError, ContractError, GenerationError,
                     InputError, MotifdiffError, NumericalRegimeError,
                     SeriesDivergenceError)
from .evaluation import evaluate, novelty_ratio, tv_distance
from .graphs import (Dataset, Graph, Pattern, automorphism_count,
                     canonical_form, marked_canonical_form)
from .patterns import (PATTERN_LIBRARY, PATTERN_NAMES, derive_marked_patterns,
                       get_pattern, resolve_patterns)

__version__ = "0.1.0"

# the numpy-backed names, imported on first use: counting and evaluation
# never load numpy
_LAZY = {**dict.fromkeys(("ScoreOracle", "quantize", "verify_basis_expansion"),
                         "diffusion"),
         **dict.fromkeys(("equivariant_basis", "invariant_basis", "monomial_sum",
                          "pinned_monomial_matrix"), "polynomials")}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = [
    "CapacityError", "ContractError", "Dataset", "GenerationError", "Graph",
    "InputError", "MotifdiffError",
    "NoiseSchedule", "NumericalRegimeError", "PATTERN_LIBRARY",
    "PATTERN_NAMES", "Pattern", "ScoreConfig", "ScoreOracle",
    "SeriesDivergenceError", "automorphism_count",
    "canonical_form", "count_injective_homs",
    "count_subgraphs", "count_table", "derive_marked_patterns",
    "equivariant_basis", "evaluate", "get_pattern", "histogram",
    "invariant_basis", "marked_canonical_form", "monomial_sum",
    "novelty_ratio",
    "pinned_monomial_matrix", "plant_pattern_dataset", "quantize",
    "read_dataset", "resolve_patterns", "tv_distance",
    "verify_basis_expansion", "write_dataset",
]
