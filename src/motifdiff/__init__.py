"""Subgraph-count evaluation for graph generative models, plus an exact-score
Gaussian graph-diffusion testbed."""

from .counting import (CountDistribution, count_injective_homs, count_rooted,
                       count_subgraphs, count_table, naive_count_oracle)
from .datagen import plant_pattern_dataset
from .dataio import read_dataset, write_dataset
from .diffusion import (BasisExpansionReport, NoiseSchedule, ScoreConfig,
                        ScoreOracle, perturb, quantize, verify_basis_expansion)
from .errors import (CapacityError, ContractError, GenerationError,
                     InputError, MotifdiffError, NumericalRegimeError,
                     SeriesDivergenceError)
from .evaluation import EvalReport, evaluate, novelty_ratio, tv_distance
from .graphs import (Dataset, Graph, Pattern, automorphism_count,
                     canonical_form, graph_from_edge_list,
                     marked_canonical_form)
from .patterns import (PATTERN_LIBRARY, PATTERN_NAMES, derive_marked_patterns,
                       get_pattern, resolve_patterns)
from .polynomials import (equivariant_basis, invariant_basis, monomial_sum,
                          pinned_monomial_matrix)

__version__ = "0.1.0"

__all__ = [
    "BasisExpansionReport", "CapacityError", "ContractError",
    "CountDistribution", "Dataset", "EvalReport", "GenerationError", "Graph",
    "InputError", "MotifdiffError",
    "NoiseSchedule", "NumericalRegimeError", "PATTERN_LIBRARY",
    "PATTERN_NAMES", "Pattern", "ScoreConfig", "ScoreOracle",
    "SeriesDivergenceError", "automorphism_count",
    "canonical_form", "count_injective_homs", "count_rooted",
    "count_subgraphs", "count_table", "derive_marked_patterns",
    "equivariant_basis", "evaluate", "get_pattern", "graph_from_edge_list",
    "invariant_basis", "marked_canonical_form", "monomial_sum",
    "naive_count_oracle", "novelty_ratio",
    "perturb", "pinned_monomial_matrix", "plant_pattern_dataset", "quantize",
    "read_dataset", "resolve_patterns", "tv_distance",
    "verify_basis_expansion", "write_dataset",
]
