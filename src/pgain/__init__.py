"""Walk-based potential-gain centralities on sparse undirected graphs."""

from pgain.analysis import SweepResult, delta_sweep, spearman_rho
from pgain.backend import BACKEND
from pgain.baselines import (
    communicability_vector,
    degree_centrality,
    katz_centrality,
    pagerank,
)
from pgain.errors import (
    ParameterError,
    ParseError,
    PgainError,
    SeriesOverflowError,
    UndefinedCorrelationError,
)
from pgain.gain import (
    GainParams,
    crossover_delta,
    exponential_potential_gain,
    gain_with_trace,
    geometric_potential_gain,
)
from pgain.graph import Graph, parse_edge_list
from pgain.spectral import (
    SpectralEstimate,
    eigenvector_centrality,
    lanczos,
)
from pgain.vectors import CentralityVector, ConvergenceTrace

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CentralityVector",
    "ConvergenceTrace",
    "GainParams",
    "Graph",
    "ParameterError",
    "ParseError",
    "PgainError",
    "SeriesOverflowError",
    "SpectralEstimate",
    "SweepResult",
    "UndefinedCorrelationError",
    "communicability_vector",
    "crossover_delta",
    "degree_centrality",
    "delta_sweep",
    "eigenvector_centrality",
    "exponential_potential_gain",
    "gain_with_trace",
    "geometric_potential_gain",
    "katz_centrality",
    "lanczos",
    "pagerank",
    "parse_edge_list",
    "spearman_rho",
]
