"""Walk-based potential-gain centralities on sparse undirected graphs."""

from pgain.analysis import (
    CorrelationReport,
    SweepResult,
    correlation_matrix,
    convergence_report,
    delta_sweep,
    spearman_rho,
)
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
from pgain.graph import Graph, degree_vector, parse_edge_list
from pgain.spectral import (
    SpectralEstimate,
    eigenvector_centrality,
    power_iteration,
    power_iteration_rules,
)
from pgain.vectors import CentralityVector, ConvergenceTrace

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CentralityVector",
    "ConvergenceTrace",
    "CorrelationReport",
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
    "convergence_report",
    "correlation_matrix",
    "crossover_delta",
    "degree_centrality",
    "degree_vector",
    "delta_sweep",
    "eigenvector_centrality",
    "exponential_potential_gain",
    "gain_with_trace",
    "geometric_potential_gain",
    "katz_centrality",
    "pagerank",
    "parse_edge_list",
    "power_iteration",
    "power_iteration_rules",
    "spearman_rho",
]
