"""Decay, degree, and closeness centrality on connected graphs.

Exact pairwise ordering machinery (lexicographic and dominance comparators,
half-range sufficient conditions), maximizer-set computation with exact tie
handling, and a deterministic Monte-Carlo harness over seeded connected
Erdős–Rényi samples.
"""

from .centrality import (
    CentralityTable,
    DeltaGrid,
    centrality_table,
    dc_difference_coeffs,
    dc_difference_factored,
    dc_difference_factored_eps,
    dc_difference_sign,
    decay_centrality,
    decay_curve,
    decay_matrix,
)
from .generation import (
    RejectionLimitError,
    TrialSeed,
    sample_connected_gnp,
    sample_gnp,
)
from .graph import (
    DisconnectedGraphError,
    DistanceProfile,
    Graph,
    all_profiles,
    build_graph,
    distance_profile,
    profile_matrix,
)
from .meta import VERSION as __version__
from .ordering import (
    ComparisonVerdict,
    MaximizerSets,
    Relation,
    SufficiencyResult,
    check_farness_dominance,
    check_high_delta_conditions,
    check_low_delta_conditions,
    check_profile_dominance,
    lex_compare,
    lex_compare_cvec,
    maximizer_sets,
    ud_compare,
)
from .simulation import (
    AggregateStats,
    SimulationConfig,
    TrialRecord,
    aggregate,
    run_experiment,
    run_trial,
    run_trials,
)

__all__ = [
    "AggregateStats",
    "CentralityTable",
    "ComparisonVerdict",
    "DeltaGrid",
    "DisconnectedGraphError",
    "DistanceProfile",
    "Graph",
    "MaximizerSets",
    "Relation",
    "RejectionLimitError",
    "SimulationConfig",
    "SufficiencyResult",
    "TrialRecord",
    "TrialSeed",
    "__version__",
    "aggregate",
    "all_profiles",
    "build_graph",
    "centrality_table",
    "check_farness_dominance",
    "check_high_delta_conditions",
    "check_low_delta_conditions",
    "check_profile_dominance",
    "dc_difference_coeffs",
    "dc_difference_factored",
    "dc_difference_factored_eps",
    "dc_difference_sign",
    "decay_centrality",
    "decay_curve",
    "decay_matrix",
    "distance_profile",
    "lex_compare",
    "lex_compare_cvec",
    "maximizer_sets",
    "profile_matrix",
    "run_experiment",
    "run_trial",
    "run_trials",
    "sample_connected_gnp",
    "sample_gnp",
    "ud_compare",
]
