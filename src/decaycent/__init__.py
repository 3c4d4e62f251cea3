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
    Graph,
    build_graph,
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
