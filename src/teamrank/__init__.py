"""Team-context swap ranking.

Rank candidate swap-in objects from a database against each member of a team
so that the post-exchange team lands as close as possible to a target team
under a one-sided (truncated) weighted Euclidean distance. Ships an
exhaustive baseline, an equivalent index-backed method with exact block I/O
accounting, Kendall-tau attribute weighting, negative-binomial synthetic
data generation with a chi-square goodness-of-fit check, and a benchmark
harness plus CLI on top.
"""

from .core import (
    ObjectRecord,
    ObjectSpace,
    TargetContext,
    TeamContext,
    aggregate_team,
    attribute_vector,
    diff,
    post_exchange_diff,
    post_exchange_distance,
    team_from_ids,
    team_from_records,
    truncated_distance,
    truncating_vector,
    weight_vector,
)
from .dataio import (
    DatasetManifest,
    GofResult,
    NbParams,
    chi_square_gof,
    chi_square_statistic,
    gen_synthetic,
    load_manifest,
    load_objects,
    load_rosters,
    load_teams,
    nb_mean,
    nb_variance,
    sample_negative_binomial,
    write_objects_csv,
)
from .errors import TeamRankError
from .nnindex import IoStats, NnIndex, build_index, fingerprint
from .ranking import (
    CorollaryReport,
    NormalizedCandidate,
    SwapRecommendation,
    VirtualObject,
    brute_force_rank,
    normalized_candidate,
    odis,
    rtc_star_rank,
    verify_corollary,
    virtual_object,
)
from .weighting import (
    EPSILON_WEIGHT,
    RankedSeries,
    TargetSelection,
    WeightResult,
    compute_weights,
    kendall_tau,
    select_target,
)

__version__ = "0.1.0"
