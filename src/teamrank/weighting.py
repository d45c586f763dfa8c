"""Per-dimension weights from rank correlation, and target selection.

Each attribute column is correlated with the final team ranking using
Kendall's tau; the absolute value of tau becomes the dimension's weight,
floored at a small epsilon so downstream distance math can assume strictly
positive weights. Tau here is the plain pair-count form

    tau = (concordant - discordant) / (n * (n - 1) / 2)

where tied pairs count as neither concordant nor discordant and the
denominator is left untouched. No tie-corrected variant is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import TargetContext, TeamContext, diff, truncated_distance, truncating_vector, weight_vector
from .errors import DimensionMismatch, EmptyEliteSet, InsufficientData

__all__ = [
    "EPSILON_WEIGHT",
    "RankedSeries",
    "TargetSelection",
    "WeightResult",
    "kendall_tau",
    "compute_weights",
    "select_target",
]

EPSILON_WEIGHT = 1e-6


@dataclass(frozen=True)
class RankedSeries:
    """One value per team, e.g. season wins, where larger is better.

    Correlation needs at least two entries; that is enforced by the
    operations, not here, so a single-team file still loads cleanly.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionMismatch(f"ranked series must be 1-D, got shape {arr.shape}")
        if arr.size < 1:
            raise InsufficientData("a ranked series needs at least one entry")
        if not np.all(np.isfinite(arr)):
            raise InsufficientData("ranked series contains non-finite values")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class TargetSelection:
    """Chosen target for a team, with the initial truncated distance."""

    team_id: str
    target_id: str
    distance: float


class WeightResult(NamedTuple):
    weights: np.ndarray
    floored: tuple[int, ...]


def _series_values(x) -> np.ndarray:
    if isinstance(x, RankedSeries):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"series must be 1-D, got shape {arr.shape}")
    return arr


def kendall_tau(x, y) -> float:
    """Kendall rank correlation in [-1, 1] between two equally long series.

    Sums sign(x_i - x_j) * sign(y_i - y_j) over all pairs as integers, in
    O(n^2) time and memory; callers correlate one entry per team.
    """
    xv = _series_values(x)
    yv = _series_values(y)
    if xv.size != yv.size:
        raise DimensionMismatch(f"series lengths differ: {xv.size} != {yv.size}")
    n = xv.size
    if n < 2:
        raise InsufficientData("kendall_tau needs at least two observations")

    sx = np.sign(xv[:, None] - xv[None, :]).astype(np.int64)
    sy = np.sign(yv[:, None] - yv[None, :]).astype(np.int64)
    # the matrix holds every unordered pair twice and a zero diagonal
    concordant_minus_discordant = int(np.sum(sx * sy)) // 2
    return concordant_minus_discordant / (n * (n - 1) // 2)


def compute_weights(team_stats, final_ranking: RankedSeries) -> WeightResult:
    """Per-dimension weights |tau(column, ranking)|, floored at EPSILON_WEIGHT.

    Returns the weight vector together with the indices of dimensions whose
    association was too weak to stand on its own (constant columns included);
    those are floored rather than dropped so the dimensionality stays stable.
    """
    stats = np.asarray(team_stats, dtype=np.float64)
    if stats.ndim != 2:
        raise DimensionMismatch(f"team stats must be a 2-D matrix, got shape {stats.shape}")
    ranking = final_ranking if isinstance(final_ranking, RankedSeries) else RankedSeries(final_ranking)
    if stats.shape[0] != ranking.values.size:
        raise DimensionMismatch(
            f"{stats.shape[0]} team rows vs {ranking.values.size} ranking entries"
        )
    if stats.shape[0] < 2:
        raise InsufficientData("need at least two teams to correlate")

    taus = np.array([kendall_tau(stats[:, j], ranking.values) for j in range(stats.shape[1])])
    magnitudes = np.abs(taus)
    floored = tuple(int(j) for j in np.nonzero(magnitudes < EPSILON_WEIGHT)[0])
    weights = np.maximum(magnitudes, EPSILON_WEIGHT)
    return WeightResult(weights=weight_vector(weights), floored=floored)


def select_target(team: TeamContext, elite: Sequence[TargetContext], w) -> TargetSelection:
    """Pick the elite team at minimum truncated distance from ``team``.

    Ties break toward the lexicographically smaller target id.
    """
    if not elite:
        raise EmptyEliteSet("target selection needs a non-empty elite set")
    w = weight_vector(w)
    best: tuple[float, str] | None = None
    for cand in elite:
        gap = diff(cand, team)
        dist = truncated_distance(gap, truncating_vector(gap), w)
        key = (dist, cand.team_id)
        if best is None or key < best:
            best = key
    return TargetSelection(team_id=team.team_id, target_id=best[1], distance=best[0])
