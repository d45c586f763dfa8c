import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamrank.core import ObjectRecord, TargetContext, team_from_records
from teamrank.errors import DimensionMismatch, EmptyEliteSet, InsufficientData
from teamrank.weighting import (
    EPSILON_WEIGHT,
    RankedSeries,
    compute_weights,
    kendall_tau,
    select_target,
)


def tau_oracle(x, y):
    """O(n^2) pair counting: the independent reference for kendall_tau."""
    n = len(x)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            product = (x[i] - x[j]) * (y[i] - y[j])
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0

    def test_perfect_reversal(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_one_discordant_pair(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_tie_in_x_counts_as_neither(self):
        assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    def test_tie_in_y_counts_as_neither(self):
        assert kendall_tau([1, 2, 3], [5, 5, 7]) == pytest.approx(2 / 3)

    def test_constant_series_is_zero(self):
        assert kendall_tau([3, 3, 3, 3], [1, 2, 3, 4]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kendall_tau([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            kendall_tau([1], [1])

    def test_matches_pair_count_oracle_with_ties(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            x = rng.integers(0, 12, size=n).astype(float)
            y = rng.integers(0, 12, size=n).astype(float)
            assert kendall_tau(x, y) == pytest.approx(tau_oracle(x, y), abs=1e-12)

    @given(st.permutations(list(range(8))))
    def test_negating_one_series_negates_tau(self, perm):
        x = list(range(8))
        y = [float(v) for v in perm]
        assert kendall_tau(x, [-v for v in y]) == pytest.approx(-kendall_tau(x, y), abs=1e-12)

    @given(st.permutations(list(range(7))))
    def test_shared_permutation_leaves_tau_unchanged(self, perm):
        rng = np.random.default_rng(23)
        x = rng.normal(size=7)
        y = rng.normal(size=7)
        perm = list(perm)
        assert kendall_tau(x[perm], y[perm]) == pytest.approx(kendall_tau(x, y), abs=1e-12)


class TestComputeWeights:
    def test_column_identical_to_ranking_weighs_one(self):
        stats = np.array([[1.0], [2.0], [3.0]])
        result = compute_weights(stats, RankedSeries(np.array([1.0, 2.0, 3.0])))
        assert result.weights[0] == 1.0
        assert result.floored == ()

    def test_constant_column_floors_to_epsilon(self):
        stats = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        result = compute_weights(stats, RankedSeries(np.array([1.0, 2.0, 3.0])))
        assert result.weights[0] == EPSILON_WEIGHT
        assert result.floored == (0,)

    def test_negative_association_uses_magnitude(self):
        stats = np.array([[3.0], [2.0], [1.0]])
        result = compute_weights(stats, RankedSeries(np.array([1.0, 2.0, 3.0])))
        assert result.weights[0] == 1.0

    def test_weights_always_positive(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            stats = rng.integers(0, 5, size=(6, 4)).astype(float)
            wins = RankedSeries(rng.integers(0, 80, size=6).astype(float))
            result = compute_weights(stats, wins)
            assert np.all(result.weights > 0.0)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compute_weights(np.ones((3, 2)), RankedSeries(np.array([1.0, 2.0])))


def _team(vec, team_id="C"):
    member = ObjectRecord(id="m0", label="m0", lam=1.0, attrs=np.asarray(vec, dtype=float))
    return team_from_records([member], team_id=team_id)


class TestSelectTarget:
    def test_singleton(self):
        team = _team([1.0, 1.0])
        only = TargetContext(team_id="T", aggregate=[9.0, 9.0])
        assert select_target(team, [only], [1.0, 1.0]).target_id == "T"

    def test_two_candidate_argmin(self):
        team = _team([1.0, 1.0])
        t1 = TargetContext(team_id="T1", aggregate=[2.0, 1.0])
        t2 = TargetContext(team_id="T2", aggregate=[1.0, 3.0])
        selection = select_target(team, [t2, t1], [1.0, 1.0])
        assert selection.target_id == "T1"
        assert selection.distance == pytest.approx(1.0)

    def test_tie_breaks_lexicographically(self):
        team = _team([0.0, 0.0])
        a = TargetContext(team_id="B", aggregate=[1.0, 0.0])
        b = TargetContext(team_id="A", aggregate=[0.0, 1.0])
        assert select_target(team, [a, b], [1.0, 1.0]).target_id == "A"

    def test_empty_elite_set(self):
        with pytest.raises(EmptyEliteSet):
            select_target(_team([1.0]), [], [1.0])

    def test_selection_is_no_worse_than_any_candidate(self):
        rng = np.random.default_rng(31)
        from teamrank.core import diff, truncated_distance, truncating_vector

        for _ in range(25):
            team = _team(rng.uniform(0, 50, 3))
            elite = [
                TargetContext(team_id=f"T{j}", aggregate=rng.uniform(0, 80, 3)) for j in range(6)
            ]
            w = rng.uniform(0.2, 2.0, 3)
            selection = select_target(team, elite, w)
            for cand in elite:
                gap = diff(cand, team)
                assert selection.distance <= truncated_distance(gap, truncating_vector(gap), w) + 1e-12
