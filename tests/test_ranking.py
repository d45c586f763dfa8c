import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import pretend_cores, random_instance
from teamrank.core import (
    ObjectRecord,
    ObjectSpace,
    TargetContext,
    diff,
    post_exchange_diff,
    team_from_ids,
    team_from_records,
    truncated_distance,
    truncating_vector,
)
from teamrank import core, ranking
from teamrank.bench import dominant_target, target_from_elite
from teamrank.dataio import NbParams, gen_synthetic
from teamrank.errors import DimensionMismatch, InvalidArgument, NotAMember, StaleIndex
from teamrank.nnindex import build_index, index_path
from teamrank.ranking import (
    _CHUNK_ROWS,
    _PASS_ARRAYS,
    _SERIAL_ROWS,
    NormalizedCandidate,
    _exchange_distance_rows,
    _map_members,
    _member_best,
    _member_best_pruned,
    _member_top,
    _member_workers,
    _merge_and_rank,
    brute_force_rank,
    member_workers,
    normalized_candidate,
    odis,
    odis_keys,
    rtc_star_rank,
    verify_corollary,
    virtual_object,
)


def rec(rid, attrs, lam=1.0):
    return ObjectRecord(id=rid, label=rid, lam=lam, attrs=np.asarray(attrs, dtype=float))


def derived_instance():
    """Two members, two candidates, hand-enumerated pair distances."""
    r1 = rec("r1", [3, 1], lam=2.0)
    r2 = rec("r2", [9, 5], lam=1.0)
    p1 = rec("p1", [4, 6], lam=1.0)
    p2 = rec("p2", [1, 1], lam=1.0)
    space = ObjectSpace.from_records([p1, p2], ("x", "y"))
    team = team_from_records([r1, r2], team_id="C")
    target = TargetContext(team_id="T", aggregate=[10.0, 10.0])
    return space, team, target, np.array([1.0, 1.0])


class TestVirtualObject:
    def test_rate_vector_and_mask(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        assert np.array_equal(v.tv2, [0.0, 1.0])
        assert np.array_equal(v.values, [0.0, 2.5])
        assert not v.clipped

    def test_dominant_team_needs_nothing(self):
        team = team_from_records([rec("r", [10.0, 10.0])], team_id="C")
        target = TargetContext(team_id="T", aggregate=[3.0, 4.0])
        v = virtual_object(team, target, team.member("r"))
        assert np.array_equal(v.values, [0.0, 0.0])

    def test_negative_raw_value_is_clipped_and_flagged(self):
        team = team_from_records([rec("r", [-50.0])], team_id="C")
        target = TargetContext(team_id="T", aggregate=[-10.0])
        v = virtual_object(team, target, team.member("r"))
        assert np.array_equal(v.values, [0.0])
        assert v.clipped
        assert list(v.clipped_dims) == [True]

    def test_requires_membership(self):
        space, team, target, w = derived_instance()
        with pytest.raises(NotAMember):
            virtual_object(team, target, rec("outsider", [1, 1]))


class TestOdis:
    def test_identical_vectors(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        assert odis(v, NormalizedCandidate("self", v.values.copy()), w) == 0.0

    def test_dominating_candidate_is_at_zero(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        assert odis(v, normalized_candidate(rec("p1", [4, 6])), w) == 0.0

    def test_shortfall_only_counts_weak_dimensions(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        # candidate below the virtual object on the weak axis by 0.5
        value = odis(v, NormalizedCandidate("c", np.array([100.0, 2.0])), w)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_strong_dimension_surplus_never_counts(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        a = odis(v, NormalizedCandidate("c", np.array([0.0, 9.0])), w)
        b = odis(v, NormalizedCandidate("c", np.array([500.0, 9.0])), w)
        assert a == b == 0.0

    def test_monotone_in_candidate_rates(self):
        rng = np.random.default_rng(2)
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        for _ in range(50):
            rates = rng.uniform(0, 4, size=2)
            bumped = rates + rng.uniform(0, 1, size=2)
            assert odis(v, NormalizedCandidate("a", bumped), w) <= odis(
                v, NormalizedCandidate("a", rates), w
            )

    def test_dimension_mismatch(self):
        space, team, target, w = derived_instance()
        v = virtual_object(team, target, team.member("r1"))
        with pytest.raises(DimensionMismatch):
            odis(v, NormalizedCandidate("c", np.array([1.0, 2.0, 3.0])), w)


class TestRowKernels:
    """The row-blocked kernels against their whole-array expressions, bit for bit."""

    # row counts around multiples of half a kernel block
    SIZES = [1, 4095, 4096, 4097, 3 * 4096 + 7]
    # the distance kernel's (n, d): the sizes above at typical dimension
    # counts, then row counts around the kernel's own blocks at dimension
    # counts around every branch of numpy's pairwise summation (sequential
    # below 8, eight accumulators and a remainder up to 128, halves above)
    EXCHANGE_CASES = list(
        dict.fromkeys(
            [(n, d) for n in SIZES for d in (1, 3, 11, 17)]
            + [
                (n, d)
                for n in (1, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 7)
                for d in (1, 7, 8, 9, 15, 16, 17, 24, 128, 129, 136, 257)
            ]
        )
    )

    @pytest.mark.parametrize("d", [1, 3, 11, 17])
    @pytest.mark.parametrize("n", SIZES)
    def test_odis_keys_equal_the_whole_array_expression(self, n, d):
        rng = np.random.default_rng(n * 31 + d)
        rates = rng.uniform(-1.0, 4.0, size=(n, d))
        w = rng.uniform(0.1, 2.0, size=d)
        # one virtual object for every row, then one per row
        for shape in ((d,), (n, d)):
            values = rng.uniform(0.0, 3.0, size=shape)
            tv2 = (rng.random(shape) < 0.7).astype(float)
            shortfall = np.maximum(values - rates, 0.0)
            terms = w * shortfall * tv2
            expected = np.sqrt(np.sum(terms * terms, axis=1))
            assert np.array_equal(odis_keys(values, tv2, rates, w), expected)

    @pytest.mark.parametrize("n, d", EXCHANGE_CASES)
    def test_exchange_distances_equal_the_whole_array_expression(self, n, d):
        rng = np.random.default_rng(n * 37 + d)
        attrs = rng.uniform(-50.0, 400.0, size=(n, d))
        # every third row outweighs any gap, so its distance is 0: a tie
        attrs[::3] = 1e6
        lambdas = rng.uniform(1.0, 100.0, size=n)
        w = rng.uniform(0.1, 2.0, size=d)
        # one member for every row, then one member per row
        for base, lambda_r in (
            (rng.uniform(-20.0, 300.0, size=d), float(rng.uniform(1.0, 100.0))),
            (rng.uniform(-20.0, 300.0, size=(n, d)), rng.uniform(1.0, 100.0, size=n)),
        ):
            ratio = lambda_r / lambdas
            terms = w * np.maximum(base - ratio[:, None] * attrs, 0.0)
            expected = np.sqrt(np.add.reduce(terms * terms, axis=1))
            got = _exchange_distance_rows(base, lambda_r, attrs, lambdas, w)
            assert got.tobytes() == expected.tobytes()
            assert np.count_nonzero(got == 0.0) >= -(-n // 3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(_CHUNK_ROWS - 3, 2 * _CHUNK_ROWS + 3)),
        d=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        per_row=st.booleans(),
    )
    def test_exchange_distances_are_bit_identical_on_any_layout(self, n, d, seed, per_row):
        # the space's Fortran-ordered matrix, a row-major copy, and a strided gather of it
        rng = np.random.default_rng(seed)
        attrs = rng.uniform(-50.0, 400.0, size=(n, d))
        attrs[::5] = 1e6
        lambdas = rng.uniform(1.0, 100.0, size=n)
        w = rng.uniform(0.1, 2.0, size=d)
        if per_row:
            base, lambda_r = rng.uniform(-20.0, 300.0, size=(n, d)), rng.uniform(1.0, 100.0, size=n)
        else:
            base, lambda_r = rng.uniform(-20.0, 300.0, size=d), float(rng.uniform(1.0, 100.0))
        fortran = np.asfortranarray(attrs)
        wide = np.asfortranarray(np.repeat(attrs, 2, axis=1))[:, ::2]
        assert fortran.flags.f_contiguous and np.array_equal(wide, attrs)
        want = _exchange_distance_rows(base, lambda_r, attrs, lambdas, w).tobytes()
        for rows in (fortran, wide):
            assert _exchange_distance_rows(base, lambda_r, rows, lambdas, w).tobytes() == want

    # the tracemalloc bound of the two memory tests: one n x d float64 matrix
    MEMORY_N, MEMORY_D = 200_000, 11

    @pytest.mark.parametrize("method", ["bf", "build", "full-pass-build"])
    def test_peak_memory_stays_below_one_attribute_matrix(self, method, tmp_path):
        # numpy reports its buffers to tracemalloc; a kernel that makes one
        # n x d temporary already reaches the bound, while the kernel's own
        # (d, block) buffer and ratio vector stay far below it
        assert self.traced_peak(method, tmp_path) < self.MEMORY_N * self.MEMORY_D * 8

    @pytest.mark.parametrize("method, workers", [("bf", 3), ("build", 3)])
    def test_peak_memory_bound_holds_on_many_cores(self, method, workers, tmp_path, monkeypatch):
        # the worker count is capped by memory, not only by cores
        pretend_cores(monkeypatch, 8)
        stats = {}
        assert self.traced_peak(method, tmp_path, stats) < self.MEMORY_N * self.MEMORY_D * 8
        assert stats["member_workers"] == workers

    def traced_peak(self, method, tmp_path, stats_out=None):
        """tracemalloc peak, in bytes, of one five-member bf or build pass."""
        n, d = self.MEMORY_N, self.MEMORY_D
        rng = np.random.default_rng(5)
        space = ObjectSpace(
            ids=[f"o{i:06d}" for i in range(n)],
            lambdas=rng.uniform(500.0, 3000.0, size=n),
            attrs=rng.integers(0, 400, size=(n, d)).astype(float),
            attribute_names=[f"a{j}" for j in range(d)],
        )
        team = team_from_ids(space, space.ids[rng.choice(n, size=5, replace=False)], team_id="C")
        target = TargetContext(team_id="T", aggregate=team.aggregate * 1.1)
        w = np.ones(d)
        space.digest()  # cached per space, so computed before the trace
        if stats_out is not None:
            stats_out["member_workers"] = member_workers(team, space)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if method == "bf":
                brute_force_rank(team, target, space, w, 10)
            else:
                # a pruned build also builds the space's leaves, inside the trace
                build_index(space, team, target, w, 10, tmp_path, prune=method == "build").close()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


class TestBruteForce:
    def test_full_hand_enumerated_order(self):
        space, team, target, w = derived_instance()
        recs = brute_force_rank(team, target, space, w, 4)
        expected = [
            ("r1", "p1", 0.0),
            ("r1", "p2", 3.0),
            ("r2", "p1", math.sqrt(18.0)),
            ("r2", "p2", 10.0),
        ]
        assert [(r.swap_out_id, r.swap_in_id, r.new_distance) for r in recs] == expected

    def test_identity_swap_is_the_only_pair_for_a_solo_team(self):
        solo = rec("r1", [3, 1], lam=2.0)
        space = ObjectSpace.from_records([solo], ("x", "y"))
        team = team_from_records([solo], team_id="C")
        target = TargetContext(team_id="T", aggregate=[4.0, 2.0])
        w = np.array([1.0, 1.0])
        gap = diff(target, team)
        before = truncated_distance(gap, truncating_vector(gap), w)
        recs = brute_force_rank(team, target, space, w, 5)
        assert [(r.swap_out_id, r.swap_in_id) for r in recs] == [("r1", "r1")]
        assert recs[0].new_distance == before

    def test_member_only_space_never_beats_nothing_but_can_reshuffle(self):
        # swapping one member for a copy of another is allowed and may win,
        # so the only guarantee is improvement over the initial distance
        r1 = rec("r1", [3, 1], lam=2.0)
        r2 = rec("r2", [9, 5], lam=1.0)
        space = ObjectSpace.from_records([r1, r2], ("x", "y"))
        team = team_from_records([r1, r2], team_id="C")
        target = TargetContext(team_id="T", aggregate=[13.0, 7.0])
        w = np.array([1.0, 1.0])
        gap = diff(target, team)
        before = truncated_distance(gap, truncating_vector(gap), w)
        recs = brute_force_rank(team, target, space, w, 4)
        assert recs[0].new_distance <= before
        assert ("r1", "r1") in [(r.swap_out_id, r.swap_in_id) for r in recs]

    def test_zero_top_k_rejected(self):
        space, team, target, w = derived_instance()
        with pytest.raises(InvalidArgument):
            brute_force_rank(team, target, space, w, 0)

    def test_all_minimum_ties_are_retrievable_in_id_order(self):
        twin_a = rec("pa", [4, 6])
        twin_b = rec("pb", [4, 6])
        space = ObjectSpace.from_records([twin_b, twin_a], ("x", "y"))
        team = team_from_records([rec("r1", [3, 1], lam=2.0)], team_id="C")
        target = TargetContext(team_id="T", aggregate=[5.0, 9.0])
        recs = brute_force_rank(team, target, space, [1.0, 1.0], 2)
        assert [(r.swap_out_id, r.swap_in_id) for r in recs] == [("r1", "pa"), ("r1", "pb")]
        assert recs[0].new_distance == recs[1].new_distance


    def test_member_top_sorts_nan_distances_last_and_never_returns_fewer(self):
        # a distance is NaN only where the kernel meets inf - inf, at attribute
        # values near the float64 limit; lexsort puts such rows last, by id
        dist = np.array([1.0, np.nan, np.nan, 0.5, np.nan])
        ids = np.array(["a", "e", "c", "d", "b"])
        for k in range(1, 7):
            assert _member_top(dist, ids, k).tolist() == [3, 0, 4, 2, 1][:k]


class TestMemberThreads:
    # more rows than stay on the calling thread, so the passes run on a pool
    N = 4 * _CHUNK_ROWS + 7

    def test_worker_count(self, monkeypatch):
        pretend_cores(monkeypatch, 3)
        assert _member_workers(5, _SERIAL_ROWS, 11) == 1
        assert _member_workers(5, _SERIAL_ROWS + 1, 11) == 3
        assert _member_workers(2, _SERIAL_ROWS + 1, 11) == 2
        pretend_cores(monkeypatch, 1)
        assert _member_workers(5, self.N, 11) == 1

    def test_worker_count_is_capped_by_the_attribute_matrix(self, monkeypatch):
        pretend_cores(monkeypatch, 64)
        # d // _PASS_ARRAYS passes fit in the bytes of one n x d matrix; a bf
        # pass and an index build's pass hold the same arrays
        assert _PASS_ARRAYS == 3
        assert _member_workers(7, self.N, 11) == 3
        assert _member_workers(7, self.N, 12) == 4
        assert _member_workers(7, self.N, 20) == 6
        # a pass larger than the matrix still runs, on the calling thread
        assert _member_workers(7, self.N, 2) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _member_workers(7, self.N, 11) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _member_workers(7, self.N, 11) == 1

    def test_members_run_concurrently_in_a_bounded_window(self, monkeypatch):
        pretend_cores(monkeypatch, 2)
        # both workers must be inside fn at once to pass the barrier
        barrier = threading.Barrier(2, timeout=10)
        lock, alive, peak = threading.Lock(), [0], [0]

        def fn(member):
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            if member < 2:
                barrier.wait()
            time.sleep(0.002 * (member % 3))
            return member

        got = []
        for result in _map_members(fn, list(range(7)), self.N, 11):
            # a result the caller holds still counts against the window
            with lock:
                got.append(result)
                alive[0] -= 1
        assert got == list(range(7))
        assert peak[0] == 2

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        pretend_cores(monkeypatch, 2)
        error = RuntimeError("member 3")

        def fn(member):
            if member == 3:
                raise error
            return member

        with pytest.raises(RuntimeError) as caught:
            list(_map_members(fn, list(range(5)), self.N, 11))
        assert caught.value is error

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2, 5, 7])
    def test_brute_force_equals_serial_member_passes(self, monkeypatch, m, cores):
        pretend_cores(monkeypatch, cores)
        rng = np.random.default_rng(40 + m)
        # enough dimensions that four bf passes fit in the attribute matrix
        d = 4 * _PASS_ARRAYS
        space = ObjectSpace(
            ids=[f"o{i:05d}" for i in rng.permutation(self.N)],
            lambdas=rng.uniform(1.0, 50.0, size=self.N),
            attrs=rng.integers(0, 30, size=(self.N, d)).astype(float),
            attribute_names=[f"a{j}" for j in range(d)],
        )
        team = team_from_ids(space, space.ids[rng.choice(self.N, size=m, replace=False)], team_id="C")
        target = TargetContext(team_id="T", aggregate=team.aggregate * rng.uniform(0.8, 1.3, d))
        w = rng.uniform(0.2, 2.0, d)
        k = 25
        gap = diff(target, team)
        serial = [_member_best(space, gap, record, w, k) for record in team.members]
        assert brute_force_rank(team, target, space, w, k) == _merge_and_rank(
            team, target, space, w, serial, k
        )
        assert member_workers(team, space) == min(m, cores)


class TestRtcStar:
    def test_matches_brute_force_on_derived_instance(self, tmp_path):
        space, team, target, w = derived_instance()
        with build_index(space, team, target, w, 1, tmp_path, run_length=4) as index:
            assert rtc_star_rank(team, target, space, w, index, 4) == brute_force_rank(
                team, target, space, w, 4
            )

    def test_singleton_space(self, tmp_path):
        only = rec("p1", [4, 6])
        space = ObjectSpace.from_records([only], ("x", "y"))
        team = team_from_records([rec("r1", [3, 1], lam=2.0), rec("r2", [9, 5])], team_id="C")
        target = TargetContext(team_id="T", aggregate=[10.0, 10.0])
        w = [1.0, 1.0]
        with build_index(space, team, target, w, 3, tmp_path) as index:
            recs = rtc_star_rank(team, target, space, w, index, 1)
        assert len(recs) == 1
        # the single candidate pairs with whichever member it helps most
        assert (recs[0].swap_out_id, recs[0].swap_in_id) == ("r1", "p1")
        assert recs[0].new_distance == 0.0

    def test_stale_index_detected(self, tmp_path):
        space, team, target, w = derived_instance()
        index = build_index(space, team, target, w, 1, tmp_path)
        with index:
            with pytest.raises(StaleIndex):
                rtc_star_rank(team, target, space, [2.0, 2.0], index, 2)
            other_target = TargetContext(team_id="T", aggregate=[11.0, 10.0])
            with pytest.raises(StaleIndex):
                rtc_star_rank(team, other_target, space, w, index, 2)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    # identity swaps of different members tie in exact arithmetic, and the
    # paper's lambda_r * odis rounds above the exact distance: runs keyed by
    # the exact distance still return bf's order
    @example(278)
    @example(2927)
    def test_oracle_equivalence_on_random_instances(self, seed):
        import dataclasses
        import tempfile

        negative = random_instance(seed, n=int(20 + seed % 80), negative=True)
        min_rates = negative.space.min_rates()
        # a clipped dimension of the paper's virtual object meets negative rates
        assert any(
            np.any(virtual_object(negative.team, negative.target, r).clipped_dims & (min_rates < 0.0))
            for r in negative.team.members
        )
        ties = random_instance(seed, n=int(20 + seed % 80), ties_at_zero=True)
        gap = diff(ties.target, ties.team)
        # an elite target: some dimension is strong, some swap flips one, and
        # some member has two candidates that close every gap
        assert np.any(gap < 0.0)
        assert any(
            np.any((gap < 0.0) & (post_exchange_diff(gap, r, c) > 0.0))
            for r in ties.team.members
            for c in ties.space.records()
        )
        assert any(
            sum(np.all(post_exchange_diff(gap, r, c) <= 0.0) for c in ties.space.records()) >= 2
            for r in ties.team.members
        )
        small = random_instance(seed, n=int(1 + seed % 6))
        small = dataclasses.replace(small, top_k=len(small.space) + seed % 3)

        for inst in (random_instance(seed, n=int(20 + seed % 80)), negative, ties, small):
            expected = brute_force_rank(inst.team, inst.target, inst.space, inst.weights, inst.top_k)
            with tempfile.TemporaryDirectory() as tmp:
                with build_index(
                    inst.space, inst.team, inst.target, inst.weights, inst.block_size, tmp,
                    run_length=inst.top_k,
                ) as index:
                    stats = {}
                    got = rtc_star_rank(
                        inst.team, inst.target, inst.space, inst.weights, index, inst.top_k,
                        stats_out=stats,
                    )
            assert got == expected
            assert stats["scan_depths"] == [min(inst.top_k, len(inst.space))] * inst.team.size
            assert stats["fallback_members"] == []
            # each pair's odis is keyed against its own swap-out member's virtual object
            for r in got:
                v = virtual_object(inst.team, inst.target, inst.team.member(r.swap_out_id))
                cand = normalized_candidate(inst.space.record(inst.space.index_of(r.swap_in_id)))
                assert r.odis == odis(v, cand, inst.weights)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    @example(278)
    @example(2927)
    def test_pruned_build_writes_the_full_pass_bytes_on_random_instances(self, seed):
        import dataclasses
        import tempfile

        small = random_instance(seed, n=int(1 + seed % 6))
        small = dataclasses.replace(small, top_k=len(small.space) + seed % 3)
        n = int(20 + seed % 80)
        tied = random_instance(seed, n=n, ties_at_zero=True)
        # the same rows and team with ids dealt in a seeded shuffled order, so id order is not row order
        ids = np.random.default_rng(seed).permutation(tied.space.ids)
        space = ObjectSpace(ids, tied.space.lambdas, tied.space.attrs, tied.space.attribute_names)
        members = [ids[tied.space.index_of(record.id)] for record in tied.team.members]
        shuffled = dataclasses.replace(tied, space=space, team=team_from_ids(space, members, team_id="C"))
        # a zero target over those counts ties every pair at distance 0, so ids alone pick the answer
        zero = TargetContext(team_id="T", aggregate=np.zeros(shuffled.space.dimension))
        plain = random_instance(seed, n=n)
        # a far target, the team's own aggregate x 3, which one swap cannot
        # reach: a member's k-th distance is above 0 (for 11,947 of the
        # 12,084 members of seeds 0, 7, ..., 10,000)
        far = TargetContext(team_id="T", aggregate=plain.team.aggregate * 3)
        # shifted by fractions: the only instance whose leaves have no store
        negative = random_instance(seed, n=n, negative=True)
        instances = (
            plain,
            dataclasses.replace(plain, target=far),
            negative,
            tied,
            shuffled,
            dataclasses.replace(shuffled, target=zero),
            small,
        )
        for inst in instances:
            rows = len(inst.space)
            expected = brute_force_rank(inst.team, inst.target, inst.space, inst.weights, inst.top_k)
            # leaves of one row, of 7 rows (several multi-row leaves that tie
            # at the k-th bound), of the default size and of every row; a
            # first rank window of 1 to 5 rows, so the leaves of smallest
            # bound are read in several windows
            for leaf_rows in (1, 7, core._LEAF_ROWS, rows):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(core, "_LEAF_ROWS", leaf_rows)
                    mp.setattr(ranking, "_FIRST_WINDOW_ROWS", 1 + seed % 5)
                    space = ObjectSpace(
                        inst.space.ids, inst.space.lambdas, inst.space.attrs, inst.space.attribute_names
                    )
                    files, scored = {}, {}
                    for prune in (False, True):
                        with tempfile.TemporaryDirectory() as tmp:
                            with build_index(
                                space, inst.team, inst.target, inst.weights, inst.block_size, tmp,
                                run_length=inst.top_k, prune=prune,
                            ) as index:
                                files[prune] = index_path(tmp, index.fingerprint).read_bytes()
                                scored[prune] = index.rows_scored
                                got = rtc_star_rank(inst.team, inst.target, space, inst.weights, index, inst.top_k)
                            assert got == expected
                    assert (space._leaves.attrs is None) == (inst is negative)
                assert files[True] == files[False]
                assert scored[False] == (rows,) * inst.team.size
                assert all(1 <= count <= rows for count in scored[True])

    @pytest.mark.parametrize("far", [False, True])
    def test_tied_leaves_are_read_in_rank_order_up_to_the_kth_smallest_rank(self, monkeypatch, far):
        # non-negative attributes. With a zero target every pair and every
        # leaf bound is 0. With a target 1e24 above the team on the first
        # dimension and 1e6 below it on the others, every pair and every
        # bound is one distance above 0, the first gap, because rounding
        # absorbs each candidate's share of it. Either way every leaf ties
        # at the smallest bound, so each pass reads rows in rank windows, the
        # first _FIRST_WINDOW_ROWS ranks wide
        inst = random_instance(6, n=3000, m=4)
        space, w, n = inst.space, inst.weights, len(inst.space)
        aggregate = np.zeros(space.dimension)
        if far:
            aggregate = inst.team.aggregate - 1e6
            aggregate[0] = inst.team.aggregate[0] + 1e24
        target = TargetContext(team_id="T", aggregate=aggregate)
        gap = diff(target, inst.team)
        leaves = space.leaves()
        read, real_top = [], ranking._member_top

        def recording_top(dist, ties, k):
            read.append(ties)
            return real_top(dist, ties, k)

        for record in inst.team.members:
            bound = _exchange_distance_rows(gap + record.attrs, record.lam, leaves.corners, np.ones(len(leaves)), w)
            for k in (1, 10, 300):
                full_rows, full = _member_best(space, gap, record, w, k)
                with monkeypatch.context() as mp:
                    mp.setattr(ranking, "_member_top", recording_top)
                    read.clear()
                    rows, dist, scored = _member_best_pruned(space, gap, record, w, k)
                assert rows.tolist() == full_rows.tolist() and dist.tobytes() == full.tobytes()
                # the run's bound is the k-th distance, 0 or above it
                assert (bound == dist[-1]).all() and (dist == dist[-1]).all() and (dist[-1] > 0) == far
                # the k smallest ranks, held once the windows [0, end) cover k ranks
                assert rows.tolist() == space.id_order()[:k].tolist()
                width = end = ranking._FIRST_WINDOW_ROWS
                while end < k:
                    width *= 4
                    end += width
                assert scored == end < n
                assert sorted(set(np.concatenate(read).tolist())) == list(range(end))

    @pytest.mark.parametrize("zero_target", [False, True])
    def test_the_rows_scored_do_not_depend_on_how_many_leaves_are_sorted_first(self, monkeypatch, zero_target):
        # a first sort of the leaves of smallest bound only, of about half of
        # them, or of the default share: each pass reads the same batches
        inst = random_instance(11, n=3000, m=4)
        target = TargetContext(team_id="T", aggregate=np.zeros(inst.space.dimension)) if zero_target else inst.target
        gap = diff(target, inst.team)
        passes = []
        for first_sort in (10**9, 2, ranking._FIRST_SORT):
            monkeypatch.setattr(ranking, "_FIRST_SORT", first_sort)
            passes.append(
                [_member_best_pruned(inst.space, gap, r, inst.weights, k) for r in inst.team.members for k in (10, 100)]
            )
        assert len(inst.space.leaves()) > 16
        assert all(scored < len(inst.space) for *_, scored in passes[0])
        for other in passes[1:]:
            for (rows, dist, scored), (rows2, dist2, scored2) in zip(passes[0], other):
                assert (rows.tolist(), dist.tobytes(), scored) == (rows2.tolist(), dist2.tobytes(), scored2)

    # computed before the leaf build's placing pass became a plain counting
    # sort by code: each team's rows scored per member, k = 10, unit weights
    ROWS_SCORED = {
        "dominant": [
            (2309, 242, 1043, 1043, 268),
            (1624, 1914, 254, 1270, 2757),
            (1347, 1654, 282, 6761, 2147),
            (1262, 1263, 1071, 1488, 3200),
        ],
        "far": [
            (11356, 8473, 10836, 11614, 10154),
            (9869, 10882, 9474, 8965, 9827),
            (11523, 10996, 10093, 11268, 11424),
            (9474, 9577, 10358, 11558, 10766),
        ],
        "elite": [
            (2902, 251, 1335, 3152, 290),
            (258, 4508, 252, 253, 1312),
            (263, 1236, 236, 3971, 2153),
            (237, 1265, 1265, 2118, 1275),
        ],
    }

    @pytest.mark.parametrize("mode", ["dominant", "far", "elite"])
    def test_rows_scored_are_pinned(self, tmp_path, mode):
        # the benchmark's target modes over a 30,011-row space: dominant at
        # the team's own aggregate x 1.1 and far at x 3, and elite at the
        # nearest of 10 seeded teams' aggregates x 1.1
        space = gen_synthetic({f"a{j}": NbParams(1.2, 0.05) for j in range(11)}, count=30_011, seed=22)
        rng = np.random.default_rng(22)
        draw = lambda: rng.choice(space.ids, size=5, replace=False)  # noqa: E731
        teams = [team_from_ids(space, draw(), team_id=f"t{i}") for i in range(4)]
        elite = [TargetContext(team_id=f"e{j}", aggregate=team_from_ids(space, draw()).aggregate * 1.1) for j in range(10)]
        w, scored = np.ones(11), []
        for team in teams:
            if mode == "elite":
                target = target_from_elite(team, elite, w)[1]
            else:
                target = dominant_target(team, 0.1 if mode == "dominant" else 2.0)
            with build_index(space, team, target, w, 10, tmp_path, run_length=10) as index:
                scored.append(index.rows_scored)
        assert scored == self.ROWS_SCORED[mode]

    def test_a_member_whose_lambda_ratios_leave_the_normal_range_takes_the_full_pass(self, monkeypatch):
        # lambda_r / lambda_p overflows to inf for row c, so its product with
        # the attribute is inf and its distance 0, while lambda_r times its
        # leaf's corner is 1e140: that leaf's bound, about 1e150, is above
        # d's distance, and a pruned pass would stop before it and answer d
        monkeypatch.setattr(core, "_LEAF_ROWS", 1)
        space = ObjectSpace(
            ids=["a", "b", "c", "d"],
            lambdas=[1.0, 2.0, 1e-120, 1.0],
            attrs=[[1e-60], [2e-60], [1e-180], [0.999e-50]],
            attribute_names=("x",),
        )
        record = ObjectRecord(id="r", label="r", lam=1e200, attrs=np.array([1e150]))
        gap, w = np.zeros(1), np.ones(1)
        leaves = space.leaves()
        with np.errstate(over="ignore"):
            dist = _exchange_distance_rows(gap + record.attrs, record.lam, space.attrs, space.lambdas, w)
            bound = _exchange_distance_rows(gap + record.attrs, record.lam, leaves.corners, np.ones(len(leaves)), w)
            rows, best, scored = _member_best_pruned(space, gap, record, w, 1)
            full_rows, full = _member_best(space, gap, record, w, 1)
        # one row a leaf
        leaf_of = {int(row): j for j, row in enumerate(space.id_order()[leaves.ranks[leaves.starts]])}
        assert dist[2] == 0.0 < dist[3] < bound[leaf_of[2]]
        assert scored == 4 and rows.tolist() == full_rows.tolist() == [2] and best.tobytes() == full.tobytes()
        # a member whose ratios stay in range is pruned as usual, to the same answer
        usual = ObjectRecord(id="s", label="s", lam=1.0, attrs=np.ones(1))
        rows, best, _ = _member_best_pruned(space, gap, usual, w, 2)
        full_rows, full = _member_best(space, gap, usual, w, 2)
        assert rows.tolist() == full_rows.tolist() and best.tobytes() == full.tobytes()

    def test_improvement_guarantee_when_members_in_space(self, tmp_path):
        for seed in range(15):
            inst = random_instance(seed, n=50, m=4)
            gap = diff(inst.target, inst.team)
            before = truncated_distance(gap, truncating_vector(gap), inst.weights)
            best = brute_force_rank(inst.team, inst.target, inst.space, inst.weights, 1)[0]
            assert best.new_distance <= before + 1e-9 * max(1.0, before)


# finite attribute and base values, with zeros, subnormals and values near
# the float64 limit, whose products overflow
_EDGE_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308]),
    st.integers(-1000, 1000).map(float),
)
# exchange parameters 2^-500 .. 2^500: extreme ratios, every one of them in
# the normal range the exactness argument needs
_EDGE_LAMBDAS = st.floats(-500.0, 500.0).map(lambda e: 2.0**e)


class TestOneConfigurationCheck:
    @pytest.mark.parametrize(
        "weights, k, error",
        [
            ([1.0], 3, DimensionMismatch),
            ([1.0, 1.0, 1.0, 1.0], 3, DimensionMismatch),
            ([1.0, 1.0, 1.0], 0, InvalidArgument),
        ],
        ids=["one-weight", "d-plus-one-weights", "k-0"],
    )
    def test_bf_build_and_rtcstar_refuse_alike(self, tmp_path, weights, k, error):
        # a one-element weight vector used to broadcast over all d = 3 dimensions in rtcstar
        instance = random_instance(3, n=60, d=3, m=2)
        space, team, target = instance.space, instance.team, instance.target
        with build_index(space, team, target, [1.0, 1.0, 1.0], 2, tmp_path / "valid", run_length=3) as index:
            with pytest.raises(error):
                brute_force_rank(team, target, space, weights, k)
            with pytest.raises(error):
                build_index(space, team, target, weights, 2, tmp_path / "refused", run_length=k)
            with pytest.raises(error):
                rtc_star_rank(team, target, space, weights, index, k)
            assert index.query_io.queries_served == 0
        assert not (tmp_path / "refused").exists()


class TestLeafBound:
    @given(st.data())
    def test_a_leaf_bound_never_exceeds_a_row_distance(self, data):
        n, d = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 5))
        vectors = lambda size: st.lists(_EDGE_VALUES, min_size=size, max_size=size)  # noqa: E731
        attrs = np.array(data.draw(st.lists(vectors(d), min_size=n, max_size=n)))
        lambdas = np.array(data.draw(st.lists(_EDGE_LAMBDAS, min_size=n, max_size=n)))
        base = np.array(data.draw(vectors(d)))
        lam_r = data.draw(_EDGE_LAMBDAS)
        w = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(core, "_LEAF_ROWS", data.draw(st.integers(1, n)))
            leaves = core.leaf_partition(np.asfortranarray(attrs), lambdas, np.arange(n))
            dist = _exchange_distance_rows(base, lam_r, attrs, lambdas, w)
            bound = _exchange_distance_rows(base, lam_r, leaves.corners, np.ones(len(leaves)), w)
        # the id order is the row order, so a row's id rank is its position
        for j in range(len(leaves)):
            rows = leaves.ranks[leaves.starts[j] : leaves.starts[j] + leaves.sizes[j]]
            assert not (bound[j] > dist[rows]).any(), (j, bound[j], dist[rows])

    def test_the_bound_of_a_corner_one_ulp_low_can_exceed_a_row(self):
        # the raise matters: a corner at the row's own rate, lowered one ulp,
        # bounds above the row's distance, and the raised corner does not
        a, lam_p = np.array([[3.0]]), np.array([7.0])
        lam_r = 7.0
        rate = a[0, 0] / lam_p[0]
        base = np.array([lam_r * rate * 2])
        w = np.ones(1)
        dist = _exchange_distance_rows(base, lam_r, a, lam_p, w)
        low = _exchange_distance_rows(base, lam_r, np.array([[np.nextafter(rate, 0.0)]]), np.ones(1), w)
        raised = core.leaf_partition(a, lam_p, np.arange(1)).corners
        bound = _exchange_distance_rows(base, lam_r, raised, np.ones(1), w)
        assert bound[0] <= dist[0] < low[0]


class TestVerifyCorollary:
    def test_derived_pair(self):
        space, team, target, w = derived_instance()
        report = verify_corollary(team, target, team.member("r1"), space.record(0), w)
        assert report.dis_prime == 0.0
        assert report.odis == 0.0
        assert report.lambda_r == 2.0
        assert not report.strong_flip
        assert not report.clipped

    def test_identity_swap(self):
        space, team, target, w = derived_instance()
        member = team.member("r1")
        gap = diff(target, team)
        before = truncated_distance(gap, truncating_vector(gap), w)
        report = verify_corollary(team, target, member, member, w)
        assert report.dis_prime == pytest.approx(before, rel=1e-12)
        v = virtual_object(team, target, member)
        assert report.odis == pytest.approx(odis(v, normalized_candidate(member), w), rel=1e-12)
        assert not report.strong_flip

    def test_draining_a_strong_dimension_flips(self):
        member = rec("r", [8.0, 10.0])
        team = team_from_records([member], team_id="C")
        target = TargetContext(team_id="T", aggregate=[5.0, 10.0])
        cand = rec("p", [0.0, 20.0])
        report = verify_corollary(team, target, member, cand, [1.0, 1.0])
        assert report.strong_flip
        # the scaled identity is broken here: the key sees nothing on the
        # flipped dimension while the exact distance pays for it
        assert report.dis_prime == 5.0
        assert report.odis == 0.0

    def test_scaled_identity_holds_without_flip_or_clip(self):
        rng = np.random.default_rng(8)
        checked = 0
        for seed in range(12):
            inst = random_instance(seed, n=40, m=3)
            for member in inst.team.members:
                rows = rng.choice(len(inst.space), size=10, replace=False)
                for row in rows:
                    report = verify_corollary(
                        inst.team, inst.target, member, inst.space.record(int(row)), inst.weights
                    )
                    if report.strong_flip or report.clipped:
                        continue
                    checked += 1
                    assert abs(report.dis_prime - report.lambda_r * report.odis) <= 1e-9 * max(
                        1.0, report.dis_prime
                    )
        assert checked > 100


class TestDominatedVirtualObject:
    def test_dominating_candidate_closes_every_weak_dimension(self, tmp_path):
        for seed in (1, 5, 9):
            inst = random_instance(seed, n=40, m=3, inject_dominator=True)
            member = inst.team.members[0]
            v = virtual_object(inst.team, inst.target, member)
            dom = inst.space.record(inst.space.index_of("zzz-dominator"))
            assert odis(v, normalized_candidate(dom), inst.weights) == 0.0
            gap = diff(inst.target, inst.team)
            new_gap = post_exchange_diff(gap, member, dom)
            weak = gap >= 0.0
            assert np.all(new_gap[weak] <= 1e-9)
