import hashlib
import threading

import numpy as np
import pytest

from conftest import pretend_cores
from teamrank.core import ObjectSpace, TargetContext, diff, team_from_ids
from teamrank.dataio import NbParams, gen_synthetic
from teamrank.errors import InvalidArgument, InvalidPartition, StaleIndex
from teamrank import nnindex
from teamrank.nnindex import (
    _BUILD_PASS_ARRAYS,
    HEADER,
    NnIndex,
    _key_id_order,
    build_index,
    fingerprint,
    index_path,
)
from teamrank.ranking import _CHUNK_ROWS, _exchange_distance_rows, brute_force_rank, rtc_star_rank


def make_setup(seed=0, n=40, d=3, m=2, lambda_range=(1.0, 50.0)):
    rng = np.random.default_rng(seed)
    params = {f"a{j}": NbParams(1.2, 0.05) for j in range(d)}
    space = gen_synthetic(params, count=n, seed=seed, lambda_range=lambda_range)
    team = team_from_ids(space, rng.choice(space.ids, size=m, replace=False), team_id="C")
    target = TargetContext(team_id="T", aggregate=team.aggregate * rng.uniform(0.8, 1.3, d))
    w = rng.uniform(0.2, 2.0, d)
    return space, team, target, w


def exact_keys(space, team, target, w, record):
    """A member's exact post-exchange distance to every row: its run's keys."""
    base = diff(target, team) + record.attrs
    return _exchange_distance_rows(base, record.lam, space.attrs, space.lambdas, np.asarray(w, dtype=float))


def query_min(index, space, member, k):
    """A run's k smallest entries as (object id, key) pairs."""
    ordinals, keys = index.query_min_raw(member, k)
    return list(zip(space.ids[ordinals].tolist(), keys.tolist()))


class TestBuild:
    def test_block_arithmetic_and_file_size(self, tmp_path):
        space, team, target, w = make_setup(n=5, m=2)
        with build_index(space, team, target, w, block_size=2, directory=tmp_path) as index:
            assert index.data_blocks == 3
            assert index.build_io.blocks_written == 2 * 3
            assert HEADER.size == 44
            path = index_path(tmp_path, index.fingerprint)
            assert list(tmp_path.iterdir()) == [path]
            assert path.stat().st_size == HEADER.size + 2 * 3 * 2 * 16

    def test_partitions_are_globally_sorted_runs(self, tmp_path):
        space, team, target, w = make_setup(seed=3, n=100, m=3)
        with build_index(space, team, target, w, block_size=7, directory=tmp_path) as index:
            for member in range(index.m):
                _, keys = index.query_min_raw(member, len(space))
                assert np.all(np.diff(keys) >= 0)

    def test_keys_match_fresh_computation_bit_for_bit(self, tmp_path):
        space, team, target, w = make_setup(seed=5, n=60, m=2)
        with build_index(space, team, target, w, block_size=10, directory=tmp_path) as index:
            for member_index, record in enumerate(team.members):
                fresh = exact_keys(space, team, target, w, record)
                stored = np.full(len(space), np.nan)
                ordinals, keys = index.query_min_raw(member_index, len(space))
                stored[ordinals] = keys
                assert np.array_equal(stored, fresh)

    def test_every_object_appears_exactly_once_per_partition(self, tmp_path):
        space, team, target, w = make_setup(seed=7, n=33, m=2)
        with build_index(space, team, target, w, block_size=4, directory=tmp_path) as index:
            for member in range(index.m):
                ordinals, _ = index.query_min_raw(member, len(space))
                assert sorted(ordinals.tolist()) == list(range(len(space)))

    def test_rebuild_is_byte_identical(self, tmp_path):
        space, team, target, w = make_setup(seed=9)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        with build_index(space, team, target, w, 5, d1) as a, build_index(space, team, target, w, 5, d2) as b:
            assert a.fingerprint == b.fingerprint
            h1 = hashlib.sha256(index_path(d1, a.fingerprint).read_bytes()).hexdigest()
            h2 = hashlib.sha256(index_path(d2, b.fingerprint).read_bytes()).hexdigest()
            assert h1 == h2

    def test_interrupted_build_leaves_no_index_and_keeps_the_old_one(self, tmp_path, monkeypatch):
        space, team, target, w = make_setup(seed=10, n=30, m=3)
        fresh, rebuilt = tmp_path / "fresh", tmp_path / "rebuilt"
        build_index(space, team, target, w, 4, rebuilt).close()
        path = index_path(rebuilt, fingerprint(space, team, target, w, 4))
        before = path.read_bytes()

        calls = []

        def fail_on_second_member(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("interrupted")
            return _exchange_distance_rows(*args)

        monkeypatch.setattr(nnindex, "_exchange_distance_rows", fail_on_second_member)
        for directory in (fresh, rebuilt):
            with pytest.raises(RuntimeError):
                build_index(space, team, target, w, 4, directory)
            calls.clear()
        assert list(fresh.iterdir()) == []
        assert list(rebuilt.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_zero_block_size_rejected(self, tmp_path):
        space, team, target, w = make_setup()
        with pytest.raises(InvalidArgument):
            build_index(space, team, target, w, 0, tmp_path)
        with pytest.raises(InvalidArgument):
            fingerprint(space, team, target, w, -1)


def tie_heavy_setup():
    """Row order unlike id order, twenty duplicated rows, and a third of the
    rows above every virtual object, so each run has over a hundred key-0 ties."""
    rng = np.random.default_rng(20)
    n, d = 300, 3
    attrs = rng.integers(0, 40, size=(n, d)).astype(float)
    lambdas = rng.integers(1, 6, size=n).astype(float)
    attrs[200:] = 1000.0
    attrs[150:170], lambdas[150:170] = attrs[130:150], lambdas[130:150]
    ids = [f"o{i:03d}" for i in rng.permutation(n)]
    space = ObjectSpace(ids=ids, lambdas=lambdas, attrs=attrs, attribute_names=("a", "b", "c"))
    team = team_from_ids(space, space.ids[[3, 77, 140]], team_id="C")
    target = TargetContext(team_id="T", aggregate=team.aggregate * np.array([1.3, 0.9, 1.2]))
    return space, team, target, np.array([0.5, 1.0, 2.0])


class TestThreadedBuild:
    # more rows than one kernel block, and enough dimensions that four
    # members' runs fit in the attribute matrix, so runs are built on a pool
    N = 3 * _CHUNK_ROWS + 7
    D = 4 * _BUILD_PASS_ARRAYS
    # computed with the one-thread build; runs written in member order make
    # the file independent of the thread count
    PINNED = {
        1: "bf2c917500aa74e6d1ee2da988a07c43a99e9f8cdbaa8cfffdec21d5ad83313e",
        2: "acbe45e44f887b65c5150cf129d40fd926528b66ba0c4085324d674519baeb51",
        5: "419b3a5062b98be003e22400a90b34b575110d010892ec9299c02c1a0f0fd525",
        7: "31b0c81e997cf03fb83383bfc38375711134a3ebefb330c3a915915117d3cc42",
    }

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2, 5, 7])
    def test_index_file_bytes_are_pinned(self, tmp_path, monkeypatch, m, cores):
        pretend_cores(monkeypatch, cores)
        space, team, target, w = make_setup(seed=30 + m, n=self.N, d=self.D, m=m)
        stats = {}
        with build_index(space, team, target, w, 10, tmp_path, stats_out=stats) as index:
            raw = index_path(tmp_path, index.fingerprint).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.PINNED[m]
        assert stats["member_workers"] == min(m, cores)

    def test_interrupted_build_leaves_no_index_and_keeps_the_old_one(self, tmp_path, monkeypatch):
        pretend_cores(monkeypatch, 2)
        space, team, target, w = make_setup(seed=10, n=self.N, d=self.D, m=5)
        fresh, rebuilt = tmp_path / "fresh", tmp_path / "rebuilt"
        build_index(space, team, target, w, 4, rebuilt).close()
        path = index_path(rebuilt, fingerprint(space, team, target, w, 4))
        before = path.read_bytes()

        lock, calls = threading.Lock(), []
        error = RuntimeError("interrupted")

        def fail_on_third_member(*args):
            with lock:
                calls.append(1)
                third = len(calls) == 3
            if third:
                raise error
            return _exchange_distance_rows(*args)

        monkeypatch.setattr(nnindex, "_exchange_distance_rows", fail_on_third_member)
        for directory in (fresh, rebuilt):
            stats = {}
            with pytest.raises(RuntimeError) as caught:
                build_index(space, team, target, w, 4, directory, stats_out=stats)
            assert caught.value is error
            assert stats["member_workers"] == 2
            calls.clear()
        assert list(fresh.iterdir()) == []
        assert list(rebuilt.iterdir()) == [path]
        assert path.read_bytes() == before


class TestRunOrder:
    def test_runs_are_in_lexsort_key_id_order(self, tmp_path):
        space, team, target, w = tie_heavy_setup()
        assert not np.array_equal(space.id_order(), np.arange(len(space)))
        with build_index(space, team, target, w, 7, tmp_path) as index:
            for member_index, record in enumerate(team.members):
                keys = exact_keys(space, team, target, w, record)
                assert np.count_nonzero(keys == 0.0) > 100
                ordinals, _ = index.query_min_raw(member_index, len(space))
                assert np.array_equal(ordinals, np.lexsort((space.ids, keys)))

    def test_index_file_bytes_are_pinned(self, tmp_path):
        # any change to a key's bits or to the (key, id) order changes this digest
        space, team, target, w = tie_heavy_setup()
        with build_index(space, team, target, w, 7, tmp_path) as index:
            raw = index_path(tmp_path, index.fingerprint).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "ab4042f9acf4e2e5349a803fe941d291d3cd15f6147a1a851a671a391a405633"
        )

    def test_tie_only_sort_matches_lexsort(self):
        rng = np.random.default_rng(4)
        n = 2000
        ids = np.array([f"i{j:04d}" for j in rng.permutation(n)])
        id_rank = np.empty(n, dtype=np.intp)
        id_rank[np.argsort(ids)] = np.arange(n)
        mixed = rng.random(n)
        mixed[:600] = rng.integers(0, 20, 600)
        mixed[600:650] = np.inf
        mixed[650:680] = np.nan
        mixed[680:700] = -0.0
        rng.shuffle(mixed)
        for keys in (rng.random(n), np.zeros(n), mixed):
            order, sorted_keys = _key_id_order(keys, id_rank)
            expected = np.lexsort((ids, keys))
            assert np.array_equal(order, expected)
            # bit for bit: the tied -0.0 and 0.0 keys, and the NaNs, sit where their rows do
            assert np.array_equal(sorted_keys.view(np.uint64), keys[expected].view(np.uint64))


class TestQueryMin:
    def test_k1_reads_one_block_and_finds_global_min(self, tmp_path):
        for seed in range(100):
            space, team, target, w = make_setup(seed=seed, n=30, m=1, d=2)
            with build_index(space, team, target, w, 6, tmp_path / str(seed)) as index:
                keys = exact_keys(space, team, target, w, team.members[0])
                result = query_min(index, space, 0, 1)
                assert index.query_io.blocks_read == 1
                assert result[0][1] == keys.min()

    def test_k_equals_n_reads_whole_partition_in_order(self, tmp_path):
        space, team, target, w = make_setup(seed=2, n=23, m=2)
        with build_index(space, team, target, w, 4, tmp_path) as index:
            entries = query_min(index, space, 0, 23)
            assert index.query_io.blocks_read == index.data_blocks
            keys = [k for _, k in entries]
            assert keys == sorted(keys)
            assert len({obj for obj, _ in entries}) == 23

    def test_small_k_single_block_matches_linear_scan(self, tmp_path):
        space, team, target, w = make_setup(seed=4, n=50, m=1)
        with build_index(space, team, target, w, 10, tmp_path) as index:
            keys = exact_keys(space, team, target, w, team.members[0])
            got = query_min(index, space, 0, 3)
            assert index.query_io.blocks_read == 1
            assert [k for _, k in got] == sorted(keys)[:3]

    def test_k_larger_than_n_returns_everything(self, tmp_path):
        space, team, target, w = make_setup(seed=6, n=9, m=1)
        with build_index(space, team, target, w, 4, tmp_path) as index:
            entries = query_min(index, space, 0, 1000)
            assert len(entries) == 9
            assert index.query_io.blocks_read == index.data_blocks

    def test_read_count_is_exactly_ceil_k_over_b(self, tmp_path):
        rng = np.random.default_rng(44)
        for trial in range(12):
            n = int(rng.integers(5, 60))
            b = int(rng.integers(1, 12))
            k = int(rng.integers(1, n + 1))
            space, team, target, w = make_setup(seed=trial, n=n, m=1)
            with build_index(space, team, target, w, b, tmp_path / str(trial)) as index:
                query_min(index, space, 0, k)
                assert index.query_io.blocks_read == -(-k // b)
                assert index.query_io.queries_served == 1

    def test_invalid_partition_and_k(self, tmp_path):
        space, team, target, w = make_setup(seed=8, m=2)
        with build_index(space, team, target, w, 5, tmp_path) as index:
            with pytest.raises(InvalidPartition):
                index.query_min_raw(2, 1)
            with pytest.raises(InvalidArgument):
                index.query_min_raw(0, 0)

    def test_key_ties_sorted_by_object_id(self, tmp_path):
        from teamrank.core import ObjectRecord, ObjectSpace, team_from_records

        records = [
            ObjectRecord(id=f"p{i}", label=f"p{i}", lam=1.0, attrs=np.array([100.0, 100.0]))
            for i in range(6)
        ]
        space = ObjectSpace.from_records(records, ("x", "y"))
        team = team_from_records([records[0]], team_id="C")
        target = TargetContext(team_id="T", aggregate=[120.0, 120.0])
        with build_index(space, team, target, [1.0, 1.0], 2, tmp_path) as index:
            entries = query_min(index, space, 0, 6)
            assert [obj for obj, _ in entries] == [f"p{i}" for i in range(6)]

    def test_reset_is_explicit(self, tmp_path):
        space, team, target, w = make_setup(seed=12, m=1)
        with build_index(space, team, target, w, 5, tmp_path) as index:
            query_min(index, space, 0, 1)
            assert index.query_io.blocks_read == 1
            index.reset_query_io()
            assert index.query_io.blocks_read == 0
            assert index.build_io.blocks_written > 0

    def test_concurrent_queries_do_not_lose_counts_or_corrupt_reads(self, tmp_path):
        space, team, target, w = make_setup(seed=14, n=64, m=2)
        with build_index(space, team, target, w, 1, tmp_path) as index:
            baseline = {
                (member, k): query_min(index, space, member, k)
                for member in range(2)
                for k in (1, 7, 31, 64)
            }
            index.reset_query_io()
            failures = []

            def worker(worker_id):
                rng = np.random.default_rng(worker_id)
                for _ in range(50):
                    member = int(rng.integers(0, 2))
                    k = int(rng.choice([1, 7, 31, 64]))
                    if query_min(index, space, member, k) != baseline[(member, k)]:
                        failures.append((worker_id, member, k))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == []
            assert index.query_io.queries_served == 4 * 50


class TestOpenAndFingerprint:
    def test_open_round_trip(self, tmp_path):
        space, team, target, w = make_setup(seed=16, m=2)
        built = build_index(space, team, target, w, 5, tmp_path)
        expected = query_min(built, space, 0, 4)
        built.close()
        with NnIndex.open(tmp_path, built.fingerprint, space) as reopened:
            assert reopened.m == 2
            assert query_min(reopened, space, 0, 4) == expected

    def test_open_unknown_fingerprint(self, tmp_path):
        space, *_ = make_setup(seed=18)
        with pytest.raises(StaleIndex):
            NnIndex.open(tmp_path, "00" * 16, space)

    def test_open_with_wrong_sized_space(self, tmp_path):
        space, team, target, w = make_setup(seed=19, n=30, m=2)
        built = build_index(space, team, target, w, 5, tmp_path)
        built.close()
        smaller, *_ = make_setup(seed=19, n=12, m=2)
        with pytest.raises(StaleIndex):
            NnIndex.open(tmp_path, built.fingerprint, smaller)

    def test_fingerprint_tracks_configuration(self, tmp_path):
        space, team, target, w = make_setup(seed=20)
        base = fingerprint(space, team, target, w, 5)
        assert fingerprint(space, team, target, w, 5) == base
        assert fingerprint(space, team, target, w, 6) != base
        assert fingerprint(space, team, target, np.asarray(w) * 2.0, 5) != base
        other_target = TargetContext(team_id=target.team_id, aggregate=target.aggregate + 1.0)
        assert fingerprint(space, team, other_target, w, 5) != base


class TestDamagedPartitions:
    def build_closed(self, tmp_path, n=60):
        space, team, target, w = make_setup(seed=21, n=n, m=2)
        build_index(space, team, target, w, 4, tmp_path).close()
        fp = fingerprint(space, team, target, w, 4)
        return space, fp, index_path(tmp_path, fp)

    def test_truncated_partition_is_stale(self, tmp_path):
        space, fp, path = self.build_closed(tmp_path)
        whole = path.read_bytes()
        for damaged in (whole[:10], whole[: HEADER.size + 3 * 16], whole + bytes(16)):
            path.write_bytes(damaged)
            with pytest.raises(StaleIndex):
                NnIndex.open(tmp_path, fp, space)

    def test_truncation_after_open_is_caught_at_read(self, tmp_path):
        space, fp, path = self.build_closed(tmp_path)
        with NnIndex.open(tmp_path, fp, space) as index:
            # member 1's run starts after member 0's 60 records
            with open(path, "r+b") as fh:
                fh.truncate(HEADER.size + (60 + 6) * 16)
            index.query_min_raw(1, 4)
            with pytest.raises(StaleIndex):
                index.query_min_raw(1, 10)

    def test_truncation_inside_a_query_read_is_caught(self, tmp_path):
        from teamrank.core import ObjectRecord, ObjectSpace, team_from_records

        def rec(rid, attrs):
            return ObjectRecord(id=rid, label=rid, lam=1.0, attrs=np.array(attrs))

        # one member, strong on y by 5: the paper's masked key puts the twenty
        # a* rows first, at key 0, but they drain y and land at distance 5;
        # the run is keyed by exact distance, so its first k entries are the
        # b* rows (distance 0.5) and the a* rows are never read
        space = ObjectSpace.from_records(
            [rec(f"a{i:02d}", [10.0, 0.0]) for i in range(20)]
            + [rec(f"b{i:02d}", [2.5, 6.0]) for i in range(20)]
            + [rec(f"c{i:02d}", [1.0, 6.0]) for i in range(20)],
            ("x", "y"),
        )
        team = team_from_records([rec("m", [1.0, 10.0])], team_id="C")
        target = TargetContext(team_id="T", aggregate=[3.0, 5.0])
        w, k, b = np.ones(2), 3, 2
        build_index(space, team, target, w, b, tmp_path).close()
        fp = fingerprint(space, team, target, w, b)
        with NnIndex.open(tmp_path, fp, space) as index:
            stats = {}
            got = rtc_star_rank(team, target, space, w, index, k, stats_out=stats)
            assert got == brute_force_rank(team, target, space, w, k)
            assert [r.swap_in_id for r in got] == ["b00", "b01", "b02"]
            assert index.query_io.blocks_read == -(-k // b)
            assert stats["scan_depths"] == [k]
            # keep fewer records than the first ceil(k / B) blocks hold
            with open(index_path(tmp_path, fp), "r+b") as fh:
                fh.truncate(HEADER.size + k * 16)
            with pytest.raises(StaleIndex):
                rtc_star_rank(team, target, space, w, index, k)

    def test_version_1_partition_is_stale(self, tmp_path):
        space, fp, path = self.build_closed(tmp_path)
        for version in (1, 2, 3):
            raw = bytearray(path.read_bytes())
            raw[8:10] = version.to_bytes(2, "little")
            path.write_bytes(bytes(raw))
            with pytest.raises(StaleIndex):
                NnIndex.open(tmp_path, fp, space)
