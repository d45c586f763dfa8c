import hashlib
import struct
import sys
import threading
import time

import numpy as np
import pytest

from conftest import pretend_cores
from teamrank import core
from teamrank.core import ObjectSpace, TargetContext, diff, team_from_ids
from teamrank.dataio import NbParams, gen_synthetic
from teamrank.errors import InvalidArgument, InvalidPartition, ShortIndex, StaleIndex
from teamrank import nnindex
from teamrank.nnindex import (
    HEADER,
    NnIndex,
    build_index,
    fingerprint,
    index_path,
)
from teamrank import ranking
from teamrank.ranking import (
    _PASS_ARRAYS,
    _exchange_distance_rows,
    brute_force_rank,
    member_workers,
    rtc_star_rank,
)


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
        with build_index(space, team, target, w, block_size=2, directory=tmp_path, run_length=5) as index:
            assert index.data_blocks == 3
            assert index.build_io.blocks_written == 2 * 3
            assert HEADER.size == 52
            path = index_path(tmp_path, index.fingerprint)
            assert list(tmp_path.iterdir()) == [path]
            assert path.stat().st_size == HEADER.size + 2 * 3 * 2 * 16

    def test_partitions_are_globally_sorted_runs(self, tmp_path):
        space, team, target, w = make_setup(seed=3, n=100, m=3)
        with build_index(space, team, target, w, 7, tmp_path, run_length=len(space)) as index:
            for member in range(index.m):
                _, keys = index.query_min_raw(member, len(space))
                assert np.all(np.diff(keys) >= 0)

    def test_keys_match_fresh_computation_bit_for_bit(self, tmp_path):
        space, team, target, w = make_setup(seed=5, n=60, m=2)
        with build_index(space, team, target, w, 10, tmp_path, run_length=len(space)) as index:
            for member_index, record in enumerate(team.members):
                fresh = exact_keys(space, team, target, w, record)
                stored = np.full(len(space), np.nan)
                ordinals, keys = index.query_min_raw(member_index, len(space))
                stored[ordinals] = keys
                assert np.array_equal(stored, fresh)

    def test_every_object_appears_exactly_once_per_partition(self, tmp_path):
        space, team, target, w = make_setup(seed=7, n=33, m=2)
        with build_index(space, team, target, w, 4, tmp_path, run_length=len(space)) as index:
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

        monkeypatch.setattr(ranking, "_exchange_distance_rows", fail_on_second_member)
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
    # more rows than stay on the calling thread, and enough dimensions that
    # four members' runs fit in the attribute matrix, so runs are built on a
    # pool; a literal size, so the pinned files' input does not follow the
    # thread rule
    N = 8 * 4096 + 7
    D = 4 * _PASS_ARRAYS
    # computed with the one-thread full-pass build of full runs; runs written
    # in member order make the file independent of the thread count and of
    # the pass
    PINNED = {
        1: "f3e6708a780f2165c1c0cc6134ff3439045f13a8eb2da06862846e74dc234f5f",
        2: "9c0f72d51d08fd0e900ada75076935e3cac0f8a1b9e0787dc65f2b8c8e32ad7a",
        5: "b42f8e47a60ea31452055ff90e06b913ab89fd3556c18b89e9b0a83f754e76fe",
        7: "4ce0a6d557b5657f0bb771667a9b24abb9fd8c11ae70182c416d4ba8569a841c",
    }

    @pytest.mark.parametrize("cores", [1, 2, 4])
    @pytest.mark.parametrize("m", [1, 2, 5, 7])
    def test_index_file_bytes_are_pinned(self, tmp_path, monkeypatch, m, cores):
        pretend_cores(monkeypatch, cores)
        space, team, target, w = make_setup(seed=30 + m, n=self.N, d=self.D, m=m)
        # the full pass, then the best-first pass over the space's leaves,
        # which must read every leaf for runs of all n entries
        for prune in (False, True):
            with build_index(space, team, target, w, 10, tmp_path, run_length=self.N, prune=prune) as index:
                raw = index_path(tmp_path, index.fingerprint).read_bytes()
                assert index.rows_scored == (self.N,) * m
            assert hashlib.sha256(raw).hexdigest() == self.PINNED[m]
            assert (space._leaves is not None) == prune
        assert member_workers(team, space) == min(m, cores)

    def test_a_pruned_build_runs_on_the_calling_thread_and_builds_the_leaves_once(self, tmp_path, monkeypatch):
        # bf would score these members on a pool of two threads
        pretend_cores(monkeypatch, 2)
        calls, threads = [], set()
        real_partition, real_pass = core.leaf_partition, ranking._member_best_pruned

        def counted_partition(*args):
            calls.append(1)
            return real_partition(*args)

        def recorded_pass(*args, **kwargs):
            threads.add(threading.get_ident())
            return real_pass(*args, **kwargs)

        monkeypatch.setattr(core, "leaf_partition", counted_partition)
        monkeypatch.setattr(ranking, "_member_best_pruned", recorded_pass)
        space, team, target, w = make_setup(seed=3, n=self.N, d=self.D, m=4)
        assert member_workers(team, space) == 2
        for prune, builds in ((False, 0), (True, 1), (True, 1)):
            build_index(space, team, target, w, 10, tmp_path, prune=prune).close()
            assert len(calls) == builds
        assert threads == {threading.get_ident()}

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

        monkeypatch.setattr(ranking, "_exchange_distance_rows", fail_on_third_member)
        for directory in (fresh, rebuilt):
            with pytest.raises(RuntimeError) as caught:
                build_index(space, team, target, w, 4, directory)
            assert caught.value is error
            assert member_workers(team, space) == 2
            calls.clear()
        assert list(fresh.iterdir()) == []
        assert list(rebuilt.iterdir()) == [path]
        assert path.read_bytes() == before


class TestRunOrder:
    def test_runs_are_in_lexsort_key_id_order(self, tmp_path):
        space, team, target, w = tie_heavy_setup()
        assert not np.array_equal(space.id_order(), np.arange(len(space)))
        with build_index(space, team, target, w, 7, tmp_path, run_length=len(space)) as index:
            for member_index, record in enumerate(team.members):
                keys = exact_keys(space, team, target, w, record)
                assert np.count_nonzero(keys == 0.0) > 100
                ordinals, _ = index.query_min_raw(member_index, len(space))
                assert np.array_equal(ordinals, np.lexsort((space.ids, keys)))

    def test_index_file_bytes_are_pinned(self, tmp_path):
        # any change to a key's bits or to the (key, id) order changes this digest
        space, team, target, w = tie_heavy_setup()
        with build_index(space, team, target, w, 7, tmp_path, run_length=len(space)) as index:
            raw = index_path(tmp_path, index.fingerprint).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == (
            "b3b2c1becc9c6ded9d025c95b6f3a99599047c5794ee1c993460c00420950ec6"
        )

    @pytest.mark.parametrize("length", ["1", "B-1", "B", "B+1", "n-1", "n", "2n"])
    def test_each_run_is_the_lexsort_prefix(self, tmp_path, monkeypatch, length):
        space, team, target, w = tie_heavy_setup()
        # n - 1 is 23 whole blocks of 13, so that run ends one entry short of n
        n, b = len(space), 13
        run_length = {"1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "n-1": n - 1, "n": n, "2n": 2 * n}[length]
        kept = min(-(-run_length // b) * b, n)

        def signed_keys(*args):
            # -0.0 ties +0.0 on every other row; NaN keys sort last, as in lexsort
            keys = _exchange_distance_rows(*args)
            keys[::2] = np.where(keys[::2] == 0.0, -0.0, keys[::2])
            keys[[10, 60, 110, 210, 260]] = np.nan
            return keys

        monkeypatch.setattr(ranking, "_exchange_distance_rows", signed_keys)
        # the patched kernel marks keys by row position, which only the full pass scores in row order
        with build_index(space, team, target, w, b, tmp_path, run_length=run_length, prune=False) as index:
            assert index.run_length == kept
            assert index.data_blocks == -(-kept // b)
            raw = index_path(tmp_path, index.fingerprint).read_bytes()
        runs = np.frombuffer(raw[HEADER.size:], dtype=nnindex.RECORD_DTYPE).reshape(team.size, -1)
        for run, record in zip(runs, team.members):
            keys = signed_keys(diff(target, team) + record.attrs, record.lam, space.attrs, space.lambdas, w)
            assert np.count_nonzero(keys == 0.0) > 100 and np.signbit(keys[keys == 0.0]).any()
            expected = np.lexsort((space.ids, keys))[:kept]
            assert np.array_equal(run["ordinal"][:kept], expected)
            # bit for bit: each -0.0, 0.0 and NaN key sits where its row does
            assert np.array_equal(run["key"][:kept].view(np.uint64), keys[expected].view(np.uint64))
            # only a run of all n entries ends inside a block; padding fills the rest
            assert np.all(run["key"][kept:] == np.inf)
            assert np.all(run["ordinal"][kept:] == nnindex.PAD_ORDINAL)


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
        with build_index(space, team, target, w, 4, tmp_path, run_length=23) as index:
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
        with build_index(space, team, target, w, 4, tmp_path, run_length=9) as index:
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
            with build_index(space, team, target, w, b, tmp_path / str(trial), run_length=k) as index:
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
        with build_index(space, team, target, [1.0, 1.0], 2, tmp_path, run_length=6) as index:
            entries = query_min(index, space, 0, 6)
            assert [obj for obj, _ in entries] == [f"p{i}" for i in range(6)]

    def test_concurrent_queries_do_not_lose_counts_or_corrupt_reads(self, tmp_path):
        space, team, target, w = make_setup(seed=14, n=64, m=2)
        with build_index(space, team, target, w, 1, tmp_path, run_length=64) as index:
            baseline = {
                (member, k): query_min(index, space, member, k)
                for member in range(2)
                for k in (1, 7, 31, 64)
            }
            read, served = index.query_io.blocks_read, index.query_io.queries_served
            failures, asked = [], []

            def worker(worker_id):
                rng = np.random.default_rng(worker_id)
                for _ in range(50):
                    member = int(rng.integers(0, 2))
                    k = int(rng.choice([1, 7, 31, 64]))
                    asked.append(k)
                    if query_min(index, space, member, k) != baseline[(member, k)]:
                        failures.append((worker_id, member, k))

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert failures == []
            # one block per entry at B = 1
            assert index.query_io.blocks_read == read + sum(asked)
            assert index.query_io.queries_served == served + 4 * 50

    def test_reads_reported_by_a_ranking_ignore_other_readers_of_its_index(self, tmp_path):
        # the index's counters are shared, so a second thread's reads must not
        # reach the per-member reads that one rtc_star_rank call reports
        space, team, target, w = make_setup(seed=15, n=2000, m=4)
        k, b = 10, 5
        with build_index(space, team, target, w, b, tmp_path, run_length=k) as index:
            stop = threading.Event()

            def reader():
                while not stop.is_set():
                    index.query_min_raw(0, k)

            thread = threading.Thread(target=reader)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            thread.start()
            try:
                reported = []
                for _ in range(500):
                    stats = {}
                    rtc_star_rank(team, target, space, w, index, k, stats_out=stats)
                    reported.append(stats["per_member_reads"])
            finally:
                stop.set()
                thread.join(timeout=10)
                sys.setswitchinterval(interval)
            assert not thread.is_alive()
        assert [reads for reads in reported if reads != [-(-k // b)] * 4] == []


class TestOpenAndFingerprint:
    def test_open_round_trip(self, tmp_path):
        space, team, target, w = make_setup(seed=16, m=2)
        built = build_index(space, team, target, w, 5, tmp_path)
        expected = query_min(built, space, 0, 4)
        built.close()
        with NnIndex.open(tmp_path, built.fingerprint, space) as reopened:
            assert reopened.m == 2
            assert (reopened.run_length, reopened.data_blocks) == (built.run_length, built.data_blocks) == (5, 1)
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


    def test_check_refuses_another_configuration(self, tmp_path):
        space, team, target, w = make_setup(seed=20)
        # same aggregate under another id: every key re-scores alike, only the fingerprint differs
        renamed = TargetContext(team_id="U", aggregate=target.aggregate)
        with build_index(space, team, target, w, 5, tmp_path) as index:
            index.check(space, team, target, w)
            for args in ((space, team, renamed, w), (space, team, target, np.asarray(w) * 2.0)):
                with pytest.raises(StaleIndex, match="does not match configuration"):
                    index.check(*args)
            with pytest.raises(StaleIndex, match="does not match configuration"):
                rtc_star_rank(team, renamed, space, w, index, 3)

class TestDamagedPartitions:
    def build_closed(self, tmp_path, n=60):
        space, team, target, w = make_setup(seed=21, n=n, m=2)
        build_index(space, team, target, w, 4, tmp_path, run_length=n).close()
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
        build_index(space, team, target, w, b, tmp_path, run_length=k).close()
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

    def test_version_4_file_is_stale(self, tmp_path):
        # a version-4 file held all n entries per run behind a 44-byte header;
        # its data bytes are those of a version-5 file of full runs
        space, fp, path = self.build_closed(tmp_path)
        magic, _, d, m, n, length, b, digest = HEADER.unpack(path.read_bytes()[: HEADER.size])
        assert length == n
        old_header = struct.pack("<8sHHIQI16s", magic, 4, d, m, n, b, digest)
        path.write_bytes(old_header + path.read_bytes()[HEADER.size :])
        with pytest.raises(StaleIndex, match="version"):
            NnIndex.open(tmp_path, fp, space)

    @pytest.mark.parametrize("damage", ["another row", "n", "2**64 - 2", "key one ulp up"])
    def test_a_corrupt_entry_is_stale(self, tmp_path, damage):
        # member 1's second entry names a worse row, no row, or a row the
        # unchecked cast to intp would turn into -2; or its key is off by one ulp
        space, team, target, w = make_setup(seed=21, n=60, m=2)
        k = 5
        with build_index(space, team, target, w, 4, tmp_path, run_length=k) as index:
            fp, run = index.fingerprint, index.run_length
            assert rtc_star_rank(team, target, space, w, index, k) == brute_force_rank(team, target, space, w, k)
            ordinals, stored = index.query_min_raw(1, k)
        path = index_path(tmp_path, fp)
        raw = bytearray(path.read_bytes())
        at = HEADER.size + (run + 1) * 16
        if damage == "key one ulp up":
            raw[at : at + 8] = struct.pack("<d", np.nextafter(stored[1], np.inf))
        else:
            keys = exact_keys(space, team, target, w, team.members[1])
            worse = int(np.argmax(keys))
            assert worse not in ordinals and keys[worse] != stored[1]
            value = {"another row": worse, "n": len(space), "2**64 - 2": 2**64 - 2}[damage]
            raw[at + 8 : at + 16] = value.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with NnIndex.open(tmp_path, fp, space) as index:
            with pytest.raises(StaleIndex):
                rtc_star_rank(team, target, space, w, index, k)

    def test_tied_entries_out_of_id_order_are_stale(self, tmp_path):
        # member 0's first two entries both have key 0; swapped, every key still matches
        space, team, target, w = tie_heavy_setup()
        with build_index(space, team, target, w, 13, tmp_path, run_length=13) as index:
            fp = index.fingerprint
            _, stored = index.query_min_raw(0, 2)
        assert stored.tolist() == [0.0, 0.0]
        path = index_path(tmp_path, fp)
        raw = bytearray(path.read_bytes())
        first, second = HEADER.size, HEADER.size + 16
        raw[first:second], raw[second : second + 16] = raw[second : second + 16], raw[first:second]
        path.write_bytes(bytes(raw))
        with NnIndex.open(tmp_path, fp, space) as index:
            with pytest.raises(StaleIndex):
                rtc_star_rank(team, target, space, w, index, 13)

    @pytest.mark.parametrize("length", [0, 5, 61])
    def test_run_length_that_does_not_fit_the_blocks_is_stale(self, tmp_path, length):
        # runs are whole blocks of 4 real entries, or all 60
        space, fp, path = self.build_closed(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[24:32] = length.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(StaleIndex, match="run length"):
            NnIndex.open(tmp_path, fp, space)


class TestRunLength:
    def test_default_run_is_one_block(self, tmp_path):
        space, team, target, w = make_setup(seed=22, n=40, m=2)
        with build_index(space, team, target, w, 6, tmp_path) as index:
            assert (index.run_length, index.data_blocks) == (6, 1)
            assert index.build_io.blocks_written == 2
            assert index_path(tmp_path, index.fingerprint).stat().st_size == HEADER.size + 2 * 6 * 16

    def test_longer_query_than_the_run_raises_short_index(self, tmp_path):
        space, team, target, w = make_setup(seed=23, n=40, m=2)
        with build_index(space, team, target, w, 4, tmp_path, run_length=6) as index:
            assert index.run_length == 8
            assert len(query_min(index, space, 1, 8)) == 8
            with pytest.raises(ShortIndex):
                index.query_min_raw(1, 9)
            # the rule holds on a reopened file too, and nothing is read or counted
            with NnIndex.open(tmp_path, index.fingerprint, space) as reopened:
                with pytest.raises(ShortIndex):
                    reopened.query_min_raw(0, 9)
                with pytest.raises(StaleIndex):
                    rtc_star_rank(team, target, space, w, reopened, 9)
                io = reopened.query_io
                assert (io.blocks_read, io.blocks_written, io.queries_served) == (0, 0, 0)
            assert rtc_star_rank(team, target, space, w, index, 8) == brute_force_rank(team, target, space, w, 8)

    def test_run_of_all_entries_answers_any_k(self, tmp_path):
        space, team, target, w = make_setup(seed=24, n=10, m=2)
        with build_index(space, team, target, w, 4, tmp_path, run_length=10) as index:
            assert len(query_min(index, space, 0, 50)) == 10
            assert rtc_star_rank(team, target, space, w, index, 50) == brute_force_rank(team, target, space, w, 50)
        with build_index(space, team, target, w, 4, tmp_path / "short", run_length=8) as index:
            with pytest.raises(ShortIndex):
                index.query_min_raw(0, 50)

    def test_run_length_is_not_part_of_the_fingerprint(self, tmp_path):
        space, team, target, w = make_setup(seed=25, n=30, m=2)
        fp = fingerprint(space, team, target, w, 5)
        for run_length in (1, 12, 30):
            with build_index(space, team, target, w, 5, tmp_path, run_length=run_length) as index:
                assert index.fingerprint == fp
        assert list(tmp_path.iterdir()) == [index_path(tmp_path, fp)]
        with pytest.raises(InvalidArgument):
            build_index(space, team, target, w, 5, tmp_path, run_length=0)
