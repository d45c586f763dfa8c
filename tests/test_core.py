import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamrank import core
from teamrank.core import (
    _DIGEST_ROWS,
    ObjectRecord,
    ObjectSpace,
    TargetContext,
    aggregate_team,
    diff,
    post_exchange_diff,
    post_exchange_distance,
    team_from_ids,
    team_from_records,
    truncated_distance,
    truncating_vector,
)
from teamrank.dataio import NbParams, gen_synthetic
from teamrank.errors import (
    DimensionMismatch,
    EmptyTeam,
    InvalidArgument,
    InvalidLambda,
    InvalidWeights,
    NotAMember,
)


def rec(rid, attrs, lam=1.0):
    return ObjectRecord(id=rid, label=rid, lam=lam, attrs=np.asarray(attrs, dtype=float))


# integer-valued attribute vectors keep float sums exact
int_vectors = st.lists(
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=3),
    min_size=1,
    max_size=8,
)


class TestAggregateTeam:
    def test_single_member_identity(self):
        assert np.array_equal(aggregate_team([rec("a", [1, 2])]), [1.0, 2.0])

    def test_two_members(self):
        assert np.array_equal(aggregate_team([rec("a", [1, 2]), rec("b", [3, 4])]), [4.0, 6.0])

    def test_zero_case(self):
        members = [rec(f"m{i}", [0, 0]) for i in range(3)]
        assert np.array_equal(aggregate_team(members), [0.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(EmptyTeam):
            aggregate_team([])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            aggregate_team([rec("a", [1, 2]), rec("b", [1, 2, 3])])

    def test_input_order_is_irrelevant_bitwise(self):
        members = [rec(f"m{i}", np.random.default_rng(i).uniform(0, 10, 4)) for i in range(6)]
        forward = aggregate_team(members)
        backward = aggregate_team(list(reversed(members)))
        assert np.array_equal(forward, backward)

    @given(int_vectors, int_vectors)
    def test_linearity_on_disjoint_groups(self, left, right):
        a = [rec(f"a{i}", v) for i, v in enumerate(left)]
        b = [rec(f"b{i}", v) for i, v in enumerate(right)]
        combined = aggregate_team(a + b)
        assert np.array_equal(combined, aggregate_team(a) + aggregate_team(b))


class TestTeamContext:
    def test_repeated_member_id_rejected(self):
        space = ObjectSpace.from_records([rec("a", [1.0, 2.0]), rec("b", [3.0, 4.0])], ("x", "y"))
        with pytest.raises(InvalidArgument, match="more than once"):
            team_from_ids(space, ["a", "a", "b"])
        assert team_from_ids(space, ["b", "a"]).member_ids == ("a", "b")


class TestDiff:
    def test_case_one_coordinates(self):
        team = team_from_records([rec("c", [1.0, 0.3])])
        target = TargetContext(team_id="T", aggregate=[0.5, 1.0])
        assert np.allclose(diff(target, team), [-0.5, 0.7], atol=1e-12)

    def test_equal_vectors_give_zero(self):
        team = team_from_records([rec("c", [2.0, 5.0])])
        target = TargetContext(team_id="T", aggregate=[2.0, 5.0])
        assert np.array_equal(diff(target, team), [0.0, 0.0])

    def test_case_two_coordinates(self):
        team = team_from_records([rec("c", [0.3, 0.3])])
        target = TargetContext(team_id="T", aggregate=[0.5, 1.0])
        assert np.allclose(diff(target, team), [0.2, 0.7], atol=1e-12)

    def test_dimension_mismatch(self):
        team = team_from_records([rec("c", [1.0, 2.0])])
        target = TargetContext(team_id="T", aggregate=[1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            diff(target, team)


class TestTruncatingVector:
    def test_mixed_signs(self):
        assert np.array_equal(truncating_vector([-0.5, 0.7]), [0.0, 1.0])

    def test_both_weak(self):
        assert np.array_equal(truncating_vector([0.2, 0.7]), [1.0, 1.0])

    def test_fully_dominant_team(self):
        assert np.array_equal(truncating_vector([-3.0, -0.1, -7.0]), [0.0, 0.0, 0.0])

    def test_zero_gap_counts_as_weak(self):
        assert np.array_equal(truncating_vector([0.0, -1.0]), [1.0, 0.0])


class TestTruncatedDistance:
    def test_case_one_value(self):
        gap = np.array([-0.5, 0.7])
        assert truncated_distance(gap, truncating_vector(gap), [1.0, 1.0]) == pytest.approx(0.7, abs=1e-12)

    def test_case_two_value(self):
        gap = np.array([0.2, 0.7])
        expected = math.sqrt(0.53)
        assert truncated_distance(gap, truncating_vector(gap), [1.0, 1.0]) == pytest.approx(expected, abs=1e-12)

    def test_zero_gap(self):
        assert truncated_distance([0.0, 0.0], [1.0, 1.0], [1.0, 1.0]) == 0.0

    def test_invalid_weights(self):
        with pytest.raises(InvalidWeights):
            truncated_distance([1.0, 1.0], [1.0, 1.0], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            truncated_distance([1.0, 1.0], [1.0], [1.0, 1.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_truncation_never_exceeds_unmasked_distance(self, gap):
        gap = np.asarray(gap)
        w = np.ones_like(gap)
        masked = truncated_distance(gap, truncating_vector(gap), w)
        unmasked = truncated_distance(gap, np.ones_like(gap), w)
        assert masked <= unmasked + 1e-12

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8))
    def test_dominant_team_is_at_distance_zero(self, surplus):
        gap = -np.asarray(surplus)
        assert truncated_distance(gap, truncating_vector(gap), np.ones_like(gap)) == 0.0

    def test_weight_scaling_scales_distance_and_keeps_argmin(self):
        rng = np.random.default_rng(11)
        gaps = rng.normal(0, 5, size=(20, 4))
        w = rng.uniform(0.5, 2.0, size=4)
        base = [truncated_distance(g, truncating_vector(g), w) for g in gaps]
        scaled = [truncated_distance(g, truncating_vector(g), 3.5 * w) for g in gaps]
        for b, s in zip(base, scaled):
            assert s == pytest.approx(3.5 * b, rel=1e-9)
        assert int(np.argmin(base)) == int(np.argmin(scaled))


class TestPostExchange:
    def test_new_gap_formula(self):
        out = rec("r", [3.0, 1.0], lam=2.0)
        into = rec("p", [4.0, 6.0], lam=1.0)
        assert np.array_equal(post_exchange_diff(np.array([-2.0, 4.0]), out, into), [-7.0, -7.0])

    def test_identity_swap_leaves_gap_unchanged(self):
        out = rec("r", [3.0, 1.0], lam=2.0)
        gap = np.array([-2.0, 4.0])
        assert np.array_equal(post_exchange_diff(gap, out, out), gap)

    def test_zero_everything(self):
        out = rec("r", [1.0, 1.0])
        into = rec("p", [1.0, 1.0])
        assert np.array_equal(post_exchange_diff(np.zeros(2), out, into), [0.0, 0.0])

    def test_non_positive_lambda_rejected_at_construction(self):
        with pytest.raises(InvalidLambda):
            rec("bad", [1.0], lam=0.0)
        with pytest.raises(InvalidLambda):
            rec("bad", [1.0], lam=-3.0)

    def test_distance_composition_reaches_zero(self):
        team = team_from_records([rec("r1", [3, 1], lam=2.0), rec("r2", [9, 5], lam=1.0)], team_id="C")
        target = TargetContext(team_id="T", aggregate=[10.0, 10.0])
        swap_in = rec("p1", [4, 6], lam=1.0)
        assert post_exchange_distance(team, target, team.member("r1"), swap_in, [1.0, 1.0]) == 0.0

    def test_identity_swap_neutrality_is_exact_on_integer_data(self):
        rng = np.random.default_rng(3)
        members = [rec(f"m{i}", rng.integers(0, 500, 5).astype(float), lam=float(rng.integers(1, 90))) for i in range(4)]
        team = team_from_records(members, team_id="C")
        target = TargetContext(team_id="T", aggregate=rng.integers(0, 2000, 5).astype(float))
        w = rng.uniform(0.2, 2.0, 5)
        gap = diff(target, team)
        before = truncated_distance(gap, truncating_vector(gap), w)
        for member in members:
            assert post_exchange_distance(team, target, member, member, w) == before

    def test_swap_out_must_be_member(self):
        team = team_from_records([rec("r1", [1.0, 2.0])], team_id="C")
        target = TargetContext(team_id="T", aggregate=[1.0, 2.0])
        with pytest.raises(NotAMember):
            post_exchange_distance(team, target, rec("x", [1.0, 2.0]), rec("p", [0.0, 0.0]), [1.0, 1.0])


class TestObjectSpace:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidArgument):
            ObjectSpace(ids=["a", "a"], lambdas=[1.0, 1.0], attrs=np.ones((2, 2)), attribute_names=["x", "y"])

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(InvalidLambda):
            ObjectSpace(ids=["a", "b"], lambdas=[1.0, 0.0], attrs=np.ones((2, 2)), attribute_names=["x", "y"])

    def test_rates_divide_by_lambda(self):
        space = ObjectSpace(ids=["a"], lambdas=[4.0], attrs=np.array([[2.0, 8.0]]), attribute_names=["x", "y"])
        assert np.array_equal(space.rates(), [[0.5, 2.0]])

    def test_rates_are_computed_afresh_and_not_kept(self):
        space = leaf_space(20_000, 11, seed=3)
        first, again = space.rates(), space.rates()
        assert first is not again and not np.shares_memory(first, again)
        assert first.tobytes() == again.tobytes() == (space.attrs / space.lambdas[:, None]).tobytes()
        del first, again
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            space.rates()
            # the result is dropped at once: the space keeps no n x d array
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < len(space) * 8

    def test_digest_is_order_insensitive(self):
        a = ObjectSpace(ids=["a", "b"], lambdas=[1.0, 2.0], attrs=np.array([[1.0], [2.0]]), attribute_names=["x"])
        b = ObjectSpace(ids=["b", "a"], lambdas=[2.0, 1.0], attrs=np.array([[2.0], [1.0]]), attribute_names=["x"])
        assert a.digest() == b.digest()

    def test_record_round_trip(self):
        space = ObjectSpace(
            ids=["a", "b"],
            lambdas=[1.5, 2.5],
            attrs=np.array([[1.0, 2.0], [3.0, 4.0]]),
            attribute_names=["x", "y"],
            labels=["Alpha", "Beta"],
        )
        again = ObjectSpace.from_records(space.records(), space.attribute_names)
        assert np.array_equal(space.attrs, again.attrs)
        assert space.digest() == again.digest()

    def test_index_of_and_membership(self):
        space = ObjectSpace(ids=["b", "a", "c"], lambdas=[1.0, 1.0, 1.0], attrs=np.ones((3, 1)), attribute_names=["x"])
        assert [space.index_of(i) for i in ("a", "b", "c")] == [1, 0, 2]
        assert "c" in space and "d" not in space
        with pytest.raises(NotAMember):
            space.index_of("d")

    @given(
        ids=st.lists(st.text(max_size=6), min_size=1, max_size=30, unique_by=lambda i: i.rstrip("\x00")),
        others=st.lists(st.one_of(st.text(max_size=6), st.integers(-20, 20), st.floats(allow_nan=False)), max_size=10),
        hint=st.sampled_from(["none", "right", "reversed"]),
    )
    def test_lookup_agrees_with_a_dict(self, ids, others, hint):
        # ids arrive in drawn order, unsorted; numpy drops trailing NULs, as ids.tolist() shows
        space = ObjectSpace(ids=ids, lambdas=np.ones(len(ids)), attrs=np.ones((len(ids), 1)), attribute_names=["x"])
        if hint != "none":
            order = space.id_order() if hint == "right" else space.id_order()[::-1]
            space = ObjectSpace(ids=ids, lambdas=np.ones(len(ids)), attrs=np.ones((len(ids), 1)),
                                attribute_names=["x"], id_order=order)
        rows = dict(zip(space.ids.tolist(), range(len(ids))))
        assert space.ids[space.id_order()].tolist() == sorted(rows)
        # the ids as given, as stored, as numbers where they read as one, and absent keys
        probes = [*ids, *rows, *others]
        probes += [int(i) for i in rows if i.isascii() and i.lstrip("-").isdigit()]
        for probe in probes:
            assert (probe in space) == (str(probe) in rows)
            if str(probe) in rows:
                assert space.index_of(probe) == rows[str(probe)]
            else:
                with pytest.raises(NotAMember):
                    space.index_of(probe)

    @pytest.mark.parametrize(
        "ids", [["a", "a"], ["b", "a", "c", "a"], ["x", "x\x00"], ["é", "z", "é"]], ids=["pair", "unsorted", "nul", "non-ascii"]
    )
    @pytest.mark.parametrize("hint", [None, "argsort"])
    def test_duplicate_ids_are_rejected_with_or_without_an_order(self, ids, hint):
        order = None if hint is None else np.argsort(np.asarray(ids), kind="stable")
        with pytest.raises(InvalidArgument, match="object ids must be unique within a space"):
            ObjectSpace(ids=ids, lambdas=np.ones(len(ids)), attrs=np.ones((len(ids), 1)),
                        attribute_names=["x"], id_order=order)

    @pytest.mark.parametrize(
        "order", [[0, 1, 2], [2, 1, 0], [1, 1, 0], [0, 2, 3], [-1, 0, 1], [0.0, 2.0, 1.0], [0, 2]],
        ids=["identity", "reversed", "repeated", "out-of-range", "negative", "floats", "short"],
    )
    def test_a_wrong_id_order_is_sorted_afresh(self, order):
        space = ObjectSpace(ids=["b", "c", "a"], lambdas=[1.0, 1.0, 1.0], attrs=np.ones((3, 1)),
                            attribute_names=["x"], id_order=np.array(order))
        assert space.id_order().tolist() == [2, 0, 1]
        assert [space.index_of(i) for i in ("a", "b", "c")] == [2, 0, 1]

    def test_digest_and_fingerprint_bytes_are_pinned(self):
        # every index header stores this fingerprint: a changed digest orphans existing index files
        from teamrank.core import team_from_ids
        from teamrank.nnindex import fingerprint

        space = ObjectSpace(
            ids=["p3", "p1", "p2", "p10"],
            lambdas=[120.0, 48.5, 300.25, 2.0],
            attrs=[[1.0, 2.0], [3.5, 0.0], [7.0, 8.0], [0.25, 11.0]],
            attribute_names=("FG", "AST"),
            labels=["Three", "One", "Two", "Ten"],
        )
        team = team_from_ids(space, ["p1", "p3"], team_id="AAA")
        target = TargetContext(team_id="BBB", aggregate=[6.0, 9.0])
        assert space.digest() == "2ab99333887900ee1a3b9c371575c9e2a0b57d76ce2b9ae4e89e2836f678059d"
        assert fingerprint(space, team, target, np.array([1.0, 0.5]), 2) == "16c9eebc3b5ce563077b4cadc55a941f"


def whole_matrix_digest(space):
    """The content digest hashed in one piece, from a row-major copy of the rows in id order."""
    import hashlib

    order = space.id_order()
    h = hashlib.sha256()
    h.update(b"teamrank-space-v1\x00")
    h.update(str(space.dimension).encode())
    h.update(("\x00".join(space.attribute_names)).encode())
    h.update(b"\x00ids\x00")
    h.update("\x00".join(space.ids[order].tolist()).encode())
    h.update(b"\x00lambdas\x00")
    h.update(np.ascontiguousarray(space.lambdas[order]))
    h.update(b"\x00attrs\x00")
    h.update(np.ascontiguousarray(space.attrs[order]))
    return h.hexdigest()


class TestLayout:
    """``ObjectSpace.attrs`` is Fortran-ordered whatever it is built from, with the same values."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_constructor_stores_fortran_order(self, order):
        given_attrs = np.asarray(np.arange(12.0).reshape(4, 3), order=order)
        space = ObjectSpace(ids=list("abcd"), lambdas=np.ones(4), attrs=given_attrs, attribute_names=list("xyz"))
        assert space.attrs.flags.f_contiguous
        assert space.attrs.tobytes() == given_attrs.tobytes()
        assert space.record(1).attrs.tolist() == [3.0, 4.0, 5.0]

    def test_from_records_stores_fortran_order(self):
        records = [rec(f"r{i}", [i, 2.0 * i, -i], lam=1.0 + i) for i in range(5)]
        space = ObjectSpace.from_records(records, ["x", "y", "z"])
        assert space.attrs.flags.f_contiguous
        assert space.attrs.tobytes() == np.stack([r.attrs for r in records]).tobytes()

    # below one piece of the streamed digest, and across several pieces with a short last one
    @pytest.mark.parametrize("n", [1, 7, _DIGEST_ROWS, 8 * _DIGEST_ROWS + 5])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["identity", "shuffled"])
    def test_digest_equals_the_whole_matrix_hash(self, n, shuffled):
        rng = np.random.default_rng(n)
        ids = np.char.mod("o%06d", np.arange(n))
        rows = rng.permutation(n) if shuffled else np.arange(n)
        attrs = rng.uniform(-5.0, 500.0, size=(n, 3))
        space = ObjectSpace(ids=ids[rows], lambdas=rng.uniform(1.0, 9.0, size=n), attrs=attrs, attribute_names=list("xyz"))
        assert (space.id_order().tolist() == list(range(n))) == (not shuffled or n == 1)
        assert space.digest() == whole_matrix_digest(space)


class TestEquality:
    def test_records_compare_and_hash_by_value(self):
        a, b = rec("x", [1, 2, 3]), rec("x", [1.0, 2.0, 3.0])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # np.array_equal: a negative zero equals zero, and hashes alike
        assert rec("x", [-0.0, 2.0]) == rec("x", [0.0, 2.0])
        assert hash(rec("x", [-0.0, 2.0])) == hash(rec("x", [0.0, 2.0]))
        assert a != rec("x", [1, 2, 4]) and a != rec("y", [1, 2, 3]) and a != rec("x", [1, 2, 3], lam=2.0)
        assert a != ObjectRecord(id="x", label="other", lam=1.0, attrs=np.array([1.0, 2.0, 3.0]))
        assert a != rec("x", [1, 2]) and a != "x"

    def test_teams_compare_and_hash_by_members_and_id(self):
        space = ObjectSpace(
            ids=["a", "b", "c"], lambdas=[1.0, 2.0, 3.0], attrs=[[1, 2], [3, 4], [5, 6]], attribute_names=("x", "y")
        )
        first, again = team_from_ids(space, ["a", "b"], team_id="T"), team_from_ids(space, ["b", "a"], team_id="T")
        assert first == again and hash(first) == hash(again) and len({first, again}) == 1
        assert first != team_from_ids(space, ["a", "c"], team_id="T")
        assert first != team_from_ids(space, ["a", "b"], team_id="U")
        assert first != first.members

    def test_targets_compare_and_hash_by_value(self):
        t = TargetContext(team_id="T", aggregate=[1, 2])
        assert t == TargetContext(team_id="T", aggregate=[1.0, 2.0])
        assert hash(t) == hash(TargetContext(team_id="T", aggregate=[1.0, 2.0]))
        assert t != TargetContext(team_id="T", aggregate=[1.0, 3.0]) and t != TargetContext(team_id="U", aggregate=[1, 2])


def leaf_space(n, d, seed=0, negative=False):
    rng = np.random.default_rng(seed)
    attrs = rng.negative_binomial(1.2, 0.05, size=(n, d)).astype(float)
    if negative:
        attrs -= attrs.mean(axis=0)
    return ObjectSpace(
        ids=[f"o{i:06d}" for i in rng.permutation(n)],
        lambdas=rng.uniform(1.0, 100.0, size=n),
        attrs=attrs,
        attribute_names=[f"a{j}" for j in range(d)],
    )


class TestLeafPartition:
    @pytest.mark.parametrize("leaf_rows", [1, 7, 128, 10_000])
    @pytest.mark.parametrize("n, d, negative", [(1, 1, False), (300, 3, True), (5000, 11, False), (20_000, 2, False)])
    def test_leaves_partition_the_rows_and_bound_their_rates(self, monkeypatch, leaf_rows, n, d, negative):
        monkeypatch.setattr(core, "_LEAF_ROWS", leaf_rows)
        space = leaf_space(n, d, seed=n + d, negative=negative)
        leaves = space.leaves()
        assert leaves is space.leaves()
        assert leaves.ranks.dtype == np.int32 and leaves.corners.shape == (len(leaves), d)
        assert leaves.starts.shape == leaves.sizes.shape == (len(leaves),)
        assert leaves.sizes.min() >= 1 and leaves.sizes.max() <= leaf_rows
        # every id rank, a row's position in the space's id order, once, in the leaves' segments
        assert sorted(leaves.ranks.tolist()) == list(range(n))
        held = np.concatenate([leaves.ranks[s : s + size] for s, size in zip(leaves.starts, leaves.sizes)])
        assert sorted(held.tolist()) == list(range(n))
        assert leaves.lambda_range == (space.lambdas.min(), space.lambdas.max())
        rates = space.attrs / space.lambdas[:, None]
        # leaves are numbered in ascending first rank
        assert (np.diff(leaves.ranks[leaves.starts]) > 0).all()
        for j in range(len(leaves)):
            ranks = leaves.ranks[leaves.starts[j] : leaves.starts[j] + leaves.sizes[j]]
            assert (np.diff(ranks) > 0).all()
            rows = space.id_order()[ranks]
            # the largest rate of the leaf, raised _CORNER_ULPS ulps toward +inf
            corner = rates[rows].max(axis=0)
            for _ in range(core._CORNER_ULPS):
                corner = np.nextafter(corner, np.inf)
            assert leaves.corners[j].tobytes() == corner.tobytes()
        if leaf_rows >= n:
            assert len(leaves) == 1
        if leaf_rows == 1:
            assert len(leaves) == n

    def test_build_is_deterministic_and_reads_no_rate_matrix(self, monkeypatch):
        space = leaf_space(30_000, 11, seed=4)
        monkeypatch.setattr(ObjectSpace, "rates", lambda self: pytest.fail("the leaf build computed rates()"))
        first = core.leaf_partition(space.attrs, space.lambdas, space.id_order())
        again = core.leaf_partition(np.ascontiguousarray(space.attrs), space.lambdas.copy(), space.id_order().copy())
        for name in ("ranks", "starts", "sizes", "corners", "attrs", "lambdas"):
            assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
        # 30,000 rows: 8 split bits, so at most 256 codes of up to 128-row leaves each
        assert len(first) <= 256 + 30_000 // 128

    # computed before the placing pass became a plain counting sort by code:
    # (sha256 of every leaf's size and int32 ranks, leaf after leaf, sha256
    # of the corner bytes) for a generated space and the same rows with
    # shuffled ids
    PINNED = {
        False: (
            "de50a85746fc467825e143964bac4d59ac342d43884c48a1909197a5e14449b2",
            "06e0ab5fe49fbed51b1764f66f102ca17b1b5ff7096aa7e614a6a50c6ea239cf",
        ),
        True: (
            "0e24f23e5be364f9eaecc8df5714c60611acd1c598ca4b95b0c18c3775d10f7d",
            "7a52ef130487088aa516d355319b61145a224d2de3b0f6d7a857ae49d5815b7e",
        ),
    }

    @staticmethod
    def pinned_space(shuffled):
        """A generated 30,011 x 11 space, or the same rows with seeded shuffled ids."""
        space = gen_synthetic({f"a{j}": NbParams(1.2, 0.05) for j in range(11)}, count=30_011, seed=22)
        if shuffled:
            ids = np.random.default_rng(22).permutation(space.ids)
            space = ObjectSpace(ids, space.lambdas, space.attrs, space.attribute_names)
        return space

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_leaves_are_pinned(self, shuffled):
        leaves = self.pinned_space(shuffled).leaves()
        assert len(leaves) == 345
        ranks = hashlib.sha256()
        for j in range(len(leaves)):
            leaf = leaves.ranks[leaves.starts[j] : leaves.starts[j] + leaves.sizes[j]]
            ranks.update(np.int32(len(leaf)).tobytes())
            ranks.update(leaf.tobytes())
        assert (ranks.hexdigest(), hashlib.sha256(leaves.corners.tobytes()).hexdigest()) == self.PINNED[shuffled]

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_the_store_holds_every_row_in_code_order(self, shuffled):
        space = self.pinned_space(shuffled)
        leaves = space.leaves()
        # store row p is the row of id rank ranks[p], as the space holds it
        rows = space.id_order()[leaves.ranks]
        assert leaves.attrs.dtype == np.float32 and leaves.attrs.flags.c_contiguous
        assert leaves.attrs.shape == space.attrs.shape
        assert leaves.attrs.astype(np.float64).tobytes() == np.ascontiguousarray(space.attrs[rows]).tobytes()
        assert leaves.lambdas.tobytes() == space.lambdas[rows].tobytes()

    @pytest.mark.parametrize("value", [0.1, 2.0**24 + 1, 1e39, 1e-310])
    def test_an_attribute_that_float32_does_not_hold_leaves_no_store(self, value):
        # a fraction, an integer past float32's 24-bit mantissa, a value past
        # its range and one below its subnormals, in the row the build gathers last
        space = leaf_space(5000, 11, seed=4)
        leaves = space.leaves()
        assert leaves.attrs is not None
        attrs = space.attrs.copy()
        attrs[space.id_order()[leaves.ranks[-1]], 5] = value
        other = ObjectSpace(space.ids, space.lambdas, attrs, space.attribute_names).leaves()
        assert other.attrs is None and other.lambdas is None

    def test_the_build_holds_at_most_four_bytes_a_row_beyond_its_result(self):
        # half of one n-length int64 array: the build's pieces and per-code
        # and per-leaf arrays, about 0.55 MiB here against a bound of 1.9 MiB
        n = 500_000
        rng = np.random.default_rng(5)
        attrs = np.asfortranarray(rng.negative_binomial(1.2, 0.05, size=(n, 11)).astype(float))
        lambdas, id_order = rng.uniform(1.0, 100.0, size=n), rng.permutation(n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            leaves = core.leaf_partition(attrs, lambdas, id_order)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        result = sum(value.nbytes for value in vars(leaves).values() if isinstance(value, np.ndarray))
        assert peak - result <= 4 * n
