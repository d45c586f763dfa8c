"""Swap-pair ranking: exhaustive baseline and the index-backed method.

Both methods rank (swap-out member, swap-in candidate) pairs by the exact
post-exchange distance to the target, with ties broken by ascending
(swap-out id, swap-in id). The exhaustive method scores every pair. The index
method maps each member R to a *virtual object*: the rate vector that a
replacement would need, per unit of R's exchange parameter, to close every
weak-dimension gap exactly:

    v_i = max(0, (gap_i + r_i) / lambda_r) on weak dimensions, 0 on strong

Candidates are compared against it in rate space (attributes divided by
their own exchange parameter) through the one-sided key

    odis = sqrt(sum_i (w_i * max(v_i - rate_i, 0) * mask_i) ** 2)

For a fixed member, exact post-exchange distance equals lambda_r * odis
whenever the trade flips no strong dimension and the virtual object needed
no clipping, so candidates retrieved in ascending key order arrive already
ranked. A flip only adds non-negative strong-dimension terms, so as long as
no clipped dimension meets a negative candidate rate, lambda_r * odis is a
lower bound on the exact distance (the lower-bounding lemma of
filter-and-refine search). Each member takes one of three paths:

* fast path: no candidate can flip a strong dimension (the member carries
  no more than the team's surplus there, or a cheap per-dimension rate
  minimum proves no capable candidate exists). The member's first
  ``top_k`` index entries, re-scored exactly, are its best swaps.
* lower-bound scan: a flip is possible. The member's run is read in
  (key, id) order in growing chunks and re-scored exactly until the next
  entry's bound (lambda_r * key, member id, candidate id) is past the k-th
  best (distance, swap-out id, swap-in id) pooled over all members so far,
  the stopping rule of multi-step k-nearest-neighbour search with a
  threshold shared across runs.
* full re-score: a clipped dimension meets negative candidate rates, so the
  key bounds nothing; every row of the in-memory candidate matrix is
  re-scored.

All three call one per-member scoring kernel, and the merged result is
identical to the exhaustive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    ObjectRecord,
    ObjectSpace,
    TargetContext,
    TeamContext,
    diff,
    post_exchange_diff,
    post_exchange_distance,
    truncating_vector,
    weight_vector,
)
from .errors import DimensionMismatch, EmptySpace, InvalidArgument, NotAMember, StaleIndex

if TYPE_CHECKING:  # pragma: no cover
    from .nnindex import NnIndex

__all__ = [
    "VirtualObject",
    "NormalizedCandidate",
    "SwapRecommendation",
    "CorollaryReport",
    "virtual_object",
    "normalized_candidate",
    "odis",
    "odis_keys",
    "brute_force_rank",
    "rtc_star_rank",
    "verify_corollary",
]


@dataclass(frozen=True)
class VirtualObject:
    """Per-member rate-space target used as the nearest-neighbour query point.

    ``clipped_dims`` marks weak dimensions whose raw value was negative and
    got clipped to zero (possible only with negative attribute values); those
    dimensions void the scaled-distance identity, so the flag is kept.
    """

    swap_out_id: str
    values: np.ndarray
    tv2: np.ndarray
    clipped_dims: np.ndarray

    @property
    def clipped(self) -> bool:
        return bool(self.clipped_dims.any())


@dataclass(frozen=True)
class NormalizedCandidate:
    """A candidate projected into rate space: attributes over its lambda."""

    object_id: str
    rates: np.ndarray


@dataclass(frozen=True)
class SwapRecommendation:
    swap_out_id: str
    swap_in_id: str
    new_distance: float
    odis: float


@dataclass(frozen=True)
class CorollaryReport:
    """Diagnostic pairing the exact distance with the index key.

    When ``strong_flip`` is False and the virtual object was not clipped,
    ``dis_prime == lambda_r * odis`` up to floating-point noise.
    """

    dis_prime: float
    odis: float
    lambda_r: float
    strong_flip: bool
    clipped: bool


def virtual_object(team: TeamContext, target: TargetContext, swap_out: ObjectRecord) -> VirtualObject:
    """Build the rate vector a replacement for ``swap_out`` would need."""
    if swap_out.id not in set(team.member_ids):
        raise NotAMember(f"object {swap_out.id!r} is not a member of the team")
    gap = diff(target, team)
    tv2 = truncating_vector(gap)
    raw = (gap + swap_out.attrs) / swap_out.lam
    clipped_dims = (raw < 0.0) & (tv2 > 0.0)
    values = np.maximum(raw, 0.0) * tv2
    return VirtualObject(swap_out_id=swap_out.id, values=values, tv2=tv2, clipped_dims=clipped_dims)


def normalized_candidate(record: ObjectRecord) -> NormalizedCandidate:
    return NormalizedCandidate(object_id=record.id, rates=record.attrs / record.lam)


# rows per block of the two row kernels: one (block, d) float64 temporary stays
# in L2 (about 360 KB at d = 11) instead of streaming n x d arrays through memory
_CHUNK_ROWS = 4096


def odis_keys(values: np.ndarray, tv2: np.ndarray, rates: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized one-sided key for every row of a rate matrix.

    Rows are processed in blocks of ``_CHUNK_ROWS`` through one reused
    temporary. Each row's arithmetic is the whole-array expression
    ``sqrt(sum((w * max(values - rate, 0) * tv2) ** 2))``, operation for
    operation, so the keys are bit-identical to it for any block size.
    """
    rates = np.atleast_2d(rates)
    n, d = rates.shape
    if d != values.size:
        raise DimensionMismatch(f"rates have {d} dims, virtual object has {values.size}")
    out = np.empty(n)
    buf = np.empty((min(n, _CHUNK_ROWS), d))
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        terms = buf[: stop - start]
        np.subtract(values, rates[start:stop], out=terms)
        np.maximum(terms, 0.0, out=terms)
        np.multiply(w, terms, out=terms)
        np.multiply(terms, tv2, out=terms)
        np.multiply(terms, terms, out=terms)
        np.add.reduce(terms, axis=1, out=out[start:stop])
    return np.sqrt(out, out=out)


def odis(v: VirtualObject, cand: NormalizedCandidate, w) -> float:
    """One-sided distance from a candidate's rates to the virtual object.

    Zero exactly when the candidate meets or exceeds the virtual object on
    every weak dimension.
    """
    w = weight_vector(w)
    if w.size != v.values.size:
        raise DimensionMismatch(f"weights have {w.size} dims, virtual object has {v.values.size}")
    return float(odis_keys(v.values, v.tv2, cand.rates, w)[0])


def _exchange_distance_rows(
    base: np.ndarray,
    lambda_r: float,
    attr_rows: np.ndarray,
    lambda_rows: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Exact post-exchange distances for one member against candidate rows.

    ``base`` is gap + member attributes; each row's contribution is rescaled
    by lambda_r over its own lambda, and the mask comes from the
    post-exchange gap sign. Rows are processed in blocks of ``_CHUNK_ROWS``
    through one reused temporary; each row's arithmetic is the whole-array
    expression ``sqrt(sum((w * max(base - (lambda_r / lambda) * attrs, 0)) ** 2))``,
    operation for operation, so the distances are bit-identical to it.
    """
    n, d = attr_rows.shape
    out = np.empty(n)
    buf, ratio_buf = np.empty((min(n, _CHUNK_ROWS), d)), np.empty(min(n, _CHUNK_ROWS))
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        terms, ratio = buf[: stop - start], ratio_buf[: stop - start]
        np.divide(lambda_r, lambda_rows[start:stop], out=ratio)
        np.multiply(ratio[:, None], attr_rows[start:stop], out=terms)
        np.subtract(base, terms, out=terms)
        np.maximum(terms, 0.0, out=terms)
        np.multiply(w, terms, out=terms)
        np.multiply(terms, terms, out=terms)
        np.add.reduce(terms, axis=1, out=out[start:stop])
    return np.sqrt(out, out=out)


def _member_top(dist: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the smallest k distances, ordered with ties by ascending id."""
    n = dist.size
    if k >= n:
        candidates = np.arange(n)
    else:
        kth = np.partition(dist, k - 1)[k - 1]
        candidates = np.nonzero(dist <= kth)[0]
    order = np.lexsort((ids[candidates], dist[candidates]))
    return candidates[order[:k]]


def _member_entries(
    space: ObjectSpace,
    gap: np.ndarray,
    record: ObjectRecord,
    v: VirtualObject,
    w: np.ndarray,
    top_k: int,
    rows: np.ndarray | None = None,
    keys: np.ndarray | None = None,
) -> list[tuple[float, str, float]]:
    """One member's best ``top_k`` swaps as (distance, swap-in id, key) entries.

    The shared per-member kernel: exact post-exchange distances over the
    candidate ``rows`` (every row of the space when None), smallest first
    with ties by ascending id. ``keys`` are the index keys aligned with
    ``rows``; for a full scan the chosen entries' keys are computed.
    """
    if rows is None:
        attrs, lambdas, ids = space.attrs, space.lambdas, space.ids
    else:
        attrs, lambdas, ids = space.attrs[rows], space.lambdas[rows], space.ids[rows]
    dist = _exchange_distance_rows(gap + record.attrs, record.lam, attrs, lambdas, w)
    chosen = _member_top(dist, ids, top_k)
    if keys is None:
        chosen_keys = odis_keys(v.values, v.tv2, space.rates()[chosen], w)
    else:
        chosen_keys = keys[chosen]
    return [(float(dist[i]), str(ids[i]), float(key)) for i, key in zip(chosen, chosen_keys)]


def _merge_and_rank(
    per_member: list[tuple[str, list[tuple[float, str, float]]]],
    top_k: int,
) -> list[SwapRecommendation]:
    pool = [(dist, out_id, in_id, key) for out_id, entries in per_member for dist, in_id, key in entries]
    pool.sort(key=lambda item: (item[0], item[1], item[2]))
    return [
        SwapRecommendation(swap_out_id=out_id, swap_in_id=in_id, new_distance=dist, odis=key)
        for dist, out_id, in_id, key in pool[:top_k]
    ]


def brute_force_rank(
    team: TeamContext,
    target: TargetContext,
    space: ObjectSpace,
    w,
    top_k: int,
) -> list[SwapRecommendation]:
    """Score every (member, candidate) pair and keep the best ``top_k``."""
    if top_k < 1:
        raise InvalidArgument(f"top_k must be >= 1, got {top_k}")
    if len(space) < 1:
        raise EmptySpace("ranking needs a non-empty object space")
    w = weight_vector(w)
    gap = diff(target, team)
    if w.size != gap.size or space.dimension != gap.size:
        raise DimensionMismatch("team, target, space and weights must share a dimension")

    per_member = []
    for record in team.members:
        v = virtual_object(team, target, record)
        per_member.append((record.id, _member_entries(space, gap, record, v, w, top_k)))
    return _merge_and_rank(per_member, top_k)


def _flip_possible(gap: np.ndarray, record: ObjectRecord, min_rates: np.ndarray) -> bool:
    """Could any candidate turn one of the team's strong dimensions weak?

    On a strong dimension the post-exchange gap is (gap_i + r_i) minus the
    candidate's scaled rate; it can only go positive if some candidate's rate
    falls below (gap_i + r_i) / lambda_r. The comparison carries a small
    guard so borderline members take the lower-bound scan.
    """
    strong = gap < 0.0
    if not strong.any():
        return False
    threshold = (gap + record.attrs) / record.lam
    guard = 1e-12 * np.maximum(1.0, np.abs(threshold))
    return bool(np.any(strong & (min_rates < threshold + guard)))


# lambda_r * key is a lower bound on the exact distance up to rounding; the
# bound is shrunk by this factor before it may end a scan
_BOUND_GUARD = 1.0 - 1e-12


@dataclass
class _RunScan:
    """A flip member's progress through its index run, in (key, id) order."""

    member_index: int
    record: ObjectRecord
    v: VirtualObject
    chunk_blocks: int = 0
    last_key: float = 0.0
    last_id: str = ""


def _kth(per_member: list[tuple[str, list[tuple[float, str, float]]]], top_k: int):
    """The k-th smallest (distance, out id, in id) pooled so far, None while short of k."""
    pool = sorted((dist, out_id, in_id) for out_id, entries in per_member for dist, in_id, _ in entries)
    return pool[top_k - 1] if len(pool) >= top_k else None


def _past_kth(lambda_r: float, key: float, out_id: str, in_id: str, kth) -> bool:
    """Is the bound (lambda_r * key, out id, in id) past the k-th pooled triple?

    Ids break the tie only at key 0, where the bound 0 needs no rounding
    guard; above 0 only a strictly larger guarded bound counts.
    """
    if kth is None:
        return False
    if key == 0.0:
        return kth[0] == 0.0 and (out_id, in_id) > kth[1:]
    return lambda_r * key * _BOUND_GUARD > kth[0]


def rtc_star_rank(
    team: TeamContext,
    target: TargetContext,
    space: ObjectSpace,
    w,
    index: "NnIndex",
    top_k: int,
    *,
    stats_out: dict | None = None,
) -> list[SwapRecommendation]:
    """Index-backed ranking, guaranteed equal to :func:`brute_force_rank`.

    Each member takes one of three paths, all scored by the shared kernel:

    * fast path (no strong-dimension flip possible): the first ``top_k``
      index entries, one read of ceil(top_k / block_size) blocks, arrive in
      exact order;
    * lower-bound scan (a flip is possible): lambda_r * key still bounds the
      exact distance from below, so the run is read in (key, id) order in
      block chunks, ceil(top_k / block_size) blocks first and doubling after,
      and re-scored until its next entry's guarded bound passes the k-th
      (distance, out id, in id) pooled over every member so far; members are
      advanced best-first, lowest bound first;
    * full re-score (a clipped dimension meets negative candidate rates, so
      the key is no lower bound): every row, charged as the ceil(n /
      block_size) block reads of a full scan.

    ``stats_out``, when given, receives per-member block reads
    (``per_member_reads``), entries re-scored per member (``scan_depths``)
    and the ids of members that re-scored every row (``fallback_members``).
    """
    if top_k < 1:
        raise InvalidArgument(f"top_k must be >= 1, got {top_k}")
    if len(space) < 1:
        raise EmptySpace("ranking needs a non-empty object space")
    w = weight_vector(w)

    from .nnindex import fingerprint

    expected = fingerprint(space, team, target, w, index.block_size)
    if expected != index.fingerprint:
        raise StaleIndex(
            f"index fingerprint {index.fingerprint} does not match configuration {expected}"
        )

    gap = diff(target, team)
    min_rates = space.min_rates()
    first_blocks = -(-top_k // index.block_size)

    per_member = []
    per_member_reads = []
    scan_depths = []
    fallback_members = []
    scans = []
    for member_index, record in enumerate(team.members):
        v = virtual_object(team, target, record)
        before = index.query_io.blocks_read
        clip_unsafe = v.clipped and bool(np.any(v.clipped_dims & (min_rates < 0.0)))
        if clip_unsafe:
            fallback_members.append(record.id)
            # charged as the full scan it stands for, the arithmetic bf uses
            index.query_io.add_read(index.data_blocks)
            entries = _member_entries(space, gap, record, v, w, top_k)
            depth = len(space)
        elif _flip_possible(gap, record, min_rates):
            scans.append(_RunScan(member_index, record, v))
            entries, depth = [], 0
        else:
            ordinals, keys = index.query_min_raw(member_index, top_k)
            entries = _member_entries(space, gap, record, v, w, top_k, ordinals, keys)
            depth = len(ordinals)
        per_member.append((record.id, entries))
        per_member_reads.append(index.query_io.blocks_read - before)
        scan_depths.append(depth)

    kth = _kth(per_member, top_k) if scans else None
    while scans:
        scan = min(scans, key=lambda s: (s.record.lam * s.last_key, s.record.id))
        record, i = scan.record, scan.member_index
        depth = scan_depths[i]
        if depth == len(space) or (
            depth and _past_kth(record.lam, scan.last_key, record.id, scan.last_id, kth)
        ):
            scans.remove(scan)
            continue
        scan.chunk_blocks = 2 * scan.chunk_blocks or first_blocks
        before = index.query_io.blocks_read
        ordinals, keys = index.read_entries(i, depth, scan.chunk_blocks * index.block_size)
        per_member_reads[i] += index.query_io.blocks_read - before
        if kth is not None:
            # entries whose positive-key bound is past the k-th need no exact score
            cut = int(np.searchsorted(record.lam * keys * _BOUND_GUARD, kth[0], side="right"))
            if cut < len(keys):
                scans.remove(scan)
            ordinals, keys = ordinals[:cut], keys[:cut]
        if len(keys):
            entries = _member_entries(space, gap, record, scan.v, w, top_k, ordinals, keys)
            per_member[i] = (record.id, sorted(per_member[i][1] + entries)[:top_k])
            scan_depths[i] += len(keys)
            scan.last_key, scan.last_id = float(keys[-1]), str(space.ids[ordinals[-1]])
            kth = _kth(per_member, top_k)

    if stats_out is not None:
        stats_out["per_member_reads"] = per_member_reads
        stats_out["scan_depths"] = scan_depths
        stats_out["fallback_members"] = fallback_members
    return _merge_and_rank(per_member, top_k)


def verify_corollary(
    team: TeamContext,
    target: TargetContext,
    swap_out: ObjectRecord,
    cand: ObjectRecord,
    w,
) -> CorollaryReport:
    """Report the exact distance next to the index key for one pair."""
    w = weight_vector(w)
    gap = diff(target, team)
    new_gap = post_exchange_diff(gap, swap_out, cand)
    strong_flip = bool(np.any((gap < 0.0) & (new_gap > 0.0)))
    dis_prime = post_exchange_distance(team, target, swap_out, cand, w)
    v = virtual_object(team, target, swap_out)
    key = odis(v, normalized_candidate(cand), w)
    return CorollaryReport(
        dis_prime=dis_prime,
        odis=key,
        lambda_r=float(swap_out.lam),
        strong_flip=strong_flip,
        clipped=v.clipped,
    )
