"""Swap-pair ranking: exhaustive baseline and the index-backed method.

Both methods rank (swap-out member, swap-in candidate) pairs by the exact
post-exchange distance to the target, with ties broken by ascending
(swap-out id, swap-in id). This module owns the one per-member pass both
share: exact distances over candidate rows, then the best k of them in
(distance, id) order (``_member_best``). The exhaustive method merges every
member's pass over the whole space (``member_tops``); the index build
writes the same passes, at its run length, as the members' runs; the index
method re-scores the rows it reads from every run in one call of the same
kernel, selects each member's with the same top-k, and refuses a run whose
stored keys or order differ from it. The merged result
is identical to the exhaustive baseline, and a run shorter than ``top_k``
raises ``ShortIndex`` instead of answering.

An index build (``nnindex.build_index``, unless called with ``prune=False``)
takes each member's run from a best-first pass over the space's leaf
partition (``ObjectSpace.leaves``) instead: :func:`pruned_tops`, whose per-member
pass :func:`_member_best_pruned` scores, with the same kernel and the
same top-k, only the rows whose (bound, rank) can reach the member's best
k.
``bf`` keeps the full pass and stays the oracle. The pruned pass returns
the full pass's rows and distance bits, so the index file is
byte-identical, and that rests on how a leaf's bound is computed: it is
the kernel itself, ``_exchange_distance_rows``, on one row, the leaf's
upper rate corner c, with an exchange parameter of 1. For a row p of the
leaf and a dimension i, the kernel computes

    row:    fl(base_i - fl(fl(lambda_r / lambda_p) * a_pi))
    bound:  fl(base_i - fl(fl(lambda_r / 1) * c_i))

and lambda_r / 1 is exact. c_i is at least q = fl(a_pi / lambda_p), the
rate as numpy divides it, raised three ulps toward +inf, and that covers
the two roundings between q and the row's product. The ratio
fl(lambda_r / lambda_p) is off by at most a relative 2^-53 as long as
lambda_r / lambda_p lies in the normal range of float64; the pass checks
that for each member against the space's smallest and largest lambda
(``_NORMAL_RATIOS``), and a member outside it takes the full pass. q is
off by at most a relative 2^-53 too, or, when subnormal, by half the
smallest subnormal. So fl(lambda_r / lambda_p) * a_pi exceeds
lambda_r * q by at most about 2^-52 relative, whether a_pi is positive,
zero or negative, while three ulps toward +inf add at least 3 * 2^-53
relative (an ulp toward zero of a negative q at a power of two is half as
wide, and three of them still suffice; a q of -inf is raised to 2 ulps
above -max). So lambda_r * c_i >= fl(lambda_r / lambda_p) * a_pi exactly,
and as rounding is monotone, overflow and underflow included, the bound's
product is at least the row's. Every later step is monotone in it, under
IEEE rounding: the subtraction from the same base_i (non-increasing),
max(., 0), the product with w_i > 0, the square of a non-negative value,
the same pairwise sum of non-negative terms, and sqrt. So a leaf's computed bound never exceeds
a row's computed distance, bit for bit, unless that distance is NaN,
which sorts last anyway. No second kernel is involved, and a corner that
overflows to +inf only lowers the bound.

Ties at the k-th distance, usually 0, are settled by id rank: a row's
position in ``ObjectSpace.id_order()``, which the leaves store for every
row: leaf j's ranks, ascending, are ``Leaves.ranks[starts[j]:starts[j] +
sizes[j]]``, so its first rank is ``ranks[starts[j]]``. A pass reads a
leaf's rows from the same slice of the leaves' store (``Leaves.attrs``
and ``Leaves.lambdas``, every row's values in the code order of
``ranks``), not from the space, and only the k ranks it returns go
through ``id_order`` to become row positions; a space without a store
(an attribute that float32 does not hold) gathers the rows of those
ranks from the space instead. ``_member_top`` orders
rows by (distance, id); ids are unique, and ``id_order`` sorts them with
the same numpy comparison, so
(distance, id) order is (distance, rank) order, and the pruned pass breaks
ties by rank. Every row of a leaf has a distance at least the leaf's
bound, so (bound, own rank) is a lexicographic lower bound on a row's
(distance, rank) pair, and (bound, first rank), the leaf's smallest rank,
one on every row of the leaf. The k-th (distance, rank) pair of the rows
read so far is never ahead of the final k-th pair, so a row whose lower
bound is not ahead of it is not among the first k in (distance, id)
order: at equality the row is the k-th itself, already read. The pass
first reads the leaves of the smallest bound, the run, row by row in
ascending rank, so every unread row of the run has a lower bound of
(smallest bound, a rank above every rank read); once k rows are held and
the k-th distance is at most the smallest bound, the k-th rank was read,
no unread row is ahead of the k-th pair and the pass stops. It then reads
the other leaves in (bound, first rank) order, which a stable sort of the
bounds gives because leaves are numbered by first rank, and stops at the
first leaf whose (bound, first rank) is not ahead of the k-th pair.

``member_tops`` runs the members' passes on one thread each once the space
has more than ``_SERIAL_ROWS`` rows (``_map_members``), up to the usable cores
and up to as many passes as fit in the bytes of the space's attribute
matrix (``member_workers``); results are yielded in member order, so the
exhaustive result and the index file are byte-identical on any number of
threads. :func:`pruned_tops` runs its passes on the calling thread: a
pruned pass is a few small numpy calls, and on two cores two threads
slowed it down. The index method reads only ``top_k`` rows per member and
stays on the calling thread too.

The paper's index key is kept as a reported quantity. It maps each member R
to a *virtual object*: the rate vector that a replacement would need, per
unit of R's exchange parameter, to close every weak-dimension gap exactly:

    v_i = max(0, (gap_i + r_i) / lambda_r) on weak dimensions, 0 on strong

Candidates are compared against it in rate space (attributes divided by
their own exchange parameter) through the one-sided key

    odis = sqrt(sum_i (w_i * max(v_i - rate_i, 0) * mask_i) ** 2)

For a fixed member, exact post-exchange distance equals lambda_r * odis
whenever the trade flips no strong dimension and the virtual object needed
no clipping (:func:`verify_corollary` reports both cases). Each returned
recommendation carries its pair's ``odis``.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

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
from .errors import DimensionMismatch, InvalidArgument, NotAMember, StaleIndex

__all__ = [
    "VirtualObject",
    "NormalizedCandidate",
    "SwapRecommendation",
    "CorollaryReport",
    "virtual_object",
    "normalized_candidate",
    "odis",
    "odis_keys",
    "member_tops",
    "pruned_tops",
    "member_workers",
    "check_config",
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
    """Diagnostic pairing the exact distance with the paper's odis key.

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


# rows per block of the distance kernel: its one (d, block) float64 buffer
# stays in L2 (about 720 KB at d = 11) instead of streaming n x d arrays
# through memory
_CHUNK_ROWS = 8192


def odis_keys(values: np.ndarray, tv2: np.ndarray, rates: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorized one-sided key for every row of a rate matrix.

    ``values`` and ``tv2`` are one virtual object's vectors, or one row per
    rate row (each row keyed against its own member's virtual object).
    Each row's key is ``sqrt(sum((w * max(values - rate, 0) * tv2) ** 2))``.
    """
    rates = np.atleast_2d(rates)
    if rates.shape[1] != values.shape[-1]:
        raise DimensionMismatch(f"rates have {rates.shape[1]} dims, virtual object has {values.shape[-1]}")
    terms = w * np.maximum(values - rates, 0.0) * tv2
    return np.sqrt(np.add.reduce(terms * terms, axis=1))


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
    lambda_r: float | np.ndarray,
    attr_rows: np.ndarray,
    lambda_rows: np.ndarray,
    w: np.ndarray,
) -> np.ndarray:
    """Exact post-exchange distances of candidate rows against a member.

    ``base`` is gap + member attributes and ``lambda_r`` the member's
    exchange parameter: one member's, or one per candidate row (``base`` of
    shape (rows, d), ``lambda_r`` of length rows). Each row's contribution
    is rescaled by lambda_r over its own lambda, and the mask comes from the
    post-exchange gap sign. Each row's arithmetic is the whole-array
    expression ``sqrt(np.add.reduce((w * max(base - (lambda_r / lambda) * attrs, 0)) ** 2, axis=1))``,
    operation for operation and with the dimensions summed in
    ``np.add.reduce``'s own order (:func:`_sum_dimensions`), so the
    distances are bit-identical to it.

    Rows are processed in blocks of ``_CHUNK_ROWS``. A block's first
    operation reads ``attr_rows[start:stop].T`` where it lies and writes
    into one reused (d, block) buffer, so every later operation streams
    over contiguous rows of it. Any strides work; a Fortran-ordered
    ``attr_rows``, such as ``ObjectSpace.attrs``, gives that first read
    contiguous columns too. float32 ``attr_rows``, such as the leaves'
    store, are widened to float64 exactly by that first multiply, so they
    score as their float64 values do.
    """
    n, d = attr_rows.shape
    base = np.broadcast_to(base, (n, d))
    lambda_r = np.broadcast_to(lambda_r, n)
    w = w[:, None]
    out = np.empty(n)
    buf, ratio_buf = np.empty((d, min(n, _CHUNK_ROWS))), np.empty(min(n, _CHUNK_ROWS))
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        terms, ratio = buf[:, : stop - start], ratio_buf[: stop - start]
        np.divide(lambda_r[start:stop], lambda_rows[start:stop], out=ratio)
        np.multiply(ratio, attr_rows[start:stop].T, out=terms)
        np.subtract(base[start:stop].T, terms, out=terms)
        np.maximum(terms, 0.0, out=terms)
        np.multiply(w, terms, out=terms)
        np.multiply(terms, terms, out=terms)
        _sum_dimensions(terms, 0, d)
        out[start:stop] = terms[0]
    return np.sqrt(out, out=out)


def _sum_dimensions(terms: np.ndarray, first: int, count: int) -> None:
    """Sum rows ``first`` .. ``first + count - 1`` of ``terms`` into row ``first``.

    The order is numpy's pairwise summation, the one ``np.add.reduce`` uses
    along a contiguous axis: fewer than 8 terms are added in sequence; up
    to 128 go into eight accumulators over strides of 8, folded as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), before the rest is
    added in sequence; more than 128 are split at half, rounded down to a
    multiple of 8, and each half summed so.
    """
    last = first + count
    if count < 8:
        for row in range(first + 1, last):
            terms[first] += terms[row]
    elif count <= 128:
        full = last - count % 8
        acc = terms[first : first + 8]
        for row in range(first + 8, full, 8):
            acc += terms[row : row + 8]
        np.add(acc[0::2], acc[1::2], out=acc[0::2])
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        acc[0] += acc[4]
        for row in range(full, last):
            terms[first] += terms[row]
    else:
        half = count // 2
        half -= half % 8
        _sum_dimensions(terms, first, half)
        _sum_dimensions(terms, first + half, count - half)
        terms[first] += terms[first + half]


def _member_top(dist: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Positions of the smallest k distances, ordered with ties by ascending id.

    The order is the first k entries of ``np.lexsort((ids, dist))``, and
    there are always min(k, n) of them: NaN distances sort last, as in
    lexsort. ``ids`` may be the rows' id ranks instead, which order alike.
    """
    n = dist.size
    if k >= n:
        candidates = np.arange(n)
    else:
        kth = np.partition(dist, k - 1)[k - 1]
        # "not greater" rather than "at most": a NaN k-th keeps every row
        candidates = np.nonzero(~(dist > kth))[0]
    order = np.lexsort((ids[candidates], dist[candidates]))
    return candidates[order[:k]]


# a member pass, of bf or of an index build, holds its distances and their
# partition copy; the selection mask, the candidates and the chosen entries
# round that up to three arrays
_PASS_ARRAYS = 3

# spaces of at most this many rows score their members on the calling
# thread: on two cores a five-member bf call at d = 11 read 2.22 ms serial
# against 2.94 ms on a pool at 9000 rows and 4.17 against 4.70 ms at 16384;
# the pool first won at 32768 rows (7.58 against 8.49 ms)
_SERIAL_ROWS = 32768


def _member_workers(members: int, n: int, d: int) -> int:
    """Threads the per-member passes over an ``n`` x ``d`` space run on.

    One per member, up to the cores this process may run on, and up to as
    many passes as fit in the bytes of the space's attribute matrix: a pass
    holds at most ``_PASS_ARRAYS`` n-length 8-byte arrays at once, so
    ``d // _PASS_ARRAYS`` of them fit in n * d * 8 bytes. Each pass's kernel
    buffers, (d + 1) * min(n, ``_CHUNK_ROWS``) float64s, are left out of
    that count: 9 % of the matrix at 1e5 rows, but 83 % of it just above
    ``_SERIAL_ROWS``, where three passes at d = 11 add 2.4 MB. At
    ``n <= _SERIAL_ROWS`` the passes stay on the calling thread, where they
    are faster than on a pool.
    """
    if n <= _SERIAL_ROWS:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(members, cores, d // _PASS_ARRAYS))


def member_workers(team: TeamContext, space: ObjectSpace) -> int:
    """Threads :func:`member_tops` scores ``team``'s members over ``space`` on."""
    return _member_workers(team.size, len(space), space.dimension)


def _map_members(fn: Callable, members: Sequence, n: int, d: int) -> Iterator:
    """Yield ``fn(member)`` for each member, in member order.

    The passes run on :func:`_member_workers` threads; the numpy calls they
    spend their time in release the GIL. Member ``i + workers`` is submitted
    only when the caller asks for the result after member ``i``'s, so a
    caller that drops each result before asking for the next holds at most
    ``workers`` of them at once. A pass's exception reaches the caller
    unchanged.
    """
    workers = _member_workers(len(members), n, d)
    if workers == 1:
        yield from map(fn, members)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, member) for member in members[:workers])
        for member in members[workers:]:
            yield pending.popleft().result()
            pending.append(pool.submit(fn, member))
        while pending:
            yield pending.popleft().result()


def _member_best(
    space: ObjectSpace, gap: np.ndarray, record: ObjectRecord, w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """One member's best ``k`` swaps as (rows, distances) arrays.

    The per-member pass: exact post-exchange distances over every row of
    the space, the smallest min(k, n) of them first, with ties by
    ascending id.
    """
    dist = _exchange_distance_rows(gap + record.attrs, record.lam, space.attrs, space.lambdas, w)
    chosen = _member_top(dist, space.ids, k)
    return chosen, dist[chosen]


def member_tops(space: ObjectSpace, team: TeamContext, target: TargetContext, w: np.ndarray, k: int) -> Iterator:
    """Each member's :func:`_member_best` over the whole space, in member order, on :func:`member_workers` threads."""
    best = partial(_member_best, space, diff(target, team), w=w, k=k)
    return _map_members(best, team.members, len(space), space.dimension)


# the exactness argument needs every lambda_r / lambda_p in the normal range
# of float64, with a margin for rounding; a member outside it takes the full pass
_NORMAL_RATIOS = (2.0**-1021, 2.0**1023)

# a pruned pass first sorts about 1 / _FIRST_SORT of the leaves, those of
# smallest bound: over 12 teams of seeds 7 and 2031, a dominant-1m member
# read at most 4.6 % of the rows and an elite-100k member at most 17 %
_FIRST_SORT = 16

# a pruned pass reads the R rows of its leaves of smallest bound in id-rank
# windows, the first ceil(n * _FIRST_WINDOW_ROWS / R) ranks wide, so about
# _FIRST_WINDOW_ROWS rows, and each 4x wider than the last. Over 12
# dominant-1m teams of seed 7, a team's five passes took 11.6-11.8 ms with
# 256 rows, 12.0-12.1 ms with 64 and 12.2-12.4 ms with first windows of
# n / 1024 ranks; a five-member build over 2,000 rows took 2.4, 2.7 and 3.4 ms
_FIRST_WINDOW_ROWS = 256


def _member_best_pruned(
    space: ObjectSpace, gap: np.ndarray, record: ObjectRecord, w: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`_member_best`'s (rows, distances), read best-first from the space's leaves, and the rows scored.

    Each leaf's bound is the distance kernel on its corner row with an
    exchange parameter of 1, which no row of the leaf beats (see the module
    docstring). The rows are scored by the kernel in pieces, and each piece
    is merged into the best k by :func:`_member_top`, ties broken by id rank.
    The pass works in positions of the leaves' store (``Leaves.attrs`` and
    ``Leaves.lambdas``), where each leaf is one contiguous slice: a piece
    gathers its rows' values from the store and their id ranks from
    ``Leaves.ranks`` at the same positions, and only the final k ranks are
    turned into row positions through ``id_order``. Without a store, a
    piece gathers the rows of its ranks from the space.

    The leaves of the smallest bound, the run, are read first and row by
    row in ascending id rank: in windows of ranks [lo, hi), each one mask
    over the run's ranks, the first wide enough to hold about
    ``_FIRST_WINDOW_ROWS`` of its rows and each 4x wider than the last. Once k rows are held and the k-th
    distance is at most that bound, no unread row is ahead of the k-th
    (distance, rank) pair and the pass stops. Every other leaf is read in
    ascending (bound, first rank) order, in batches of whole leaves that
    start at n / 256 rows and grow 4x up to the kernel's block of
    ``_CHUNK_ROWS`` rows; once k rows are held, the pass stops before the
    first leaf whose (bound, first rank) is not ahead of the k-th pair.
    Only the leaves of bound at most the (1 + leaves / ``_FIRST_SORT``)-th
    smallest, found by ``np.partition``, are sorted at first; every bound
    is sorted only if a batch reaches past them, so the batches, and the
    rows scored, are those of one sort of every bound. A member for whom
    some lambda_r / lambda_p could leave the normal range of float64
    (``_NORMAL_RATIOS``) takes :func:`_member_best`'s full pass instead and
    scores all n rows.
    """
    leaves = space.leaves()
    low, high = leaves.lambda_range
    if not (_NORMAL_RATIOS[0] <= record.lam / high and record.lam / low < _NORMAL_RATIOS[1]):
        return (*_member_best(space, gap, record, w, k), len(space))
    base = gap + record.attrs
    bound = _exchange_distance_rows(base, record.lam, leaves.corners, np.ones(len(leaves)), w)
    # a NaN bound (inf - inf at the float64 limit) proves nothing: 0 is above no k-th distance
    bound[np.isnan(bound)] = 0.0
    # the leaves of bound at most the (1 + len / _FIRST_SORT)-th smallest, in stable order, are the
    # first leaves of the stable order of every bound
    few = len(leaves) // _FIRST_SORT
    order = np.nonzero(bound <= np.partition(bound, few)[few])[0]
    order = order[np.argsort(bound[order], kind="stable")]
    bounds, sizes = bound[order], leaves.sizes[order]
    ends = np.cumsum(sizes)
    n, id_order = len(space), space.id_order()
    want = min(k, n)
    best_ranks, best = np.empty(0, dtype=leaves.ranks.dtype), np.empty(0)

    def merge(at: np.ndarray) -> None:
        """Score the rows at store positions ``at`` into the best k."""
        nonlocal best_ranks, best
        ranks = leaves.ranks[at]
        if leaves.attrs is None:
            rows = id_order[ranks]
            values, lambdas = space.attrs[rows], space.lambdas[rows]
        else:
            values, lambdas = leaves.attrs[at], leaves.lambdas[at]
        dist = _exchange_distance_rows(base, record.lam, values, lambdas, w)
        ranks, dist = np.concatenate([best_ranks, ranks]), np.concatenate([best, dist])
        chosen = _member_top(dist, ranks, k)
        best_ranks, best = ranks[chosen], dist[chosen]

    def leaf_positions(first: int, stop: int) -> np.ndarray:
        """The store positions of the leaves ``order[first:stop]``, leaf after leaf, each a run of consecutive ones."""
        count = sizes[first:stop]
        firsts = leaves.starts[order[first:stop]] - (np.cumsum(count) - count)
        return np.repeat(firsts, count) + np.arange(count.sum())

    # the run: every unread row of it is at least (bounds[0], lo), ahead of
    # the k-th pair only while the k-th distance is above bounds[0] (or NaN)
    read = int(np.searchsorted(bounds, bounds[0], side="right"))
    run_at = leaf_positions(0, read)
    run, done, lo = leaves.ranks[run_at], 0, 0
    width = -(-n * _FIRST_WINDOW_ROWS // run.size)
    while done < run.size:
        if best.size == want and best[-1] <= bounds[0]:
            return np.asarray(id_order[best_ranks], dtype=np.intp), best, done
        window = run_at[(run >= lo) & (run < lo + width)]
        if window.size:
            merge(window)
        done, lo, width = done + window.size, lo + width, 4 * width

    batch = min(max(1, n // 256), _CHUNK_ROWS)
    while read < len(leaves):
        if ends[-1] < done + batch and len(order) < len(leaves):
            order = np.argsort(bound, kind="stable")
            bounds, sizes = bound[order], leaves.sizes[order]
            ends = np.cumsum(sizes)
        stop = min(len(order), int(np.searchsorted(ends, done + batch)) + 1)
        if best.size == want:
            # leaves ahead of the k-th (distance, rank) in (bound, first rank) order
            low = int(np.searchsorted(bounds, best[-1]))
            ties = order[low : min(stop, int(np.searchsorted(bounds, best[-1], side="right")))]
            stop = min(stop, low + int(np.searchsorted(leaves.ranks[leaves.starts[ties]], best_ranks[-1])))
            if stop <= read:
                break
        merge(leaf_positions(read, stop))
        read, done, batch = stop, int(ends[stop - 1]), min(4 * batch, _CHUNK_ROWS)
    return np.asarray(id_order[best_ranks], dtype=np.intp), best, done


def pruned_tops(space: ObjectSpace, team: TeamContext, target: TargetContext, w: np.ndarray, k: int) -> Iterator:
    """Each member's :func:`_member_best_pruned` as (rows, distances, rows scored), in member order, on the calling thread."""
    best = partial(_member_best_pruned, space, diff(target, team), w=w, k=k)
    return map(best, team.members)


def _merge_and_rank(
    team: TeamContext,
    target: TargetContext,
    space: ObjectSpace,
    w: np.ndarray,
    per_member: list[tuple[np.ndarray, np.ndarray]],
    top_k: int,
) -> list[SwapRecommendation]:
    """Pool the members' (rows, distances), keep the best ``top_k`` and key only those.

    Each kept row's ``odis`` is taken against its own member's virtual object.
    """
    # (swap-out id, swap-in id) is unique, so the row never decides the order
    pool = sorted(
        (dist, record.id, in_id, row)
        for record, (rows, dists) in zip(team.members, per_member)
        for dist, in_id, row in zip(dists.tolist(), space.ids[rows].tolist(), rows.tolist())
    )
    top = pool[:top_k]
    virtual = {out_id: virtual_object(team, target, team.member(out_id)) for out_id in {t[1] for t in top}}
    objects = [virtual[out_id] for _, out_id, _, _ in top]
    rows = np.array([row for *_, row in top], dtype=np.intp)
    keys = odis_keys(
        np.array([v.values for v in objects]),
        np.array([v.tv2 for v in objects]),
        space.attrs[rows] / space.lambdas[rows][:, None],
        w,
    )
    return [
        SwapRecommendation(swap_out_id=out_id, swap_in_id=in_id, new_distance=dist, odis=float(key))
        for (dist, out_id, in_id, _), key in zip(top, keys)
    ]


def check_config(
    team: TeamContext, target: TargetContext, space: ObjectSpace, w, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The weights as a vector and the gap ``target - team`` of one ranking configuration.

    The one argument check of :func:`brute_force_rank`, :func:`rtc_star_rank`
    and ``nnindex.build_index`` (with its run length as ``k``), so all three
    refuse the same configurations: ``InvalidArgument`` for k < 1,
    ``weight_vector``'s errors for the weights, and ``DimensionMismatch``
    unless team, target, space and weights share one dimension. A space
    always has a row, because ``ObjectSpace`` refuses to be built without one.
    """
    if k < 1:
        raise InvalidArgument(f"k must be >= 1, got {k}")
    w = weight_vector(w)
    gap = diff(target, team)
    if w.size != gap.size or space.dimension != gap.size:
        raise DimensionMismatch("team, target, space and weights must share a dimension")
    return w, gap


def brute_force_rank(
    team: TeamContext,
    target: TargetContext,
    space: ObjectSpace,
    w,
    top_k: int,
) -> list[SwapRecommendation]:
    """Score every (member, candidate) pair and keep the best ``top_k``."""
    w, _ = check_config(team, target, space, w, top_k)
    per_member = list(member_tops(space, team, target, w, top_k))
    return _merge_and_rank(team, target, space, w, per_member, top_k)


def rtc_star_rank(
    team: TeamContext,
    target: TargetContext,
    space: ObjectSpace,
    w,
    index,
    top_k: int,
    *,
    stats_out: dict | None = None,
) -> list[SwapRecommendation]:
    """Index-backed ranking, guaranteed equal to :func:`brute_force_rank`.

    It refuses what :func:`brute_force_rank` refuses (:func:`check_config`)
    before it reads anything. ``index`` is an open ``nnindex.NnIndex`` built
    for this configuration.
    Each member's run is the exhaustive method's own pass, so its first
    ``top_k`` entries, one read of ceil(top_k / block_size) blocks, are that
    member's best swaps. All runs are read first and re-scored in one kernel
    call, each row against its own member; each run, re-selected by the
    same top-k, must come back in the stored order with the stored key
    bits, or ``StaleIndex`` is raised.
    An index whose runs hold fewer than min(top_k, n) entries raises
    ``ShortIndex`` (a ``StaleIndex``); build it with ``run_length >= top_k``.

    ``stats_out``, when given, receives per-member block reads
    (``per_member_reads``, ``index.read_blocks(top_k)`` each: what each
    read was charged, worked out from the index's shape, so other readers
    of the same index cannot change it) and entries re-scored per member
    (``scan_depths``, min(top_k, n) each); ``fallback_members`` is always
    empty and kept for report compatibility.
    """
    w, gap = check_config(team, target, space, w, top_k)
    index.check(space, team, target, w)

    runs = [index.query_min_raw(member_index, top_k) for member_index in range(team.size)]

    # every run re-scored in one kernel call, each row against its own member
    owner = np.repeat(np.arange(team.size), [rows.size for rows, _ in runs])
    run_rows = np.concatenate([rows for rows, _ in runs])
    bases = gap + np.array([record.attrs for record in team.members])
    lambdas = np.array([record.lam for record in team.members])
    scored = _exchange_distance_rows(
        bases[owner], lambdas[owner], space.attrs[run_rows], space.lambdas[run_rows], w
    )
    per_member = []
    for member_index, (rows, keys) in enumerate(runs):
        dist = scored[owner == member_index]
        chosen = _member_top(dist, space.ids[rows], top_k)
        best_rows, best = rows[chosen], dist[chosen]
        if best_rows.tobytes() != rows.tobytes() or best.tobytes() != keys.tobytes():
            raise StaleIndex(f"index {index.fingerprint}: member {member_index}'s entries do not match their rows")
        per_member.append((best_rows, best))

    if stats_out is not None:
        stats_out["per_member_reads"] = [index.read_blocks(top_k)] * team.size
        stats_out["scan_depths"] = [min(top_k, len(space))] * team.size
        stats_out["fallback_members"] = []
    return _merge_and_rank(team, target, space, w, per_member, top_k)


def verify_corollary(
    team: TeamContext,
    target: TargetContext,
    swap_out: ObjectRecord,
    cand: ObjectRecord,
    w,
) -> CorollaryReport:
    """Report the exact distance next to the paper's odis key for one pair."""
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
