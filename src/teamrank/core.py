"""Vector-level domain model: teams, targets, and the one-sided distance.

A team is scored against a target on ``d`` numeric dimensions. Its aggregate
vector is the component-wise sum of its members' attribute vectors. Dimensions
where the team already meets or exceeds the target are "strong" and are masked
out of the distance, so surplus never counts against the team; the remaining
"weak" gaps combine as a weighted Euclidean norm:

    distance = sqrt(sum_i (w_i * gap_i * mask_i) ** 2)

with ``gap_i = target_i - team_i`` and ``mask_i = 0`` exactly when
``gap_i < 0`` (a zero gap is classified weak; it contributes nothing either
way, but the fixed rule keeps masks deterministic).

Swapping a member R for a candidate P rescales P's contribution by
``lambda_r / lambda_p``, where lambda is each object's exchange parameter
(minutes played, machine-hours, and so on):

    gap_i' = gap_i + r_i - (lambda_r / lambda_p) * p_i

The post-exchange distance always derives its mask from the *post*-exchange
gap, never the pre-exchange one.

All arithmetic is 64-bit floating point. Member summation runs in ascending
id order so aggregates are bit-reproducible regardless of input order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTeam,
    InvalidArgument,
    InvalidLambda,
    InvalidWeights,
    NotAMember,
)

__all__ = [
    "ObjectRecord",
    "ObjectSpace",
    "Leaves",
    "leaf_partition",
    "TeamContext",
    "TargetContext",
    "attribute_vector",
    "weight_vector",
    "aggregate_team",
    "team_from_records",
    "team_from_ids",
    "diff",
    "truncating_vector",
    "truncated_distance",
    "post_exchange_diff",
    "post_exchange_distance",
]


def attribute_vector(values, *, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array of finite components."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidArgument(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise InvalidArgument(f"{name} must have at least one component")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgument(f"{name} contains non-finite components")
    return arr


def weight_vector(values) -> np.ndarray:
    """Coerce to a valid per-dimension weight vector (finite, all > 0)."""
    arr = attribute_vector(values, name="weights")
    if np.any(arr <= 0.0):
        raise InvalidWeights("weights must be strictly positive")
    return arr


@dataclass(frozen=True, eq=False)
class ObjectRecord:
    """One database tuple: identifier, display label, exchange parameter, attributes.

    ``lam`` is the exchange parameter and must be strictly positive. Two
    records are equal when their ids, labels, exchange parameters and
    attribute values are (``np.array_equal``, so -0.0 equals 0.0), and equal
    records hash alike.
    """

    id: str
    label: str
    lam: float
    attrs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "attrs", attribute_vector(self.attrs, name=f"attrs of {self.id!r}"))
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise InvalidLambda(f"object {self.id!r} has non-positive exchange parameter {self.lam}")

    @property
    def dimension(self) -> int:
        return self.attrs.size

    def __eq__(self, other):
        if not isinstance(other, ObjectRecord):
            return NotImplemented
        return (self.id, self.label, self.lam) == (other.id, other.label, other.lam) and np.array_equal(
            self.attrs, other.attrs
        )

    def __hash__(self):
        # floats that compare equal hash alike, -0.0 and 0.0 included
        return hash((self.id, self.label, self.lam, tuple(self.attrs.tolist())))


# rows a leaf of the space's partition (ObjectSpace.leaves) holds, about
_LEAF_ROWS = 128
# split bits in a leaf code; codes are uint16
_CODE_BITS = 16
# rows per piece of the space the leaf build reads at once, and at most the
# rows of the strided sample its split values come from: the kernel's own
# block, so no transient of the build is larger than the kernel's
_PIECE_ROWS = 8192
# rows per gather of the corner pass: with pieces this small the build left
# no freed heap behind, while 8192-row pieces did (a 1.07e6 x 11 build grew
# the resident set by 9.7 MB with them, 6.2-6.6 MB with these, for 5.8 MB
# of leaves)
_GATHER_ROWS = 1024
# ulps each leaf corner is raised toward +inf (ranking's exactness argument
# needs two and a half)
_CORNER_ULPS = 3


@dataclass(frozen=True, eq=False)
class Leaves:
    """A partition of a space's rows into leaves, each with an upper rate corner.

    A row's id rank is its position in ``ObjectSpace.id_order()``. Leaf
    ``j`` holds the rows of id ranks ``ranks[starts[j]:starts[j] + sizes[j]]``,
    ascending, and is never empty; their row positions are
    ``id_order()[ranks[starts[j]:starts[j] + sizes[j]]]``. Leaves are
    numbered in ascending first (smallest) rank, so a stable sort of any
    per-leaf key orders leaves of equal key by it; ``ranks`` lists the
    leaves in the build's code order, not by number. ``corners[j]`` bounds
    the rates of those rows from above in every dimension: it is the
    largest ``attrs[row, i] / lambdas[row]`` of its rows, as numpy's
    division rounds it, raised ``_CORNER_ULPS`` ulps toward +inf.

    ``attrs`` and ``lambdas`` are the leaves' store: every row's attributes
    and exchange parameter in the code order of ``ranks``, so store row p
    holds the values (not rates) of the space's row ``id_order()[ranks[p]]``
    and leaf ``j`` is the contiguous store rows
    ``starts[j]:starts[j] + sizes[j]``. ``attrs`` is a row-major (n, d)
    float32 array, which widens to the space's float64 values bit for bit,
    and ``lambdas`` n float64s: n * (4d + 8) bytes, about half of the
    space's own arrays. A space with any attribute that float32 does not
    hold exactly, such as a fractional value, has no store: both are
    ``None``, and a pass gathers its rows from the space.

    ``ranks`` is int32, ``starts`` and ``sizes`` int64 and ``corners``
    (leaves, d) float64. ``lambda_range`` is the smallest and largest
    exchange parameter of the space.
    """

    ranks: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    corners: np.ndarray
    attrs: np.ndarray | None
    lambdas: np.ndarray | None
    lambda_range: tuple[float, float]

    def __len__(self) -> int:
        return self.corners.shape[0]


def leaf_partition(attrs: np.ndarray, lambdas: np.ndarray, id_order: np.ndarray) -> Leaves:
    """Group the rows of an (n, d) space into leaves of about ``_LEAF_ROWS`` rows.

    Each row gets a code of b = min(16, ceil(log2(n / _LEAF_ROWS))) split
    bits on its rates, dealt to the dimensions in turn: b <= d gives the
    first b dimensions one bit (a median split) each, d < b <= 2d gives
    every dimension one and the first b - d a second (quartiles), and so
    on. A dimension's split values are quantiles of a strided sample of at
    most ``_PIECE_ROWS`` rows. A stable counting sort by code over
    ``id_order``, the row positions in ascending id order, writes the id
    ranks grouped by code, ascending within a group, and each group of c
    ranks is cut into p = ceil(c / _LEAF_ROWS) consecutive leaves, the first
    c % p of them one rank longer than the rest. Leaves are numbered by one
    argsort of their first ranks, and each corner is written to its leaf's
    number. The store is filled from the corner pass's own gathers, each
    written to its code-order positions before it is divided into rates;
    the first gather with a value that float32 does not hold drops it.

    The build reads the space in pieces of ``_PIECE_ROWS`` rows: column by
    column for the uint16 codes, which it computes twice (once to count
    each code over row-order pieces, once to place each row over id-order
    pieces) rather than hold, and for the corners and the store one gather
    of whole leaves per ``_GATHER_ROWS`` rows.
    Besides its result, whose store is n * (4d + 8) bytes, it holds
    pieces and per-code and per-leaf arrays only: no rate matrix
    (``ObjectSpace.rates`` is not called), no n-length codes or int64
    positions, and no second copy of the space.
    """
    n, d = attrs.shape
    # the fewest bits b with 2^b * _LEAF_ROWS >= n
    bits = min(_CODE_BITS, (-(-n // _LEAF_ROWS) - 1).bit_length())
    split_bits = [bits // d + (j < bits % d) for j in range(d)]

    step = max(1, n // _PIECE_ROWS)
    splits = []
    for j, b in enumerate(split_bits):
        ranked = np.sort(attrs[::step, j] / lambdas[::step])
        splits.append(ranked[(len(ranked) * np.arange(1, 1 << b)) >> b])

    rate = np.empty(min(n, _PIECE_ROWS))

    def piece_codes(chosen) -> np.ndarray:
        lam = lambdas[chosen]
        code, piece = np.zeros(len(lam), dtype=np.uint16), rate[: len(lam)]
        for j, b in enumerate(split_bits):
            if b:
                np.divide(attrs[chosen, j], lam, out=piece)
                code <<= b
                # the bin is the count of split values at or below the rate
                for split in splits[j]:
                    code += piece >= split
        return code

    counts = sum(
        np.bincount(piece_codes(slice(start, start + _PIECE_ROWS)), minlength=1 << bits)
        for start in range(0, n, _PIECE_ROWS)
    )
    # the group of code g, of c rows, becomes p = ceil(c / _LEAF_ROWS) leaves
    # in code order: q = c // p rows each, one more for the first r = c % p
    parts = -(-counts // _LEAF_ROWS)
    q, r = np.divmod(counts, np.maximum(parts, 1))
    nth = np.arange(parts.sum()) - np.repeat(np.cumsum(parts) - parts, parts)
    sizes = np.repeat(q, parts) + (nth < np.repeat(r, parts))
    del nth

    # a stable counting sort by code over the id order: each piece's rows go
    # to their code's next free places, so ranks holds the groups in code
    # order, each in ascending id rank, and a code-order leaf is a segment
    ranks = np.empty(n, dtype=np.int32)
    free = np.cumsum(counts) - counts
    for start in range(0, n, _PIECE_ROWS):
        code = piece_codes(id_order[start : start + _PIECE_ROWS])
        order = np.argsort(code, kind="stable")
        here = np.bincount(code, minlength=1 << bits)
        # a row's place: its code's next free place, plus its place among the piece's rows of that code
        at = free - (np.cumsum(here) - here)
        ranks[at[code[order]] + np.arange(len(order))] = start + order
        free += here
    # dropped before the corners are allocated, so it does not add to the build's peak
    del free
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # leaf j is the code-order leaf order[j]: leaves are numbered by first rank
    order = np.argsort(ranks[starts])
    number = np.empty_like(order)
    number[order] = np.arange(len(order))

    corners = np.empty((len(order), d))
    store, store_lambdas = np.empty((n, d), dtype=np.float32), np.empty(n)
    first = 0
    while first < len(order):
        last = max(first + 1, int(np.searchsorted(ends, starts[first] + _GATHER_ROWS, side="right")))
        at = slice(starts[first], ends[last - 1])
        chosen = id_order[ranks[at]]
        block, lam = attrs[chosen], lambdas[chosen]
        if store is not None:
            # the store takes the gather as the space holds it, before it becomes
            # rates; a value past float32's range is cast to inf and fails the check
            with np.errstate(over="ignore"):
                store[at], store_lambdas[at] = block, lam
            if not np.array_equal(store[at], block):
                store = store_lambdas = None
        np.divide(block, lam[:, None], out=block)
        corners[number[first:last]] = np.maximum.reduceat(block, starts[first:last] - starts[first], axis=0)
        first = last
    for _ in range(_CORNER_ULPS):
        np.nextafter(corners, np.inf, out=corners)
    return Leaves(
        ranks=ranks,
        starts=starts[order],
        sizes=sizes[order],
        corners=corners,
        attrs=store,
        lambdas=store_lambdas,
        lambda_range=(float(lambdas.min()), float(lambdas.max())),
    )


# rows per piece of the attribute matrix that ObjectSpace.digest hashes: at
# 1.07e6 x 11, pieces of 8192 rows (a 720 KB buffer) raised the peak RSS of
# a set-up by about 0.6 MB, while 1024 rows (88 KB) did not and hash as fast
_DIGEST_ROWS = 1024


class ObjectSpace:
    """A fixed collection of uniformly dimensioned records, array-backed.

    ``attrs`` is an (n, d) float64 array in Fortran order: each dimension
    is one contiguous column, so the distance kernel reads a block of rows
    dimension by dimension where it lies. Input in another layout is
    copied into this one.

    Treated as immutable after construction. The constructor sorts the row
    positions by id once (``id_order``) and proves the ids unique with one
    comparison of neighbouring ids in that order; ``index_of`` and ``in``
    binary-search the same order. The per-dimension rate minima, the
    content digest and the leaf partition (:meth:`leaves`, whose store
    holds a float32 code-order copy of the rows when float32 holds every
    attribute exactly) are computed lazily and cached.
    The rate matrix (:meth:`rates`, attributes divided by each record's
    exchange parameter) is not: no ranking path reads it, and each call
    computes a new one.

    ``id_order`` and ``digest``, when given, are those of an earlier space
    over the same arrays, such as a stored snapshot's. ``id_order`` is
    checked by the same neighbour comparison and sorted afresh when it
    fails it; ``digest`` is taken as given.
    """

    def __init__(self, ids, lambdas, attrs, attribute_names, labels=None, *, id_order=None, digest=None):
        self.ids = np.asarray(ids, dtype=np.str_)
        self.lambdas = np.asarray(lambdas, dtype=np.float64)
        self.attrs = np.asfortranarray(attrs, dtype=np.float64)
        self.attribute_names = tuple(str(a) for a in attribute_names)
        self.labels = self.ids if labels is None else np.asarray(labels, dtype=np.str_)

        if self.attrs.ndim != 2:
            raise InvalidArgument(f"attribute matrix must be 2-D, got shape {self.attrs.shape}")
        n, d = self.attrs.shape
        if n < 1 or d < 1:
            raise InvalidArgument("object space needs at least one record and one dimension")
        if len(self.attribute_names) != d:
            raise DimensionMismatch(
                f"{len(self.attribute_names)} attribute names for {d} dimensions"
            )
        if self.ids.shape != (n,) or self.lambdas.shape != (n,) or self.labels.shape != (n,):
            raise DimensionMismatch("ids, labels and lambdas must each have one entry per record")
        if id_order is None or not self._ascending(np.asarray(id_order)):
            id_order = np.argsort(self.ids, kind="stable")
            if not self._ascending(id_order):
                raise InvalidArgument("object ids must be unique within a space")
        self._id_order = np.asarray(id_order)
        if not np.all(np.isfinite(self.lambdas)) or np.any(self.lambdas <= 0.0):
            raise InvalidLambda("every exchange parameter must be finite and > 0")
        if not np.all(np.isfinite(self.attrs)):
            raise InvalidArgument("attribute matrix contains non-finite values")

        self._min_rates: np.ndarray | None = None
        self._digest: str | None = digest
        self._leaves: Leaves | None = None

    def _ascending(self, order: np.ndarray) -> bool:
        """Whether ``order`` lists every row position once, in strictly ascending id order."""
        n = len(self.ids)
        if order.shape != (n,) or order.dtype.kind not in "iu" or order.min() < 0 or order.max() >= n:
            return False
        # strictly ascending ids repeat no row, so n in-range positions are every row once
        ranked = self.ids if (order == np.arange(n)).all() else self.ids[order]
        return bool((ranked[1:] > ranked[:-1]).all())

    @classmethod
    def from_records(cls, records: Sequence[ObjectRecord], attribute_names) -> "ObjectSpace":
        if not records:
            raise InvalidArgument("cannot build an object space from zero records")
        d = records[0].dimension
        for rec in records:
            if rec.dimension != d:
                raise DimensionMismatch(
                    f"record {rec.id!r} has dimension {rec.dimension}, expected {d}"
                )
        return cls(
            ids=[r.id for r in records],
            lambdas=[r.lam for r in records],
            attrs=np.stack([r.attrs for r in records]),
            attribute_names=attribute_names,
            labels=[r.label for r in records],
        )

    def __len__(self) -> int:
        return self.attrs.shape[0]

    @property
    def dimension(self) -> int:
        return self.attrs.shape[1]

    def record(self, i: int) -> ObjectRecord:
        return ObjectRecord(
            id=str(self.ids[i]),
            label=str(self.labels[i]),
            lam=float(self.lambdas[i]),
            attrs=self.attrs[i].copy(),
        )

    def records(self) -> list[ObjectRecord]:
        return [self.record(i) for i in range(len(self))]

    def _row_of(self, object_id) -> int | None:
        key = str(object_id)
        at = int(np.searchsorted(self.ids, key, sorter=self._id_order))
        if at < len(self.ids):
            row = int(self._id_order[at])
            # the search drops a key's trailing NULs; an element compares as a Python string
            if self.ids[row] == key:
                return row
        return None

    def index_of(self, object_id: str) -> int:
        row = self._row_of(object_id)
        if row is None:
            raise NotAMember(f"object {object_id!r} is not in the space")
        return row

    def __contains__(self, object_id) -> bool:
        return self._row_of(object_id) is not None

    def rates(self) -> np.ndarray:
        """Attribute matrix divided row-wise by each record's exchange parameter, computed afresh on each call."""
        return self.attrs / self.lambdas[:, None]

    def min_rates(self) -> np.ndarray:
        if self._min_rates is None:
            self._min_rates = self.rates().min(axis=0)
        return self._min_rates

    def leaves(self) -> Leaves:
        """The space's :func:`leaf_partition`, built on first use and cached."""
        if self._leaves is None:
            self._leaves = leaf_partition(self.attrs, self.lambdas, self._id_order)
        return self._leaves

    def id_order(self) -> np.ndarray:
        """Row positions in ascending id order; ids are unique, so the order is too."""
        return self._id_order

    def digest(self) -> str:
        """Order-insensitive content hash: identical record sets hash alike.

        The attribute rows are hashed in id order, row-major, as one byte
        string; they reach sha256 in pieces of at most ``_DIGEST_ROWS`` rows,
        each copied into one reused buffer, so no n x d copy is made.
        """
        if self._digest is None:
            import hashlib

            order = self.id_order()
            n = len(order)
            identity = bool((order == np.arange(n)).all())
            # rows already in id order are read where they are, not gathered
            rows = slice(None) if identity else order
            h = hashlib.sha256()
            h.update(b"teamrank-space-v1\x00")
            h.update(str(self.dimension).encode())
            h.update(("\x00".join(self.attribute_names)).encode())
            h.update(b"\x00ids\x00")
            h.update("\x00".join(self.ids[rows].tolist()).encode())
            h.update(b"\x00lambdas\x00")
            h.update(np.ascontiguousarray(self.lambdas[rows]))
            h.update(b"\x00attrs\x00")
            buf = np.empty((min(n, _DIGEST_ROWS), self.dimension))
            for start in range(0, n, _DIGEST_ROWS):
                stop = min(start + _DIGEST_ROWS, n)
                chunk = buf[: stop - start]
                if identity:
                    np.copyto(chunk, self.attrs[start:stop])
                else:
                    np.take(self.attrs, order[start:stop], axis=0, out=chunk)
                h.update(chunk)
            self._digest = h.hexdigest()
        return self._digest


@dataclass(frozen=True)
class TeamContext:
    """A team: its member records plus the aggregated team vector.

    The aggregate is not passed in: it is derived from the members, as
    :func:`aggregate_team`'s ascending-id sum. A member id may appear once:
    a repeated one raises ``InvalidArgument``. Use :func:`team_from_records`
    or :func:`team_from_ids` instead of constructing directly. Teams compare
    and hash by their members and team id; the aggregate follows from the
    members, so it takes no part.
    """

    members: tuple[ObjectRecord, ...]
    team_id: str = ""
    aggregate: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise EmptyTeam("a team context needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))
        if len(set(self.member_ids)) != self.size:
            raise InvalidArgument(f"team {self.team_id!r} names a member more than once")
        object.__setattr__(self, "aggregate", attribute_vector(aggregate_team(self.members), name="team aggregate"))

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.members)

    @property
    def size(self) -> int:
        return len(self.members)

    def member(self, object_id: str) -> ObjectRecord:
        for rec in self.members:
            if rec.id == object_id:
                return rec
        raise NotAMember(f"object {object_id!r} is not a member of team {self.team_id!r}")


@dataclass(frozen=True, eq=False)
class TargetContext:
    """The aggregate vector of the team being approached.

    Targets compare by team id and aggregate values (``np.array_equal``),
    and equal targets hash alike.
    """

    team_id: str
    aggregate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "aggregate", attribute_vector(self.aggregate, name="target aggregate"))

    def __eq__(self, other):
        if not isinstance(other, TargetContext):
            return NotImplemented
        return self.team_id == other.team_id and np.array_equal(self.aggregate, other.aggregate)

    def __hash__(self):
        return hash((self.team_id, tuple(self.aggregate.tolist())))


def aggregate_team(members: Iterable[ObjectRecord]) -> np.ndarray:
    """Component-wise sum of member attribute vectors, in ascending id order.

    The fixed summation order makes the result bit-reproducible across runs
    and input orderings.
    """
    recs = sorted(members, key=lambda r: r.id)
    if not recs:
        raise EmptyTeam("cannot aggregate an empty member list")
    d = recs[0].dimension
    total = np.zeros(d, dtype=np.float64)
    for rec in recs:
        if rec.dimension != d:
            raise DimensionMismatch(
                f"member {rec.id!r} has dimension {rec.dimension}, expected {d}"
            )
        total = total + rec.attrs
    return total


def team_from_records(records: Iterable[ObjectRecord], team_id: str = "") -> TeamContext:
    recs = tuple(sorted(records, key=lambda r: r.id))
    return TeamContext(members=recs, team_id=team_id)


def team_from_ids(space: ObjectSpace, member_ids: Iterable[str], team_id: str = "") -> TeamContext:
    recs = [space.record(space.index_of(mid)) for mid in member_ids]
    return team_from_records(recs, team_id=team_id)


def diff(target: TargetContext, team: TeamContext) -> np.ndarray:
    """Per-dimension gap ``target - team``; positive entries are weak dimensions."""
    t = target.aggregate
    c = team.aggregate
    if t.shape != c.shape:
        raise DimensionMismatch(f"target dimension {t.size} != team dimension {c.size}")
    return t - c


def truncating_vector(gap) -> np.ndarray:
    """0/1 mask over the gap vector: 0 exactly where the gap is negative."""
    arr = np.asarray(gap, dtype=np.float64)
    return np.where(arr < 0.0, 0.0, 1.0)


def truncated_distance(gap, tv, w) -> float:
    """Weighted Euclidean norm of the masked gap vector.

    Zero exactly when every unmasked (weak-dimension) gap is zero.
    """
    gap = np.asarray(gap, dtype=np.float64)
    tv = np.asarray(tv, dtype=np.float64)
    w = weight_vector(w)
    if not (gap.shape == tv.shape == w.shape):
        raise DimensionMismatch(
            f"gap {gap.shape}, mask {tv.shape} and weights {w.shape} must share a shape"
        )
    terms = w * gap * tv
    return float(np.sqrt(np.sum(terms * terms)))


def post_exchange_diff(gap, swap_out: ObjectRecord, swap_in: ObjectRecord) -> np.ndarray:
    """Gap vector after trading ``swap_out`` for a rescaled ``swap_in``.

    Both exchange parameters are finite and positive: ``ObjectRecord``
    refuses any other.
    """
    gap = np.asarray(gap, dtype=np.float64)
    if gap.shape != swap_out.attrs.shape or gap.shape != swap_in.attrs.shape:
        raise DimensionMismatch("gap, swap-out and swap-in must share a dimension")
    ratio = swap_out.lam / swap_in.lam
    return gap + swap_out.attrs - ratio * swap_in.attrs


def post_exchange_distance(
    team: TeamContext,
    target: TargetContext,
    swap_out: ObjectRecord,
    swap_in: ObjectRecord,
    w,
) -> float:
    """Distance to the target after the exchange, with a fresh mask.

    The mask is derived from the post-exchange gap: dimensions the trade
    pushes into surplus stop counting, and formerly strong dimensions that
    the trade drains below the target start counting.
    """
    if swap_out.id not in set(team.member_ids):
        raise NotAMember(f"object {swap_out.id!r} is not a member of the team")
    gap = diff(target, team)
    new_gap = post_exchange_diff(gap, swap_out, swap_in)
    return truncated_distance(new_gap, truncating_vector(new_gap), w)
