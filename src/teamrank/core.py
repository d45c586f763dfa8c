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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ObjectRecord:
    """One database tuple: identifier, display label, exchange parameter, attributes.

    ``lam`` is the exchange parameter and must be strictly positive.
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
    binary-search the same order. The rate matrix (attributes divided by
    each record's exchange parameter), per-dimension rate minima and the
    content digest are computed lazily and cached.

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

        self._rates: np.ndarray | None = None
        self._min_rates: np.ndarray | None = None
        self._digest: str | None = digest

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
        """Attribute matrix divided row-wise by each record's exchange parameter."""
        if self._rates is None:
            self._rates = self.attrs / self.lambdas[:, None]
        return self._rates

    def min_rates(self) -> np.ndarray:
        if self._min_rates is None:
            self._min_rates = self.rates().min(axis=0)
        return self._min_rates

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

    The aggregate is validated to be exactly the ascending-id member sum.
    Use :func:`team_from_records` or :func:`team_from_ids` instead of
    constructing directly.
    """

    members: tuple[ObjectRecord, ...]
    aggregate: np.ndarray
    team_id: str = ""

    def __post_init__(self):
        if not self.members:
            raise EmptyTeam("a team context needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "aggregate", attribute_vector(self.aggregate, name="team aggregate"))
        expected = aggregate_team(self.members)
        if not np.array_equal(self.aggregate, expected):
            raise InvalidArgument("team aggregate does not equal the member attribute sum")

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


@dataclass(frozen=True)
class TargetContext:
    """The aggregate vector of the team being approached."""

    team_id: str
    aggregate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "aggregate", attribute_vector(self.aggregate, name="target aggregate"))


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
    return TeamContext(members=recs, aggregate=aggregate_team(recs), team_id=team_id)


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
    """Gap vector after trading ``swap_out`` for a rescaled ``swap_in``."""
    gap = np.asarray(gap, dtype=np.float64)
    if not (np.isfinite(swap_out.lam) and swap_out.lam > 0.0):
        raise InvalidLambda(f"swap-out {swap_out.id!r} has invalid exchange parameter")
    if not (np.isfinite(swap_in.lam) and swap_in.lam > 0.0):
        raise InvalidLambda(f"swap-in {swap_in.id!r} has invalid exchange parameter")
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
