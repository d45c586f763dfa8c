"""Dataset ingestion, synthetic generation, and goodness-of-fit checks.

CSV contract: comma separated, UTF-8, mandatory header row, '.' decimal
separator. A manifest names the id/label/lambda columns and the ordered
attribute subset to project; loaders reject files whose header is missing a
named column and reject rows with unparseable, non-finite, or non-positive
lambda values, reporting the 1-based data row number.

Each file is read once, as bytes, and parsed one of two ways; both give
the same values, bit for bit, and the same errors. When vectorised scans of
the bytes prove that ``csv.reader`` would split every line on ',' and
nothing else (no '"'; no control byte but tab, newline and the '\r' of
'\r\n'; no empty line; the header's comma count on every line; no line
over ``csv.field_size_limit()``), one ``np.loadtxt`` pass converts the
used columns, and finiteness and ``lambda > 0`` are checked on whole
arrays. ``loadtxt`` parses every numeric cell it takes as Python's
``float`` does, except around control bytes (it reads '5\x1c' as 5.0),
which the scans rule out. Files written by ``csv.writer`` without quotes,
such as :func:`write_objects_csv`'s, take this path. Any other file
(quoted, ``\r``-only line ends, a blank line), and any file whose
``loadtxt`` pass declines a cell or fails a check, is split from the same
bytes into ``csv.reader`` rows, with the cyclic garbage collector paused,
and converted row by row: each row's field count is checked, then its
cells are parsed in column order by ``float``, so the first bad row raises
its error and no file is converted twice. A cell longer than
``csv.field_size_limit()`` is a :class:`MalformedRow` for its row.

Synthetic spaces draw each attribute independently from a negative binomial
distribution parameterized as failures before the r-th success: mean
r(1-p)/p, variance r(1-p)/p^2. Real-valued r is handled with the standard
gamma-Poisson mixture (Gamma(r, (1-p)/p) intensity feeding a Poisson draw),
which matches the negative binomial pmf exactly. Exchange parameters are
drawn uniformly from a configurable positive range, default [500, 3000].
Generation is fully deterministic for a fixed seed: the master seed is
expanded with numpy's SeedSequence into one child stream per attribute
column plus one for the lambda column.
"""

from __future__ import annotations

import array
import contextlib
import csv
import gc
import io
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import stats as sstats

from .core import ObjectSpace, TargetContext
from .errors import (
    DegenerateBinning,
    DimensionMismatch,
    EmptyFile,
    InsufficientData,
    InvalidArgument,
    InvalidParams,
    MalformedRow,
    MissingColumn,
)
from .snapshot import load_snapshot, save_snapshot, snapshot_key
from .weighting import RankedSeries

__all__ = [
    "DatasetManifest",
    "NbParams",
    "GofResult",
    "load_manifest",
    "load_objects",
    "load_rosters",
    "load_objects_and_rosters",
    "load_teams",
    "load_column",
    "write_objects_csv",
    "sample_negative_binomial",
    "gen_synthetic",
    "nb_mean",
    "nb_variance",
    "chi_square_statistic",
    "chi_square_gof",
]


@dataclass(frozen=True)
class DatasetManifest:
    """Column mapping for a CSV file.

    ``attributes`` fixes both the projection and the dimension order.
    ``lambda_column`` is required for object files, ``wins_column`` for team
    files, ``team_column`` only when rosters are read from an object file.
    """

    attributes: tuple[str, ...]
    id_column: str
    lambda_column: str | None = None
    label_column: str | None = None
    team_column: str | None = None
    wins_column: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if not self.attributes:
            raise InvalidArgument("manifest needs a non-empty attribute subset")
        if not self.id_column:
            raise InvalidArgument("manifest needs an id column name")

    def to_dict(self) -> dict:
        return {
            "attributes": list(self.attributes),
            "id_column": self.id_column,
            "lambda_column": self.lambda_column,
            "label_column": self.label_column,
            "team_column": self.team_column,
            "wins_column": self.wins_column,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DatasetManifest":
        return cls(
            attributes=tuple(data["attributes"]),
            id_column=data["id_column"],
            lambda_column=data.get("lambda_column"),
            label_column=data.get("label_column"),
            team_column=data.get("team_column"),
            wins_column=data.get("wins_column"),
        )


def load_manifest(path) -> DatasetManifest:
    with open(path, "r", encoding="utf-8") as fh:
        return DatasetManifest.from_dict(json.load(fh))


def _read_bytes(path) -> bytes:
    """The one read of a CSV file that each loader makes."""
    with open(path, "rb") as fh:
        return fh.read()


def _plain_line_count(raw: bytes) -> int | None:
    """How many lines ``raw`` has, if ``csv.reader`` would split each one on ',' alone; else None.

    That holds when the bytes have no '"'; no control byte but '\\t', '\\n'
    and the '\\r' of '\\r\\n'; no empty line; the header's comma count on
    every line; and no line longer than ``csv.field_size_limit()``. Each rule
    is one vectorised scan. A file of fewer than two lines is left to
    ``csv.reader`` as well.
    """
    if b'"' in raw:
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    low = np.flatnonzero(b <= ord(","))  # control bytes, ' ' to '+', and ','
    kinds = b[low]
    ends = low[kinds == ord("\n")]
    if not raw.endswith(b"\n"):
        ends = np.append(ends, b.size)
    if ends.size < 2:
        return None
    if ((kinds < ord(" ")) & (kinds != ord("\t")) & (kinds != ord("\n")) & (kinds != ord("\r"))).any():
        return None
    returns = low[kinds == ord("\r")]
    if returns.size and (returns[-1] + 1 == b.size or (b[returns + 1] != ord("\n")).any()):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    # a line is empty when it holds nothing or only the '\r' of its '\r\n'
    if lengths.max() > csv.field_size_limit() or (lengths <= (b[starts] == ord("\r"))).any():
        return None
    commas = np.diff(np.searchsorted(low[kinds == ord(",")], ends), prepend=0)
    if (commas != commas[0]).any():
        return None
    return ends.size


def _csv_rows(text: str) -> list[list[str]]:
    """``csv.reader``'s rows of ``text``, its lines split as a file opened with ``newline=""`` splits them.

    A ``csv.Error``, such as a cell longer than ``csv.field_size_limit()``,
    raises :class:`MalformedRow` with the 1-based data row it stopped at
    (row 0 is the header).
    """
    # the row lists hold only strings, so they form no cycles; with the cyclic
    # collector on, it would walk the growing list again and again while it is built
    collecting = gc.isenabled()
    gc.disable()
    try:
        return list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        rows_read = 0
        with contextlib.suppress(csv.Error):
            for _ in csv.reader(io.StringIO(text, newline="")):
                rows_read += 1
        raise MalformedRow(rows_read, str(exc)) from None
    finally:
        if collecting:
            gc.enable()


class _CsvFile:
    """A CSV file read once: its header, then the columns the loader asks for.

    A file that :func:`_plain_line_count` vouches for is converted by one
    ``np.loadtxt`` pass over its lines per :meth:`columns` call. Any other
    file, and any file whose pass declines a cell or fails a check, is split
    from the same text into ``csv.reader`` rows, which :func:`_parse_rows`
    converts on this and every later call.
    """

    def __init__(self, path, raw: bytes | None = None):
        self.path = path
        if raw is None:
            raw = _read_bytes(path)
        self.text = raw.decode("utf-8")
        self.line_count = _plain_line_count(raw)
        if self.line_count is None:
            self._split_rows()
        else:
            self.header = self.text[: self.text.index("\n")].removesuffix("\r").split(",")

    def _split_rows(self):
        rows = _csv_rows(self.text)
        if not rows:
            raise EmptyFile(f"{self.path}: file is empty")
        self.header, self.data = rows[0], rows[1:]
        if not self.data:
            raise EmptyFile(f"{self.path}: no data rows")
        self.line_count = None

    def columns(self, groups, texts=(), positive=None) -> tuple[list[np.ndarray], list]:
        """A (rows, len(group)) float64 matrix per group of (name, position) columns, and each ``texts`` column's cells.

        Every value is finite, and every value of the column named
        ``positive`` is > 0; else the first bad row's :class:`MalformedRow`
        is raised, as :func:`_parse_rows` words it.
        """
        if self.line_count is not None:
            parsed = self._loadtxt(groups, texts, positive)
            if parsed is not None:
                return parsed
            self._split_rows()
        values = _parse_rows(self.header, self.data, [column for group in groups for column in group], positive)
        bounds = np.cumsum([0, *map(len, groups)]).tolist()
        return [values[:, a:b] for a, b in zip(bounds, bounds[1:])], [[row[col] for row in self.data] for col in texts]

    def _loadtxt(self, groups, texts, positive):
        """The same as :meth:`columns`, from one ``np.loadtxt`` pass over the data lines.

        None when ``loadtxt`` declines a cell (it declines some that
        ``float`` takes, such as ``1_000``), or when the row count, finiteness
        or ``positive`` check fails; :func:`_parse_rows` then converts the
        file, and words the error if there is one.
        """
        fields = [(f"{g},{j}", np.float64) for g, group in enumerate(groups) for j in range(len(group))]
        fields += [(f"text {j}", object) for j in range(len(texts))]
        try:
            table = np.loadtxt(
                self.text.split("\n")[1 : self.line_count],
                dtype=fields,
                delimiter=",",
                quotechar=None,
                comments=None,
                usecols=[col for group in groups for _, col in group] + list(texts),
                ndmin=1,
            )
        except ValueError:
            return None
        # each stacked (columns, rows) matrix transposed is the space's Fortran-ordered layout, with no further copy
        out = [np.stack([table[f"{g},{j}"] for j in range(len(group))]).T for g, group in enumerate(groups)]
        if len(table) != self.line_count - 1 or not _in_domain(out, groups, positive):
            return None
        return out, [table[f"text {j}"].tolist() for j in range(len(texts))]


def _column_indices(header, names, path) -> dict[str, int]:
    positions = {}
    for name in names:
        if name is None:
            continue
        try:
            positions[name] = header.index(name)
        except ValueError:
            raise MissingColumn(f"{path}: column {name!r} not found in header") from None
    return positions


def _parse_float(raw: str, row_no: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(row_no, f"column {column!r}: cannot parse {raw!r} as a number") from None
    if not math.isfinite(value):
        raise MalformedRow(row_no, f"column {column!r}: non-finite value {raw!r}")
    return value


def _parse_rows(header, data, columns, positive=None) -> np.ndarray:
    """A (rows, len(columns)) float64 matrix of ``columns``, (name, position) pairs, from ``csv.reader`` rows.

    This converts every file that the ``loadtxt`` pass does not, and words
    every row error for both. Each row's field count is checked, then its
    cells are parsed in column order, so the first bad row's
    :class:`MalformedRow` is the one raised. Cells of the column named
    ``positive`` must also be > 0.
    """
    # appending to a flat array of doubles costs about half of storing each value into a matrix
    values = array.array("d")
    for row_no, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise MalformedRow(row_no, f"expected {len(header)} fields, got {len(row)}")
        for name, col in columns:
            value = _parse_float(row[col], row_no, name)
            if name == positive and value <= 0.0:
                raise MalformedRow(row_no, f"exchange parameter must be > 0, got {value}")
            values.append(value)
    return np.frombuffer(values, dtype=np.float64).reshape(len(data), len(columns))


def _in_domain(matrices, groups, positive) -> bool:
    """Every value finite, and every value of a column named ``positive`` > 0."""
    return all(
        np.isfinite(matrix).all() and (matrix[:, [name == positive for name, _ in group]] > 0.0).all()
        for matrix, group in zip(matrices, groups)
    )


def _objects_from(table: _CsvFile, manifest: DatasetManifest, team: int | None = None):
    """The space, its id cells as parsed, and the :func:`_group_rows` of the column at position ``team``.

    The grouping is None without a ``team`` position.
    """
    wanted = [manifest.id_column, manifest.lambda_column, manifest.label_column, *manifest.attributes]
    pos = _column_indices(table.header, wanted, table.path)
    (lambdas, attrs), (ids, labels, *teams) = table.columns(
        [[(manifest.lambda_column, pos[manifest.lambda_column])], [(a, pos[a]) for a in manifest.attributes]],
        [pos[manifest.id_column], pos[manifest.label_column or manifest.id_column], *([] if team is None else [team])],
        positive=manifest.lambda_column,
    )
    space = ObjectSpace(
        ids=ids,
        lambdas=lambdas[:, 0],
        attrs=attrs,
        attribute_names=manifest.attributes,
        labels=labels,
    )
    return space, ids, (_group_rows(teams[0]) if teams else None)


def _group_rows(teams) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The rows of each distinct value of ``teams``, a list of cells, grouped.

    Returns the values in order of first appearance, offsets and row
    positions: value j's rows are ``members[offsets[j]:offsets[j + 1]]``, in
    file order.
    """
    code_of = {team: j for j, team in enumerate(dict.fromkeys(teams))}
    codes = np.fromiter(map(code_of.__getitem__, teams), dtype=np.int64, count=len(teams))
    offsets = np.zeros(len(code_of) + 1, dtype=np.int64)
    np.cumsum(np.bincount(codes, minlength=len(code_of)), out=offsets[1:])
    return list(code_of), offsets, np.argsort(codes, kind="stable")


class _Rosters(Mapping):
    """Each team's ids, in file order, from a :func:`_group_rows` grouping and an array of ids.

    A read-only mapping that builds a team's id list when it is first
    asked for and keeps it; it iterates in the grouping's team order and
    compares equal to a dict of the same lists.
    """

    def __init__(self, teams, offsets, members, ids):
        bounds = offsets.tolist()
        self._rows = {team: (a, b) for team, a, b in zip(teams, bounds, bounds[1:])}
        self._members, self._ids = members, ids
        self._built: dict[str, list[str]] = {}

    def __getitem__(self, team) -> list[str]:
        if team not in self._built:
            a, b = self._rows[team]
            self._built[team] = self._ids[self._members[a:b]].tolist()
        return self._built[team]

    def __contains__(self, team) -> bool:
        return team in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _require_lambda(manifest: DatasetManifest) -> None:
    if manifest.lambda_column is None:
        raise InvalidArgument("object manifest needs a lambda column")


def _require_team(manifest: DatasetManifest) -> None:
    if manifest.team_column is None:
        raise InvalidArgument("roster loading needs a team column in the manifest")


def load_objects(path, manifest: DatasetManifest) -> ObjectSpace:
    """Read one record per data row, projected to the manifest's attributes."""
    _require_lambda(manifest)
    return _objects_from(_CsvFile(path), manifest)[0]


def load_rosters(path, manifest: DatasetManifest) -> Mapping[str, list[str]]:
    """Map each team id to its member object ids, in file order; a team's list is built when first read."""
    _require_team(manifest)
    table = _CsvFile(path)
    pos = _column_indices(table.header, [manifest.id_column, manifest.team_column], path)
    _, (teams, ids) = table.columns([], [pos[manifest.team_column], pos[manifest.id_column]])
    return _Rosters(*_group_rows(teams), np.array(ids, dtype=object))


def load_objects_and_rosters(
    path, manifest: DatasetManifest, snapshot_dir=None
) -> tuple[ObjectSpace, Mapping[str, list[str]]]:
    """:func:`load_objects` and :func:`load_rosters` of one file, read once.

    Raises what the two calls in that order would raise. With a
    ``snapshot_dir``, a load over bytes and a manifest that an earlier load
    there parsed without error reads that load's arrays from its snapshot
    (:mod:`teamrank.snapshot`) instead of parsing; any other load parses,
    and stores a snapshot there once it has succeeded. A file with a NUL
    byte gets none, because a ``<U`` array drops an id's trailing NULs.
    """
    _require_lambda(manifest)
    raw = _read_bytes(path)
    if snapshot_dir is not None:
        # everything the parse depends on besides the bytes
        settings = {"manifest": manifest.to_dict(), "field_size_limit": csv.field_size_limit()}
        key = snapshot_key(raw, json.dumps(settings, sort_keys=True))
        stored = load_snapshot(snapshot_dir, key, manifest.attributes)
        if stored is not None:
            space, (teams, offsets, members) = stored
            return space, _Rosters(teams.tolist(), offsets, members, space.ids)
    table = _CsvFile(path, raw)
    # the team column is parsed with the objects when the header has it; when
    # it does not, the checks below raise only after any error in the objects
    team = table.header.index(manifest.team_column) if manifest.team_column in table.header else None
    space, ids, groups = _objects_from(table, manifest, team)
    _require_team(manifest)
    _column_indices(table.header, [manifest.team_column], path)
    if snapshot_dir is not None and b"\x00" not in raw:
        save_snapshot(snapshot_dir, key, space, *groups)
    return space, _Rosters(*groups, np.array(ids, dtype=object))


def load_teams(path, manifest: DatasetManifest) -> tuple[list[TargetContext], RankedSeries]:
    """Read team aggregate vectors plus the wins series used for weighting."""
    if manifest.wins_column is None:
        raise InvalidArgument("team manifest needs a wins column")
    table = _CsvFile(path)
    wanted = [manifest.id_column, manifest.wins_column, *manifest.attributes]
    pos = _column_indices(table.header, wanted, path)
    (aggregates, wins), (ids,) = table.columns(
        [[(a, pos[a]) for a in manifest.attributes], [(manifest.wins_column, pos[manifest.wins_column])]],
        [pos[manifest.id_column]],
    )
    targets = [TargetContext(team_id=tid, aggregate=aggregate.copy()) for tid, aggregate in zip(ids, aggregates)]
    return targets, RankedSeries(values=wins[:, 0], higher_is_better=True)


def load_column(path, column: str) -> np.ndarray:
    """One numeric column of a CSV file, under the same row checks as the loaders."""
    table = _CsvFile(path)
    pos = _column_indices(table.header, [column], path)
    (values,), _ = table.columns([[(column, pos[column])]])
    return values[:, 0]


def write_objects_csv(space: ObjectSpace, path) -> None:
    """Write a space back out in the same CSV contract the loaders read.

    Floats are rendered with repr, so a load round-trips bit-for-bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "lambda", *space.attribute_names])
        for i in range(len(space)):
            writer.writerow(
                [
                    str(space.ids[i]),
                    str(space.labels[i]),
                    repr(float(space.lambdas[i])),
                    *[repr(float(v)) for v in space.attrs[i]],
                ]
            )


@dataclass(frozen=True)
class NbParams:
    """Negative binomial parameters: r > 0 successes, success probability p."""

    r: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise InvalidParams(f"r must be finite and > 0, got {self.r}")
        if not (math.isfinite(self.p) and 0.0 < self.p < 1.0):
            raise InvalidParams(f"p must lie strictly inside (0, 1), got {self.p}")


def nb_mean(params: NbParams) -> float:
    return params.r * (1.0 - params.p) / params.p


def nb_variance(params: NbParams) -> float:
    return params.r * (1.0 - params.p) / (params.p * params.p)


def sample_negative_binomial(params: NbParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw counts via the gamma-Poisson mixture; returns float64 values."""
    intensity = rng.gamma(shape=params.r, scale=(1.0 - params.p) / params.p, size=size)
    return rng.poisson(intensity).astype(np.float64)


def _numbered_ids(prefix: str, count: int, width: int) -> np.ndarray:
    """``prefix`` followed by i zero-padded to ``width`` digits, for i < count.

    The same array ``np.char.mod(f"{prefix}%0{width}d", np.arange(count))``
    gives (``prefix`` taken literally), built by writing each column's UCS-4
    code points into one integer matrix and viewing its rows as strings,
    instead of formatting one Python string per row.
    """
    length = len(prefix) + width
    codes = np.empty((count, length), dtype="<u4")
    codes[:, : len(prefix)] = [ord(c) for c in prefix]
    rest = np.arange(count)
    for column in range(length - 1, len(prefix) - 1, -1):
        codes[:, column] = rest % 10 + ord("0")
        rest //= 10
    return codes.view(f"<U{length}").reshape(count)


def gen_synthetic(
    params,
    count: int,
    seed: int,
    *,
    lambda_range: tuple[float, float] = (500.0, 3000.0),
    attribute_names: Sequence[str] | None = None,
    id_prefix: str = "o",
) -> ObjectSpace:
    """Generate a synthetic object space with independent per-dimension draws.

    ``params`` is either a mapping of attribute name to :class:`NbParams`
    (iteration order fixes the dimension order) or a plain sequence of
    :class:`NbParams`, in which case names default to a0, a1, ...
    """
    if count < 1:
        raise InvalidArgument(f"count must be >= 1, got {count}")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not (0.0 < lo <= hi):
        raise InvalidParams(f"lambda range must satisfy 0 < lo <= hi, got ({lo}, {hi})")

    if isinstance(params, Mapping):
        names = tuple(str(k) for k in params.keys())
        plist = [p if isinstance(p, NbParams) else NbParams(**p) for p in params.values()]
    else:
        plist = [p if isinstance(p, NbParams) else NbParams(**p) for p in params]
        names = tuple(attribute_names) if attribute_names else tuple(f"a{j}" for j in range(len(plist)))
    if len(names) != len(plist):
        raise InvalidParams(f"{len(names)} attribute names for {len(plist)} parameter pairs")
    if not plist:
        raise InvalidParams("need at least one parameter pair")

    root = np.random.SeedSequence(seed)
    children = root.spawn(len(plist) + 1)
    # Fortran order, the space's own layout: each drawn column is written contiguously
    attrs = np.empty((len(plist), count), dtype=np.float64).T
    for j, pj in enumerate(plist):
        attrs[:, j] = sample_negative_binomial(pj, count, np.random.default_rng(children[j]))
    lam_rng = np.random.default_rng(children[-1])
    lambdas = lam_rng.uniform(lo, hi, size=count)

    ids = _numbered_ids(id_prefix, count, width=max(7, len(str(count - 1))))
    # zero-padded numbers of one width ascend in row order
    return ObjectSpace(ids=ids, lambdas=lambdas, attrs=attrs, attribute_names=names, id_order=np.arange(count))


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    accepted: bool
    n_bins: int


def chi_square_statistic(observed, expected) -> float:
    """Pearson statistic sum((obs - exp)^2 / exp) for pre-binned counts."""
    obs = np.asarray(observed, dtype=np.float64)
    exp = np.asarray(expected, dtype=np.float64)
    if obs.shape != exp.shape:
        raise DimensionMismatch(f"observed shape {obs.shape} != expected shape {exp.shape}")
    if np.any(exp <= 0.0):
        raise InvalidArgument("expected counts must be strictly positive")
    return float(np.sum((obs - exp) ** 2 / exp))


def _nb_bins(params: NbParams, n_samples: int, min_expected: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy integer-range bins with expected count >= min_expected each.

    Returns (upper_bounds, expected); the final bin is open-ended and its
    expected count covers the entire remaining tail mass. An undersized tail
    is merged into the preceding bin.
    """
    hi = int(sstats.nbinom.ppf(1.0 - 1e-6, params.r, params.p))
    pmf = sstats.nbinom.pmf(np.arange(hi + 1), params.r, params.p)

    uppers: list[float] = []
    expected: list[float] = []
    acc = 0.0
    for k in range(hi + 1):
        acc += n_samples * pmf[k]
        if acc >= min_expected:
            uppers.append(float(k))
            expected.append(acc)
            acc = 0.0
    if not uppers:
        raise DegenerateBinning("all probability mass fell into a single undersized bin")
    # acc now holds mass between the last closed bin and hi; sf covers it too.
    tail = n_samples * float(sstats.nbinom.sf(uppers[-1], params.r, params.p))
    if tail >= min_expected:
        uppers.append(np.inf)
        expected.append(tail)
    else:
        uppers[-1] = np.inf
        expected[-1] += tail
    if len(uppers) < 2:
        raise DegenerateBinning(
            f"binning produced {len(uppers)} bin(s); need at least 2 (try more samples)"
        )
    return np.asarray(uppers), np.asarray(expected)


def chi_square_gof(samples, r: float, p: float, alpha: float = 0.05, *, min_expected: float = 5.0) -> GofResult:
    """Test whether integer count samples are compatible with NB(r, p).

    Parameters are taken as given, not fitted, so the degrees of freedom are
    the bin count minus one. Accepts exactly when the statistic does not
    exceed the chi-square quantile at 1 - alpha.
    """
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim != 1 or data.size < 50:
        raise InsufficientData(f"need at least 50 samples in a 1-D array, got shape {data.shape}")
    if not (0.0 < alpha < 1.0):
        raise InvalidArgument(f"alpha must lie strictly inside (0, 1), got {alpha}")
    params = NbParams(r=float(r), p=float(p))

    uppers, expected = _nb_bins(params, data.size, min_expected)
    bin_index = np.searchsorted(uppers, data, side="left")
    observed = np.bincount(bin_index, minlength=uppers.size).astype(np.float64)
    statistic = chi_square_statistic(observed, expected)
    dof = uppers.size - 1
    critical = float(sstats.chi2.ppf(1.0 - alpha, dof))
    return GofResult(statistic=statistic, dof=dof, accepted=bool(statistic <= critical), n_bins=uppers.size)
