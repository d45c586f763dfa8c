import csv
import gc
import math
from collections.abc import Mapping, MutableMapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamrank import dataio
from teamrank.core import ObjectSpace
from teamrank.dataio import (
    DatasetManifest,
    _numbered_ids,
    NbParams,
    chi_square_gof,
    chi_square_statistic,
    gen_synthetic,
    load_column,
    load_objects,
    load_objects_and_rosters,
    load_rosters,
    load_teams,
    nb_mean,
    nb_variance,
    sample_negative_binomial,
    write_objects_csv,
)
from teamrank.errors import (
    DegenerateBinning,
    EmptyFile,
    InsufficientData,
    InvalidArgument,
    InvalidParams,
    MalformedRow,
    MissingColumn,
)

OBJECT_MANIFEST = DatasetManifest(
    attributes=("FG", "AST"),
    id_column="id",
    label_column="name",
    lambda_column="MP",
    team_column="Tm",
)
TEAM_MANIFEST = DatasetManifest(attributes=("FG", "AST"), id_column="Team", wins_column="W")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObjects:
    def test_two_rows_in_file_order(self, tmp_path):
        path = write(
            tmp_path,
            "objects.csv",
            "id,name,Tm,MP,FG,AST\n" "p1,One,AAA,100,5,6\n" "p2,Two,BBB,200,7,8\n",
        )
        space = load_objects(path, OBJECT_MANIFEST)
        assert list(space.ids) == ["p1", "p2"]
        assert np.array_equal(space.attrs, [[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(space.lambdas, [100.0, 200.0])

    def test_attribute_order_follows_manifest(self, tmp_path):
        path = write(tmp_path, "objects.csv", "AST,FG,id,name,Tm,MP\n9,3,p1,One,AAA,50\n")
        space = load_objects(path, OBJECT_MANIFEST)
        assert space.attribute_names == ("FG", "AST")
        assert np.array_equal(space.attrs, [[3.0, 9.0]])

    def test_missing_lambda_column(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,Tm,FG,AST\np1,One,AAA,5,6\n")
        with pytest.raises(MissingColumn):
            load_objects(path, OBJECT_MANIFEST)

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,Tm,MP,FG,AST\n")
        with pytest.raises(EmptyFile):
            load_objects(path, OBJECT_MANIFEST)

    def test_bad_float_reports_row_number(self, tmp_path):
        path = write(
            tmp_path,
            "objects.csv",
            "id,name,Tm,MP,FG,AST\np1,One,AAA,100,5,6\np2,Two,BBB,200,oops,8\n",
        )
        with pytest.raises(MalformedRow) as excinfo:
            load_objects(path, OBJECT_MANIFEST)
        assert excinfo.value.row == 2

    def test_nonpositive_lambda_rejected(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,Tm,MP,FG,AST\np1,One,AAA,-5,5,6\n")
        with pytest.raises(MalformedRow):
            load_objects(path, OBJECT_MANIFEST)

    def test_non_finite_attribute_rejected(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,Tm,MP,FG,AST\np1,One,AAA,10,nan,6\n")
        with pytest.raises(MalformedRow):
            load_objects(path, OBJECT_MANIFEST)

    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        space = gen_synthetic(
            {"FG": NbParams(1.44, 0.008), "AST": NbParams(0.93, 0.0092)},
            count=50,
            seed=9,
            lambda_range=(1.0, 100.0),
        )
        path = tmp_path / "out.csv"
        write_objects_csv(space, path)
        again = load_objects(
            path,
            DatasetManifest(attributes=("FG", "AST"), id_column="id", label_column="label", lambda_column="lambda"),
        )
        assert np.array_equal(space.attrs, again.attrs)
        assert np.array_equal(space.lambdas, again.lambdas)
        assert space.digest() == again.digest()

    def test_collector_state_is_restored_after_a_read(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,Tm,MP,FG,AST\np1,One,AAA,100,5,6\n")
        quoted = write(tmp_path, "quoted.csv", 'id,name,Tm,MP,FG,AST\np1,"One",AAA,100,5,6\n')
        was_enabled = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                load_objects(path, OBJECT_MANIFEST)
                assert gc.isenabled() is enabled
                load_objects(quoted, OBJECT_MANIFEST)  # csv.reader rows, built with the collector paused
                assert gc.isenabled() is enabled
                with pytest.raises(FileNotFoundError):
                    load_objects(tmp_path / "missing.csv", OBJECT_MANIFEST)
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_shuffled_rows_same_content_digest(self, tmp_path):
        body = ["p1,One,AAA,100,5,6", "p2,Two,BBB,200,7,8", "p3,Three,AAA,300,9,1"]
        header = "id,name,Tm,MP,FG,AST"
        a = load_objects(write(tmp_path, "a.csv", "\n".join([header, *body]) + "\n"), OBJECT_MANIFEST)
        b = load_objects(
            write(tmp_path, "b.csv", "\n".join([header, body[2], body[0], body[1]]) + "\n"),
            OBJECT_MANIFEST,
        )
        assert a.digest() == b.digest()


class TestLoadTeamsAndRosters:
    def test_teams_and_wins(self, tmp_path):
        path = write(
            tmp_path,
            "teams.csv",
            "Team,W,FG,AST\nAAA,50,100,200\nBBB,38,90,150\n",
        )
        targets, wins = load_teams(path, TEAM_MANIFEST)
        assert [t.team_id for t in targets] == ["AAA", "BBB"]
        assert np.array_equal(wins.values, [50.0, 38.0])
        assert np.array_equal(targets[0].aggregate, [100.0, 200.0])

    def test_single_team_file_loads_cleanly(self, tmp_path):
        path = write(tmp_path, "teams.csv", "Team,W,FG,AST\nAAA,50,100,200\n")
        targets, wins = load_teams(path, TEAM_MANIFEST)
        assert len(targets) == 1
        assert wins.values.size == 1
        # weighting against a single team is where the requirement bites
        from teamrank.errors import InsufficientData
        from teamrank.weighting import compute_weights

        with pytest.raises(InsufficientData):
            compute_weights(np.stack([t.aggregate for t in targets]), wins)

    def test_rosters_group_by_team(self, tmp_path):
        path = write(
            tmp_path,
            "objects.csv",
            "id,name,Tm,MP,FG,AST\np1,One,AAA,1,1,1\np2,Two,BBB,1,1,1\np3,Three,AAA,1,1,1\n",
        )
        rosters = load_rosters(path, OBJECT_MANIFEST)
        assert rosters == {"AAA": ["p1", "p3"], "BBB": ["p2"]}


HEADER = "id,name,Tm,MP,FG,AST"
GOOD = ["p1,One,AAA,100,5,6", "p2,Two,BBB,200,7,8"]

# (case, data rows, expected .row, expected message): each message as a row-by-row parse words it
MALFORMED_OBJECTS = [
    ("short_row_3", [*GOOD, "p3,Three,AAA,300,9"], 3, "row 3: expected 6 fields, got 5"),
    ("long_row_3", [*GOOD, "p3,Three,AAA,300,9,1,2"], 3, "row 3: expected 6 fields, got 7"),
    ("bad_lambda", [GOOD[0], "p2,Two,BBB,abc,7,8"], 2, "row 2: column 'MP': cannot parse 'abc' as a number"),
    ("bad_attr", [GOOD[0], "p2,Two,BBB,200,7,x8"], 2, "row 2: column 'AST': cannot parse 'x8' as a number"),
    ("empty_attr", [GOOD[0], "p2,Two,BBB,200,,8"], 2, "row 2: column 'FG': cannot parse '' as a number"),
    ("lambda_zero", ["p1,One,AAA,0,5,6"], 1, "row 1: exchange parameter must be > 0, got 0.0"),
    ("lambda_negative", [GOOD[0], "p2,Two,BBB,-1,7,8"], 2, "row 2: exchange parameter must be > 0, got -1.0"),
    ("nan_attr", [GOOD[0], "p2,Two,BBB,200,nan,8"], 2, "row 2: column 'FG': non-finite value 'nan'"),
    ("inf_attr", [GOOD[0], "p2,Two,BBB,200,7,inf"], 2, "row 2: column 'AST': non-finite value 'inf'"),
    ("overflow_attr", [GOOD[0], "p2,Two,BBB,200,1e400,8"], 2, "row 2: column 'FG': non-finite value '1e400'"),
    (
        "attr_beats_later_lambda",
        [GOOD[0], "p2,Two,BBB,200,oops,8", "p3,Three,AAA,-1,9,1"],
        2,
        "row 2: column 'FG': cannot parse 'oops' as a number",
    ),
    (
        "lambda_beats_attr_same_row",
        [GOOD[0], "p2,Two,BBB,0,oops,8"],
        2,
        "row 2: exchange parameter must be > 0, got 0.0",
    ),
    (
        "bad_float_beats_later_short_row",
        [GOOD[0], "p2,Two,BBB,200,7,nan", "p3,Three"],
        2,
        "row 2: column 'AST': non-finite value 'nan'",
    ),
]


def plain_and_quoted(tmp_path, header, rows):
    """A file of ``header`` and ``rows``, and a twin with the header's first name quoted, which ``csv.reader`` reads."""
    first, rest = header.split(",", 1)
    return [
        write(tmp_path, f"{kind}.csv", "\n".join([line, *rows]) + "\n")
        for kind, line in (("plain", header), ("quoted", f'"{first}",{rest}'))
    ]


class TestLoaderErrorParity:
    @pytest.mark.parametrize(
        "rows, row, message", [case[1:] for case in MALFORMED_OBJECTS], ids=[case[0] for case in MALFORMED_OBJECTS]
    )
    def test_objects_error_names_the_first_bad_row(self, tmp_path, rows, row, message):
        for path in plain_and_quoted(tmp_path, HEADER, rows):
            for load in (load_objects, load_objects_and_rosters):
                with pytest.raises(MalformedRow) as excinfo:
                    load(path, OBJECT_MANIFEST)
                assert type(excinfo.value) is MalformedRow
                assert excinfo.value.row == row
                assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "rows, row, message",
        [
            (["BBB,38,90"], 1, "row 1: expected 4 fields, got 3"),
            (["AAA,50,100,200", "BBB,x,90,150"], 2, "row 2: column 'W': cannot parse 'x' as a number"),
            (["AAA,50,100,200", "BBB,nan,oops,150"], 2, "row 2: column 'FG': cannot parse 'oops' as a number"),
            (["AAA,50,100,inf", "BBB,38"], 1, "row 1: column 'AST': non-finite value 'inf'"),
        ],
    )
    def test_teams_error_names_the_first_bad_row(self, tmp_path, rows, row, message):
        for path in plain_and_quoted(tmp_path, "Team,W,FG,AST", rows):
            with pytest.raises(MalformedRow) as excinfo:
                load_teams(path, TEAM_MANIFEST)
            assert (excinfo.value.row, str(excinfo.value)) == (row, message)

    def test_rosters_short_row(self, tmp_path):
        path = write(tmp_path, "objects.csv", "\n".join([HEADER, *GOOD, "p3,Three"]) + "\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_rosters(path, OBJECT_MANIFEST)
        assert str(excinfo.value) == "row 3: expected 6 fields, got 2"

    @pytest.mark.parametrize("raw", ["1_000", " 1.5 ", "+2", "1e-3"])
    def test_accepted_edge_strings_load_as_float_does(self, tmp_path, raw):
        path = write(tmp_path, "objects.csv", f"{HEADER}\np1,One,AAA,{raw},{raw},6\n")
        space = load_objects(path, OBJECT_MANIFEST)
        assert space.lambdas[0] == float(raw)
        assert space.attrs[0, 0] == float(raw)

    def test_quoted_label_with_comma_loads_intact(self, tmp_path):
        path = write(tmp_path, "objects.csv", f'{HEADER}\np1,"Smith, John",AAA,100,5,6\n')
        space = load_objects(path, OBJECT_MANIFEST)
        assert list(space.labels) == ["Smith, John"]
        assert np.array_equal(space.attrs, [[5.0, 6.0]])


class TestFieldSizeLimit:
    """A cell over ``csv.field_size_limit()`` is a :class:`MalformedRow` naming its row, from every loader."""

    LIMIT_MESSAGE = f"field larger than field limit ({csv.field_size_limit()})"

    @pytest.mark.parametrize("load", [load_objects, load_rosters, load_objects_and_rosters])
    def test_object_loaders(self, tmp_path, load):
        path = write(tmp_path, "objects.csv", "\n".join([HEADER, *GOOD, f"p3,{'x' * 200_000},AAA,300,9,1"]) + "\n")
        with pytest.raises(MalformedRow) as excinfo:
            load(path, OBJECT_MANIFEST)
        assert (type(excinfo.value), excinfo.value.row, str(excinfo.value)) == (
            MalformedRow,
            3,
            f"row 3: {self.LIMIT_MESSAGE}",
        )

    def test_teams_and_column(self, tmp_path):
        path = write(tmp_path, "teams.csv", f"Team,W,FG,AST\r\nAAA,50,{'9' * 200_000},200\r\n")
        for load, arg in ((load_teams, TEAM_MANIFEST), (load_column, "W")):
            with pytest.raises(MalformedRow) as excinfo:
                load(path, arg)
            assert str(excinfo.value) == f"row 1: {self.LIMIT_MESSAGE}"

    def test_header_cell_is_row_0(self, tmp_path):
        path = write(tmp_path, "data.csv", f"a,{'b' * 200_000}\n1,2\n")
        with pytest.raises(MalformedRow) as excinfo:
            load_column(path, "a")
        assert excinfo.value.row == 0

    def test_long_line_of_short_cells_loads(self, tmp_path):
        limit = csv.field_size_limit()
        label = "y" * limit
        path = write(tmp_path, "objects.csv", f"{HEADER}\np1,{label},AAA,100,{'0' * (limit - 1)}5,6\n")
        space = load_objects(path, OBJECT_MANIFEST)
        assert space.labels.tolist() == [label]
        assert np.array_equal(space.attrs, [[5.0, 6.0]])


def write_league(path, *, quoted_label=False, cell=None):
    """200 players written by ``csv.writer``, as the CLI's files and the benchmark's are: '\\r\\n' line ends, no quotes.

    ``quoted_label`` gives row 8 a label with a comma, which ``csv.writer``
    quotes; ``cell`` replaces row 5's FG cell.
    """
    space = gen_synthetic(
        {"FG": NbParams(1.44, 0.008), "AST": NbParams(0.93, 0.0092)}, count=200, seed=3, lambda_range=(1.0, 100.0)
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(HEADER.split(","))
        columns = zip(space.ids.tolist(), space.lambdas.tolist(), space.attrs.tolist())
        for i, (oid, lam, (fg, ast)) in enumerate(columns):
            name = "Smith, John" if quoted_label and i == 7 else f"player {i}"
            fg = cell if cell is not None and i == 4 else repr(fg)
            out.writerow([oid, name, ("AAA", "BBB", "FA")[i % 3], repr(lam), fg, repr(ast)])
    return path


class TestParsePath:
    """Which parse a file gets: the speed of the common file rests on these."""

    @pytest.fixture()
    def row_parses(self, monkeypatch):
        """Texts handed to the ``csv.reader`` path, one entry per parse."""
        seen = []
        real = dataio._csv_rows

        def counting(text):
            seen.append(text)
            return real(text)

        monkeypatch.setattr(dataio, "_csv_rows", counting)
        return seen

    def test_csv_writer_file_is_parsed_column_wise(self, tmp_path, monkeypatch):
        path = write_league(tmp_path / "objects.csv")
        teams = tmp_path / "teams.csv"
        with open(teams, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["Team", "W", "FG", "AST"], ["AAA", 50, 100.5, 200], ["BBB", 38, 90, 150.25]])
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 201 and b'"' not in raw
        ref_space, ref_rosters = _reference_objects(path, OBJECT_MANIFEST)
        ref_ids, ref_aggregates, ref_wins = _reference_teams(teams, TEAM_MANIFEST)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader rows were built")

        monkeypatch.setattr(dataio, "_csv_rows", refuse)
        for space in (load_objects(path, OBJECT_MANIFEST), load_objects_and_rosters(path, OBJECT_MANIFEST)[0]):
            assert space.ids.tolist() == ref_space.ids.tolist()
            assert space.labels.tolist() == ref_space.labels.tolist()
            assert space.lambdas.tobytes() == ref_space.lambdas.tobytes()
            assert space.attrs.tobytes() == ref_space.attrs.tobytes()
        assert load_objects_and_rosters(path, OBJECT_MANIFEST)[1] == load_rosters(path, OBJECT_MANIFEST) == ref_rosters
        assert load_column(path, "MP").tobytes() == ref_space.lambdas.tobytes()
        targets, wins = load_teams(teams, TEAM_MANIFEST)
        assert [t.team_id for t in targets] == ref_ids
        assert np.stack([t.aggregate for t in targets]).tobytes() == ref_aggregates.tobytes()
        assert wins.values.tobytes() == ref_wins.tobytes()

    def test_one_quoted_label_takes_the_row_path_with_the_same_values(self, tmp_path, row_parses):
        plain = load_objects_and_rosters(write_league(tmp_path / "plain.csv"), OBJECT_MANIFEST)
        assert row_parses == []
        quoted_path = write_league(tmp_path / "quoted.csv", quoted_label=True)
        assert quoted_path.read_bytes().count(b'"') == 2
        quoted = load_objects_and_rosters(quoted_path, OBJECT_MANIFEST)
        assert len(row_parses) == 1
        assert quoted[0].labels[7] == "Smith, John"
        assert np.delete(quoted[0].labels, 7).tolist() == np.delete(plain[0].labels, 7).tolist()
        assert quoted[0].digest() == plain[0].digest()
        assert quoted[1] == plain[1]

    @pytest.mark.parametrize("source", ["loadtxt", "rows", "snapshot"])
    def test_every_load_stores_fortran_ordered_attrs(self, tmp_path, row_parses, source):
        path = write_league(tmp_path / "objects.csv", quoted_label=source == "rows")
        ref_space, _ = _reference_objects(path, OBJECT_MANIFEST)
        snapshot_dir = tmp_path / "snapshots" if source == "snapshot" else None
        if snapshot_dir is not None:
            load_objects_and_rosters(path, OBJECT_MANIFEST, snapshot_dir)
        space = load_objects_and_rosters(path, OBJECT_MANIFEST, snapshot_dir)[0]
        assert len(row_parses) == (source == "rows")
        assert space.attrs.flags.f_contiguous
        # a snapshot hit's matrix is a view of the file's bytes, not a copy
        assert space.attrs.flags.writeable == (source != "snapshot")
        assert space.attrs.tobytes() == ref_space.attrs.tobytes()

    def test_a_cell_loadtxt_declines_is_parsed_from_rows_as_float_does(self, tmp_path, row_parses):
        space = load_objects(write_league(tmp_path / "objects.csv", cell="1_0"), OBJECT_MANIFEST)
        assert len(row_parses) == 1
        assert space.attrs[4, 0] == 10.0


class TestLoadObjectsAndRosters:
    def test_matches_the_two_separate_loads(self, tmp_path):
        path = write(tmp_path, "objects.csv", "\n".join([HEADER, *GOOD, "p3,Three,AAA,300,9,1"]) + "\n")
        space, rosters = load_objects_and_rosters(path, OBJECT_MANIFEST)
        alone = load_objects(path, OBJECT_MANIFEST)
        assert space.digest() == alone.digest()
        assert list(space.labels) == list(alone.labels)
        assert rosters == load_rosters(path, OBJECT_MANIFEST) == {"AAA": ["p1", "p3"], "BBB": ["p2"]}

    @pytest.mark.parametrize("source", ["parse", "snapshot"])
    def test_rosters_are_a_read_only_mapping_built_per_team(self, tmp_path, source):
        path = write(tmp_path, "objects.csv", "\n".join([HEADER, "p3,Three,BBB,300,9,1", *GOOD]) + "\n")
        snapshot_dir = tmp_path / "snapshots" if source == "snapshot" else None
        if snapshot_dir is not None:
            load_objects_and_rosters(path, OBJECT_MANIFEST, snapshot_dir)
        _, rosters = load_objects_and_rosters(path, OBJECT_MANIFEST, snapshot_dir)
        assert isinstance(rosters, Mapping) and not isinstance(rosters, MutableMapping)
        assert rosters._built == {}
        assert "BBB" in rosters and "CCC" not in rosters and 3 not in rosters
        assert rosters._built == {}
        assert rosters["BBB"] == ["p3", "p2"] and rosters["BBB"] is rosters["BBB"]
        assert list(rosters._built) == ["BBB"]
        assert len(rosters) == 2 and list(rosters) == ["BBB", "AAA"]
        assert rosters == {"AAA": ["p1"], "BBB": ["p3", "p2"]} == rosters
        assert rosters != {"AAA": ["p1"]} and rosters != {"AAA": ["p1"], "BBB": ["p2", "p3"]}
        with pytest.raises(KeyError):
            rosters["CCC"]

    def test_object_errors_come_before_roster_errors(self, tmp_path):
        path = write(tmp_path, "objects.csv", "id,name,MP,FG,AST\np1,One,oops,5,6\n")
        with pytest.raises(MalformedRow):
            load_objects_and_rosters(path, OBJECT_MANIFEST)
        path = write(tmp_path, "objects.csv", "id,name,MP,FG,AST\np1,One,100,5,6\n")
        with pytest.raises(MissingColumn):
            load_objects_and_rosters(path, OBJECT_MANIFEST)

    def test_manifest_without_team_column(self, tmp_path):
        path = write(tmp_path, "objects.csv", "\n".join([HEADER, *GOOD]) + "\n")
        manifest = DatasetManifest(attributes=("FG",), id_column="id", lambda_column="MP")
        with pytest.raises(InvalidArgument):
            load_objects_and_rosters(path, manifest)


class TestLoadColumn:
    def test_values_in_file_order(self, tmp_path):
        path = write(tmp_path, "data.csv", "a,b\n1,2\n3, 4.5\n")
        assert np.array_equal(load_column(path, "b"), [2.0, 4.5])

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "data.csv", "a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            load_column(path, "c")


# Row-major reference: the loaders as they were before the column-wise conversion.
def _reference_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _reference_float(raw, row_no, column):
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(row_no, f"column {column!r}: cannot parse {raw!r} as a number") from None
    if not math.isfinite(value):
        raise MalformedRow(row_no, f"column {column!r}: non-finite value {raw!r}")
    return value


def _reference_objects(path, manifest):
    header, data = _reference_rows(path)
    named = [manifest.id_column, manifest.lambda_column, manifest.label_column, manifest.team_column]
    pos = {name: header.index(name) for name in (*named, *manifest.attributes)}
    ids, labels, lambdas = [], [], []
    attrs = np.empty((len(data), len(manifest.attributes)), dtype=np.float64)
    for row_no, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise MalformedRow(row_no, f"expected {len(header)} fields, got {len(row)}")
        lam = _reference_float(row[pos[manifest.lambda_column]], row_no, manifest.lambda_column)
        if lam <= 0.0:
            raise MalformedRow(row_no, f"exchange parameter must be > 0, got {lam}")
        ids.append(row[pos[manifest.id_column]])
        labels.append(row[pos[manifest.label_column]])
        lambdas.append(lam)
        for j, attr in enumerate(manifest.attributes):
            attrs[row_no - 1, j] = _reference_float(row[pos[attr]], row_no, attr)
    space = ObjectSpace(ids=ids, lambdas=lambdas, attrs=attrs, attribute_names=manifest.attributes, labels=labels)
    rosters = {}
    for row in data:
        rosters.setdefault(row[pos[manifest.team_column]], []).append(row[pos[manifest.id_column]])
    return space, rosters


def _reference_teams(path, manifest):
    header, data = _reference_rows(path)
    pos = {name: header.index(name) for name in (manifest.id_column, manifest.wins_column, *manifest.attributes)}
    aggregates, wins, ids = [], [], []
    for row_no, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise MalformedRow(row_no, f"expected {len(header)} fields, got {len(row)}")
        aggregates.append([_reference_float(row[pos[a]], row_no, a) for a in manifest.attributes])
        wins.append(_reference_float(row[pos[manifest.wins_column]], row_no, manifest.wins_column))
        ids.append(row[pos[manifest.id_column]])
    return ids, np.array(aggregates), np.array(wins)


def _reference_column(path, column):
    header, data = _reference_rows(path)
    col = header.index(column)
    values = []
    for row_no, row in enumerate(data, start=1):
        if len(row) != len(header):
            raise MalformedRow(row_no, f"expected {len(header)} fields, got {len(row)}")
        values.append(_reference_float(row[col], row_no, column))
    return np.array(values)


def _outcome(load, *args):
    try:
        return "ok", load(*args)
    except MalformedRow as exc:
        return "error", (type(exc), exc.row, str(exc))
    except InvalidArgument as exc:
        return "error", (type(exc), None, str(exc))


GOOD_CELLS = st.sampled_from(["1", "250", "2.5", "0.001", "+2", "1e-3", " 1.5 ", "1_000", "7e2", "0"])
BAD_CELLS = st.sampled_from(["-1", "", "abc", "nan", "inf", "-inf", "1e400", "0x10", "1__0"])
# cells where np.loadtxt and float part ways or csv.reader splits unusually:
# loadtxt reads '5\x1c' as 5.0, float rejects it; loadtxt declines '1_000' and
# '١٢', float takes them; '"7"' and '"2,5"' are quoted
AWKWARD_CELLS = st.sampled_from(
    ["1_000", "١٢", "5\x1c", "1\x0b", "1\x85", "a b", "1\x00", "#3", "4#", "\t6", '"7"', '"2,5"']
)
CELLS = st.one_of(GOOD_CELLS, GOOD_CELLS, GOOD_CELLS, GOOD_CELLS, GOOD_CELLS, BAD_CELLS, AWKWARD_CELLS)
# cells that leave a file on the column-wise path and that np.loadtxt reads as float does
PLAIN_CELLS = st.sampled_from(["1", "250", "2.5", "0.001", "+2", "1e-3", " 1.5 ", "7e2", "0", "\t6", "1\x85", "3\xa0"])
# how much of a file is irregular: nothing, only its numeric cells, or anything
MODES = st.sampled_from(["plain", "cells", "any"])


@st.composite
def text_cells(draw, plain, mode):
    """``plain``, or it padded or commented.

    In mode "any" also with an odd character, or quoted around ',', '""' or a newline.
    """
    kinds = ["plain"] * 6 + ["padded", "hash"] + (["odd", "quoted"] if mode == "any" else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "padded":
        return draw(st.sampled_from([f" {plain}", f"{plain} ", f" {plain} ", f"\t{plain}"]))
    if kind == "hash":
        return f"#{plain}"
    if kind == "odd":
        return plain + draw(st.sampled_from(["\x1c", "\x0b", "\x85", "\x00", " b", " "]))
    if kind == "quoted":
        return '"' + plain + draw(st.sampled_from([", x", '""', "\nx", "\r\nx"])) + '"'
    return plain


@st.composite
def csv_text(draw, lines, mode):
    """``lines`` joined by '\\n' or '\\r\\n', now and then without a final newline.

    In mode "any" also now and then with a lone '\\r' or a blank or blank-looking line.
    """
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [eol] * len(lines)
    shape = draw(st.sampled_from(["plain"] * 6 + ["lone_cr", "blank_mid", "blank_end", "space_line", "no_final_eol"]))
    if mode != "any" and shape != "no_final_eol":
        shape = "plain"
    if shape == "lone_cr":
        ends[draw(st.integers(0, len(lines) - 1))] = "\r"
    elif shape in ("blank_mid", "space_line"):
        at = draw(st.integers(1, len(lines)))
        lines = [*lines[:at], "" if shape == "blank_mid" else draw(st.sampled_from([" ", "\t", "  "])), *lines[at:]]
        ends.insert(at, eol)
    elif shape == "blank_end":
        lines, ends = [*lines, ""], [*ends, eol]
    elif shape == "no_final_eol":
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def rows_of(draw, header, make_row, mode):
    """Header and data lines, now and then with an unused last column.

    In mode "any" now and then a row is one field short or long.
    """
    note = draw(st.booleans()) and draw(st.booleans())
    width = len(header) + note
    lines = [",".join([*header, "note"][:width])]
    widths = [width] * 8 + ([width - 1, width + 1] if mode == "any" else [])
    for i in range(draw(st.integers(1, 6))):
        cells = [*make_row(i), "n", "9"]
        lines.append(",".join(cells[: draw(st.sampled_from(widths))]))
    return lines


@st.composite
def object_files(draw):
    mode = draw(MODES)
    cells = {"plain": PLAIN_CELLS, "cells": CELLS, "any": draw(st.sampled_from([PLAIN_CELLS, CELLS]))}[mode]

    def row(i):
        team = draw(st.sampled_from(["AAA", "BBB", "FA"]))
        oid = draw(text_cells(draw(st.sampled_from([f"p{i}", "p0"])), mode))  # an occasional duplicate id
        return [oid, draw(text_cells(f"name {i}", mode)), team, *(draw(cells) for _ in range(3))]

    return draw(csv_text(rows_of(draw, HEADER.split(","), row, mode), mode))


@st.composite
def team_files(draw):
    mode = draw(MODES)
    cells = {"plain": PLAIN_CELLS, "cells": CELLS, "any": draw(st.sampled_from([PLAIN_CELLS, CELLS]))}[mode]

    def row(i):
        return [draw(text_cells(f"T{i}", mode)), *(draw(cells) for _ in range(3))]

    return draw(csv_text(rows_of(draw, ["Team", "W", "FG", "AST"], row, mode), mode))


def _write_bytes(factory, name, text):
    path = factory.mktemp(name) / f"{name}.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestAgainstRowMajorReference:
    @settings(max_examples=400)
    @given(text=object_files())
    def test_objects_and_rosters(self, tmp_path_factory, text):
        path = _write_bytes(tmp_path_factory, "objects", text)
        got_kind, got = _outcome(load_objects_and_rosters, path, OBJECT_MANIFEST)
        want_kind, want = _outcome(_reference_objects, path, OBJECT_MANIFEST)
        assert got_kind == want_kind
        if want_kind == "error":
            assert got == want
            return
        (space, rosters), (ref_space, ref_rosters) = got, want
        assert space.ids.tolist() == ref_space.ids.tolist()
        assert space.labels.tolist() == ref_space.labels.tolist()
        assert space.lambdas.tobytes() == ref_space.lambdas.tobytes()
        assert space.attrs.tobytes() == ref_space.attrs.tobytes()
        assert rosters == ref_rosters

    @settings(max_examples=200)
    @given(text=object_files())
    def test_objects_and_rosters_through_a_snapshot(self, tmp_path_factory, text):
        path = _write_bytes(tmp_path_factory, "objects", text)
        want_kind, want = _outcome(load_objects_and_rosters, path, OBJECT_MANIFEST)
        # the first load parses and keeps a snapshot, the second loads it back
        for _ in range(2):
            got_kind, got = _outcome(load_objects_and_rosters, path, OBJECT_MANIFEST, path.parent / "snapshots")
            assert got_kind == want_kind
            if want_kind == "error":
                assert got == want
                continue
            (space, rosters), (ref_space, ref_rosters) = got, want
            for name in ("ids", "labels", "lambdas", "attrs"):
                assert getattr(space, name).tobytes() == getattr(ref_space, name).tobytes()
            assert space.digest() == ref_space.digest()
            assert rosters == ref_rosters and list(rosters) == list(ref_rosters)
        stored = list((path.parent / "snapshots").glob("*"))
        assert len(stored) == (want_kind == "ok" and "\x00" not in text)

    @settings(max_examples=400)
    @given(text=team_files())
    def test_teams(self, tmp_path_factory, text):
        path = _write_bytes(tmp_path_factory, "teams", text)
        got_kind, got = _outcome(load_teams, path, TEAM_MANIFEST)
        want_kind, want = _outcome(_reference_teams, path, TEAM_MANIFEST)
        assert got_kind == want_kind
        if want_kind == "error":
            assert got == want
            return
        targets, wins = got
        ids, aggregates, ref_wins = want
        assert [t.team_id for t in targets] == ids
        assert np.stack([t.aggregate for t in targets]).tobytes() == aggregates.tobytes()
        assert wins.values.tobytes() == ref_wins.tobytes()

    @settings(max_examples=200)
    @given(text=team_files(), column=st.sampled_from(["W", "AST"]))
    def test_column(self, tmp_path_factory, text, column):
        path = _write_bytes(tmp_path_factory, "column", text)
        got_kind, got = _outcome(load_column, path, column)
        want_kind, want = _outcome(_reference_column, path, column)
        assert got_kind == want_kind
        assert got.tobytes() == want.tobytes() if want_kind == "ok" else got == want


# One file per edge of the column-wise path's guard, each against the csv.reader reference.
_ROWS = ["p1,One,AAA,100,5,6", "p2,Two,BBB,200,7,8", "p3,Three,AAA,300,9,1"]
GUARD_EDGES = {
    "lf": "\n".join([HEADER, *_ROWS]) + "\n",
    "crlf": "\r\n".join([HEADER, *_ROWS]) + "\r\n",
    "lone_cr": f"{HEADER}\n{_ROWS[0]}\r{_ROWS[1]}\n{_ROWS[2]}\n",
    "lone_cr_at_end": "\n".join([HEADER, *_ROWS]) + "\r",
    "blank_line_mid": "\n".join([HEADER, _ROWS[0], "", *_ROWS[1:]]) + "\n",
    "blank_crlf_line_mid": "\r\n".join([HEADER, _ROWS[0], "", *_ROWS[1:]]) + "\r\n",
    "blank_line_end": "\n".join([HEADER, *_ROWS]) + "\n\n",
    "whitespace_line": "\n".join([HEADER, _ROWS[0], "  ", *_ROWS[1:]]) + "\n",
    "no_final_newline": "\r\n".join([HEADER, *_ROWS]),
    "quoted_comma": "\n".join([HEADER, 'p1,"One, Jr",AAA,100,5,6', *_ROWS[1:]]) + "\n",
    "quoted_quote": "\n".join([HEADER, 'p1,"One ""1""",AAA,100,5,6', *_ROWS[1:]]) + "\n",
    "quoted_newline": "\n".join([HEADER, 'p1,"One\nJr",AAA,100,5,6', *_ROWS[1:]]) + "\n",
    "quoted_number": "\n".join([HEADER, 'p1,One,AAA,"100",5,6', *_ROWS[1:]]) + "\n",
    "unused_last_column": "\n".join([HEADER + ",note", *(r + ",n" for r in _ROWS)]) + "\n",
    "unused_last_column_missing": "\n".join([HEADER + ",note", _ROWS[0] + ",n", _ROWS[1], _ROWS[2] + ",n"]) + "\n",
    "extra_trailing_field": "\n".join([HEADER, _ROWS[0], _ROWS[1] + ",x", _ROWS[2]]) + "\n",
    "hash_cells": "\n".join([HEADER, "#p1,One#,AAA,100,5,6", *_ROWS[1:]]) + "\n",
    "padded_text_cells": "\n".join([HEADER, " p1 ,\tOne ,AAA,100,5,6", "p2 , Two,BBB,200,7,8", _ROWS[2]]) + "\n",
    "padded_number": "\n".join([HEADER, "p1,One,AAA, 100 ,\t5,6 ", *_ROWS[1:]]) + "\n",
    "underscore": "\n".join([HEADER, "p1,One,AAA,1_000,5,6", *_ROWS[1:]]) + "\n",
    "arabic_digits": "\n".join([HEADER, "p1,One,AAA,100,١٢,6", *_ROWS[1:]]) + "\n",
    "file_separator": "\n".join([HEADER, _ROWS[0], "p2,Two,BBB,200,5\x1c,8", _ROWS[2]]) + "\n",
    "vertical_tab": "\n".join([HEADER, _ROWS[0], "p2,Two,BBB,200,1\x0b,8", _ROWS[2]]) + "\n",
    "next_line": "\n".join([HEADER, _ROWS[0], "p2,Two,BBB,200,1\x85,8", _ROWS[2]]) + "\n",
    "next_line_in_label": "\n".join([HEADER, _ROWS[0], "p2,Tw\x85o ,BBB,200,7,8", _ROWS[2]]) + "\n",
    "inner_space": "\n".join([HEADER, _ROWS[0], "p2,Two,BBB,200,a b,8", _ROWS[2]]) + "\n",
    "nul_in_number": "\n".join([HEADER, _ROWS[0], "p2,Two,BBB,200,7\x00,8", _ROWS[2]]) + "\n",
    "nul_in_id": "\n".join([HEADER, _ROWS[0], "p2\x00,Two,BBB,200,7,8", _ROWS[2]]) + "\n",
}

SINGLE_COLUMN_EDGES = {
    "one_column_blank_line": "x\n1\n\n3\n",
    "one_column_blank_crlf_line": "x\r\n1\r\n\r\n3\r\n",
    "one_column_blank_line_end": "x\n1\n3\n\n",
    "one_column_whitespace_line": "x\n1\n \n3\n",
    "one_column_lone_cr": "x\n1\r2\n3\n",
    "one_column_lone_cr_at_end": "x\n1\n2\r",
}


class TestGuardEdges:
    @pytest.mark.parametrize("text", ["", "\r\n", HEADER, HEADER + "\r\n"])
    def test_no_data_rows_is_empty(self, tmp_path, text):
        path = tmp_path / "objects.csv"
        path.write_bytes(text.encode("utf-8"))
        for load, arg in ((load_objects_and_rosters, OBJECT_MANIFEST), (load_column, "FG")):
            with pytest.raises(EmptyFile):
                load(path, arg)

    @pytest.mark.parametrize("text", GUARD_EDGES.values(), ids=GUARD_EDGES.keys())
    def test_objects_and_rosters(self, tmp_path, text):
        path = tmp_path / "objects.csv"
        path.write_bytes(text.encode("utf-8"))
        got_kind, got = _outcome(load_objects_and_rosters, path, OBJECT_MANIFEST)
        want_kind, want = _outcome(_reference_objects, path, OBJECT_MANIFEST)
        assert got_kind == want_kind
        if want_kind == "error":
            assert got == want
            return
        (space, rosters), (ref_space, ref_rosters) = got, want
        assert space.ids.tolist() == ref_space.ids.tolist()
        assert space.labels.tolist() == ref_space.labels.tolist()
        assert space.lambdas.tobytes() == ref_space.lambdas.tobytes()
        assert space.attrs.tobytes() == ref_space.attrs.tobytes()
        assert rosters == ref_rosters

    @pytest.mark.parametrize(
        "text, column",
        [
            *((text, "FG") for text in GUARD_EDGES.values()),
            # one column: no comma count tells a blank or split line apart
            *((text, "x") for text in SINGLE_COLUMN_EDGES.values()),
        ],
        ids=[*GUARD_EDGES, *SINGLE_COLUMN_EDGES],
    )
    def test_column(self, tmp_path, text, column):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        got_kind, got = _outcome(load_column, path, column)
        want_kind, want = _outcome(_reference_column, path, column)
        assert got_kind == want_kind
        assert got.tobytes() == want.tobytes() if want_kind == "ok" else got == want


class TestGenSynthetic:
    def test_same_seed_same_bytes(self):
        params = {"FG": NbParams(1.44, 0.008)}
        a = gen_synthetic(params, count=500, seed=4)
        b = gen_synthetic(params, count=500, seed=4)
        assert np.array_equal(a.attrs, b.attrs)
        assert np.array_equal(a.lambdas, b.lambdas)
        assert list(a.ids) == list(b.ids)

    def test_attrs_are_fortran_ordered_columns_drawn_in_order(self):
        params = {"a0": NbParams(1.44, 0.008), "a1": NbParams(0.93, 0.0092), "a2": NbParams(1.7, 0.045)}
        space = gen_synthetic(params, count=1000, seed=11)
        children = np.random.SeedSequence(11).spawn(len(params) + 1)
        drawn = np.column_stack(
            [sample_negative_binomial(p, 1000, np.random.default_rng(child)) for p, child in zip(params.values(), children)]
        )
        assert space.attrs.flags.f_contiguous
        assert space.attrs.tobytes() == drawn.tobytes()

    def test_different_seed_differs(self):
        params = {"FG": NbParams(1.44, 0.008)}
        a = gen_synthetic(params, count=500, seed=4)
        b = gen_synthetic(params, count=500, seed=5)
        assert not np.array_equal(a.attrs, b.attrs)

    def test_single_record(self):
        space = gen_synthetic({"a0": NbParams(1.0, 0.1)}, count=1, seed=0)
        assert len(space) == 1
        assert np.isfinite(space.attrs).all()
        assert space.attrs[0, 0] >= 0.0
        assert float(space.attrs[0, 0]).is_integer()

    @pytest.mark.parametrize(
        "prefix, count",
        [("o", 1), ("o", 10), ("o", 1_070_000), ("", 5), ("ä-", 1234), ("player", 99)],
    )
    def test_ids_equal_char_mod_formatting(self, prefix, count):
        width = max(7, len(str(count - 1)))
        got = _numbered_ids(prefix, count, width)
        want = np.char.mod(f"{prefix}%0{width}d", np.arange(count))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_lambda_range_respected(self):
        space = gen_synthetic({"a0": NbParams(1.0, 0.1)}, count=300, seed=1, lambda_range=(2.0, 3.0))
        assert space.lambdas.min() >= 2.0
        assert space.lambdas.max() <= 3.0

    def test_sample_mean_tracks_analytic_mean(self):
        params = NbParams(1.44, 0.008)
        rng = np.random.default_rng(12)
        samples = sample_negative_binomial(params, 100_000, rng)
        assert samples.mean() == pytest.approx(nb_mean(params), rel=0.03)
        assert samples.var() == pytest.approx(nb_variance(params), rel=0.06)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            NbParams(0.0, 0.5)
        with pytest.raises(InvalidParams):
            NbParams(1.0, 1.0)
        with pytest.raises(InvalidArgument):
            gen_synthetic({"a0": NbParams(1.0, 0.5)}, count=0, seed=1)
        with pytest.raises(InvalidParams):
            gen_synthetic({"a0": NbParams(1.0, 0.5)}, count=3, seed=1, lambda_range=(0.0, 5.0))


class TestChiSquare:
    def test_hand_binned_statistic(self):
        # (30-25)^2/25 + 0 + (20-25)^2/25 = 2
        assert chi_square_statistic([30, 50, 20], [25, 50, 25]) == pytest.approx(2.0, abs=1e-12)

    def test_true_distribution_is_accepted(self):
        rng = np.random.default_rng(77)
        samples = sample_negative_binomial(NbParams(1.7, 0.045), 3000, rng)
        result = chi_square_gof(samples, 1.7, 0.045, 0.05)
        assert result.accepted
        assert result.dof == result.n_bins - 1

    def test_constant_samples_rejected(self):
        samples = np.full(500, 5.0)
        result = chi_square_gof(samples, 1.44, 0.008, 0.05)
        assert not result.accepted

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientData):
            chi_square_gof(np.ones(10), 1.0, 0.1)

    def test_degenerate_binning(self):
        samples = np.zeros(60)
        with pytest.raises(DegenerateBinning):
            chi_square_gof(samples, 1.0, 0.999)

    def test_alpha_domain(self):
        samples = np.zeros(60)
        with pytest.raises(InvalidArgument):
            chi_square_gof(samples, 1.0, 0.5, alpha=1.5)
