import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from teamrank import dataio
from teamrank.bench import ExperimentConfig, run_experiment
from teamrank.cli import cli_main
from teamrank.nnindex import HEADER


@pytest.fixture()
def league(tmp_path):
    """Small three-team league in the documented CSV contract."""
    return write_league(tmp_path)


def write_league(tmp_path, per_team=4):
    """Three teams of ``per_team`` players each, written as CSV files and manifests."""
    rng = np.random.default_rng(5)
    attrs = ["FG", "AST", "TRB"]

    players = tmp_path / "players.csv"
    with open(players, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "name", "Tm", "MP", *attrs])
        pid = 0
        for tm in ["AAA", "BBB", "CCC"]:
            for _ in range(per_team):
                writer.writerow(
                    [f"p{pid:03d}", f"Player {pid}", tm, int(rng.integers(500, 3000)),
                     *map(int, rng.integers(20, 600, size=3))]
                )
                pid += 1

    rows = list(csv.DictReader(open(players)))
    teams = tmp_path / "teams.csv"
    with open(teams, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Team", "W", *attrs])
        for tm, wins in [("AAA", 50), ("BBB", 38), ("CCC", 61)]:
            members = [r for r in rows if r["Tm"] == tm]
            writer.writerow([tm, wins, *[sum(float(r[a]) for r in members) for a in attrs]])

    pm = tmp_path / "players_manifest.json"
    pm.write_text(json.dumps({
        "attributes": attrs, "id_column": "id", "label_column": "name",
        "lambda_column": "MP", "team_column": "Tm",
    }))
    tm_path = tmp_path / "teams_manifest.json"
    tm_path.write_text(json.dumps({"attributes": attrs, "id_column": "Team", "wins_column": "W"}))
    return {
        "players": str(players), "teams": str(teams),
        "players_manifest": str(pm), "teams_manifest": str(tm_path),
        "dir": tmp_path,
    }


def run(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def real_flags(league):
    return [
        "--objects", league["players"], "--manifest", league["players_manifest"],
        "--teams", league["teams"], "--teams-manifest", league["teams_manifest"],
        "--elite-count", "2",
    ]


class TestSubcommands:
    def test_ingest(self, league, capsys):
        code, out, _ = run(["ingest", "--objects", league["players"], "--manifest", league["players_manifest"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == 12
        assert payload["dimension"] == 3
        assert payload["config"]["command"] == "ingest"

    def test_weights(self, league, capsys):
        code, out, _ = run(["weights", "--teams", league["teams"], "--teams-manifest", league["teams_manifest"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["weights"]) == {"FG", "AST", "TRB"}
        assert all(v > 0 for v in payload["weights"].values())

    def test_target_excludes_self(self, league, capsys):
        code, out, _ = run(["target", *real_flags(league), "--team", "AAA"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["selections"][0]["team"] == "AAA"
        assert payload["selections"][0]["target"] != "AAA"
        assert payload["rule"] == "weighted-truncated-distance-argmin"

    def test_rank_methods_agree_byte_for_byte(self, league, capsys, tmp_path):
        bf_path = tmp_path / "bf.json"
        rtc_path = tmp_path / "rtc.json"
        code, _, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "AAA",
                          "--top-k", "3", "--out", str(bf_path)], capsys)
        assert code == 0
        code, _, _ = run(["rank", "--method", "rtcstar", *real_flags(league), "--team", "AAA",
                          "--top-k", "3", "--index-dir", str(tmp_path / "idx"),
                          "--out", str(rtc_path)], capsys)
        assert code == 0
        bf = json.loads(bf_path.read_text())
        rtc = json.loads(rtc_path.read_text())
        assert bf["recommendations"] == rtc["recommendations"]
        assert bf["distance_before"] == rtc["distance_before"]

    def test_index_build_writes_files(self, league, capsys, tmp_path):
        idx = tmp_path / "idx"
        code, out, _ = run(["index", "build", *real_flags(league), "--team", "BBB",
                            "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 0
        payload = json.loads(out)
        for name in payload["files"]:
            assert (idx / name).exists()
        assert len(payload["files"]) == 1
        assert sorted(p.name for p in idx.iterdir()) == payload["files"]
        assert payload["blocks_written"] == len(payload["members"]) * payload["data_blocks_per_partition"]

    def test_rank_reuses_a_prebuilt_index(self, league, capsys, tmp_path):
        idx = tmp_path / "idx"
        code, out, _ = run(["index", "build", *real_flags(league), "--team", "BBB",
                            "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 0
        files_before = sorted(p.name for p in idx.iterdir())
        code, out, _ = run(["rank", "--method", "rtcstar", *real_flags(league), "--team", "BBB",
                            "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 0
        assert sorted(p.name for p in idx.iterdir()) == files_before
        rtc = json.loads(out)
        code, out, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "BBB",
                            "--top-k", "2"], capsys)
        assert code == 0
        assert json.loads(out)["recommendations"] == rtc["recommendations"]

    def test_short_index_is_rebuilt_for_a_longer_top_k(self, capsys, tmp_path):
        league = write_league(tmp_path, per_team=15)
        idx = tmp_path / "idx"
        flags = [*real_flags(league), "--team", "BBB", "--block-size", "3", "--index-dir", str(idx)]

        def run_length(path):
            return HEADER.unpack(path.read_bytes()[: HEADER.size])[5]

        code, out, _ = run(["index", "build", *flags, "--top-k", "5"], capsys)
        assert code == 0
        built = json.loads(out)
        path = idx / built["files"][0]
        assert built["config"]["top_k"] == 5
        assert built["data_blocks_per_partition"] == 2
        assert run_length(path) == 6
        code, out, _ = run(["rank", "--method", "rtcstar", *flags, "--top-k", "30"], capsys)
        assert code == 0
        rtc = json.loads(out)["recommendations"]
        assert run_length(path) >= 30
        assert sorted(p.name for p in idx.iterdir()) == built["files"]
        code, out, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "BBB",
                            "--top-k", "30"], capsys)
        assert code == 0
        assert json.loads(out)["recommendations"] == rtc
        assert len(rtc) == 30
        # a run long enough for the query is reused as it is
        rebuilt = path.read_bytes()
        code, out, _ = run(["rank", "--method", "rtcstar", *flags, "--top-k", "7"], capsys)
        assert code == 0
        assert path.read_bytes() == rebuilt

    def test_gen_is_reproducible(self, league, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"FG": {"r": 1.44, "p": 0.008}, "STL": {"r": 1.7, "p": 0.045}}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(["gen", "--params", str(params), "--count", "200", "--seed", "7",
                              "--out-csv", str(out)], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gof_on_generated_column(self, league, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"FG": {"r": 1.44, "p": 0.008}}))
        data = tmp_path / "data.csv"
        code, _, _ = run(["gen", "--params", str(params), "--count", "3000", "--seed", "11",
                          "--out-csv", str(data)], capsys)
        assert code == 0
        code, out, _ = run(["gof", "--csv", str(data), "--column", "FG",
                            "--r", "1.44", "--p", "0.008"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["accepted"] is True
        assert payload["dof"] == payload["n_bins"] - 1

    def test_bench_subcommand(self, league, capsys, tmp_path):
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "synthetic", "n": 120,
                        "params": {"FG": {"r": 1.44, "p": 0.008}, "STL": {"r": 1.7, "p": 0.045}},
                        "seed": 2},
            "block_size": 10, "top_k": 4, "seed": 3, "team_size": 3, "n_teams": 1,
            "timing_repeats": 2, "timing_warmup": 1,
        }))
        code, out, _ = run(["bench", "--config", str(config)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["methods_agree"] is True

    def test_repeated_invocations_are_byte_identical(self, league, capsys, tmp_path):
        outputs = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            code, _, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "CCC",
                              "--top-k", "4", "--out", str(path)], capsys)
            assert code == 0
            raw = path.read_bytes()
            # the config echo contains the output path, which differs by design
            outputs.append(raw.replace(name.encode(), b"OUT"))
        assert outputs[0] == outputs[1]

    def test_pretty_renders_text(self, league, capsys):
        code, out, _ = run(["weights", "--teams", league["teams"],
                            "--teams-manifest", league["teams_manifest"], "--pretty"], capsys)
        assert code == 0
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert "weights" in out


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(["rank", "--frobnicate"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    @pytest.mark.parametrize("flag", ["--block-size", "--top-k", "--elite-count"])
    @pytest.mark.parametrize("value", ["0", "-1", "-2"])
    def test_non_positive_integer_is_usage_error(self, league, capsys, tmp_path, flag, value):
        argv = ["rank", "--method", "rtcstar", *real_flags(league), "--team", "AAA",
                "--index-dir", str(tmp_path / "idx"), flag, value]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "usage" in err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(["transmogrify"], capsys)
        assert code == 1

    def test_missing_file_is_data_error(self, league, capsys):
        code, _, err = run(["ingest", "--objects", "no-such.csv",
                            "--manifest", league["players_manifest"]], capsys)
        assert code == 2
        assert "error" in err.lower()

    def test_malformed_csv_is_data_error(self, league, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,name,Tm,MP,FG,AST,TRB\np1,One,AAA,-3,1,2,3\n")
        code, _, _ = run(["ingest", "--objects", str(bad), "--manifest", league["players_manifest"]], capsys)
        assert code == 2

    def test_gof_short_row_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("a,b\n1,2\n3\n")
        code, out, err = run(["gof", "--csv", str(data), "--column", "b", "--r", "1.0", "--p", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "row 2: expected 2 fields, got 1" in err

    def test_gof_bad_float_names_its_row(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b\n1,2\n3,x\n")
        code, out, err = run(["gof", "--csv", str(data), "--column", "b", "--r", "1.0", "--p", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "row 2: column 'b': cannot parse 'x' as a number" in err

    def test_truncated_index_partition_is_data_error(self, league, capsys, tmp_path):
        idx = tmp_path / "idx"
        code, out, _ = run(["index", "build", *real_flags(league), "--team", "BBB",
                            "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 0
        partition = idx / json.loads(out)["files"][0]
        partition.write_bytes(partition.read_bytes()[: HEADER.size + 2 * 16])
        code, out, err = run(["rank", "--method", "rtcstar", *real_flags(league), "--team", "BBB",
                              "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 2
        assert out == ""
        assert "error" in err.lower()

    def test_version_3_index_is_data_error_until_rebuilt(self, league, capsys, tmp_path):
        # version 3 runs were keyed by the paper's masked rate key, not by exact distance
        idx = tmp_path / "idx"
        build = ["index", "build", *real_flags(league), "--team", "BBB",
                 "--block-size", "3", "--index-dir", str(idx)]
        rank = ["rank", "--method", "rtcstar", *real_flags(league), "--team", "BBB",
                "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)]
        code, out, _ = run(build, capsys)
        assert code == 0
        path = idx / json.loads(out)["files"][0]
        current = path.read_bytes()
        path.write_bytes(current[:8] + (3).to_bytes(2, "little") + current[10:])
        code, out, err = run(rank, capsys)
        assert code == 2
        assert out == ""
        assert "error" in err.lower()
        assert run(build, capsys)[0] == 0
        assert path.read_bytes() == current
        code, out, _ = run(rank, capsys)
        assert code == 0
        rtc = json.loads(out)["recommendations"]
        code, out, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "BBB",
                            "--top-k", "2"], capsys)
        assert json.loads(out)["recommendations"] == rtc

    @pytest.mark.parametrize("command", ["gof", "ingest", "rank"])
    def test_cell_over_the_field_size_limit_is_data_error(self, league, capsys, tmp_path, command):
        limit = csv.field_size_limit()
        if command == "gof":
            data = tmp_path / "samples.csv"
            data.write_text("x\n1\n" + "9" * 200_000 + "\n3\n")
            argv = ["gof", "--csv", str(data), "--column", "x", "--r", "1.0", "--p", "0.5"]
            row = 2
        else:
            players = Path(league["players"])
            players.write_bytes(players.read_bytes().replace(b"Player 4,", b"x" * 200_000 + b",", 1))
            argv = (["ingest", "--objects", league["players"], "--manifest", league["players_manifest"]]
                    if command == "ingest" else ["rank", "--method", "bf", *real_flags(league), "--team", "AAA"])
            row = 5
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: row {row}: field larger than field limit ({limit})\n"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0


@pytest.fixture()
def reads(monkeypatch):
    """Paths passed to ``dataio._read_bytes``, one entry per read."""
    seen = []
    real = dataio._read_bytes

    def counting(path):
        seen.append(str(path))
        return real(path)

    monkeypatch.setattr(dataio, "_read_bytes", counting)
    return seen


class TestOneReadPerFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--method", "bf", "--team", "AAA"],
            ["rank", "--method", "rtcstar", "--team", "AAA", "--index-dir", "IDX"],
            ["target"],
            ["index", "build", "--team", "BBB", "--index-dir", "IDX"],
        ],
        ids=["rank-bf", "rank-rtcstar", "target", "index-build"],
    )
    def test_command_reads_the_objects_file_once(self, league, capsys, tmp_path, reads, argv):
        argv = [str(tmp_path / "idx") if a == "IDX" else a for a in argv]
        code, _, _ = run([*argv, *real_flags(league)], capsys)
        assert code == 0
        assert reads.count(league["players"]) == 1
        assert reads.count(league["teams"]) == 1

    @pytest.mark.parametrize(
        "edit, row_parses",
        [
            (None, 0),
            ((rb"Player 3,", b'"Player 3",'), 1),
            # 1_234 is a number to float but not to np.loadtxt
            ((rb"(p000,Player 0,AAA,)(\d)(\d+)", rb"\1\2_\3"), 1),
        ],
        ids=["column-wise", "quoted", "declined-cell"],
    )
    def test_each_parse_path_reads_the_objects_file_once(self, league, capsys, reads, monkeypatch, edit, row_parses):
        players = Path(league["players"])
        argv = ["rank", "--method", "bf", *real_flags(league), "--team", "AAA"]
        code, plain, _ = run(argv, capsys)
        assert code == 0
        if edit is not None:
            edited, count = re.subn(*edit, players.read_bytes(), count=1)
            assert count == 1
            players.write_bytes(edited)
        parses = []
        real = dataio._csv_rows
        monkeypatch.setattr(dataio, "_csv_rows", lambda text: parses.append(text) or real(text))
        reads.clear()
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["recommendations"] == json.loads(plain)["recommendations"]
        assert reads.count(league["players"]) == 1
        assert reads.count(league["teams"]) == 1
        assert len(parses) == row_parses

    def test_run_experiment_reads_the_objects_file_once(self, league, reads):
        config = ExperimentConfig(
            dataset={"kind": "csv", "players": league["players"], "players_manifest": league["players_manifest"],
                     "teams": league["teams"], "teams_manifest": league["teams_manifest"]},
            block_size=3, top_k=2, team_ids=("AAA",), elite_count=2, timing_repeats=1, timing_warmup=0,
        )
        report = run_experiment(config)
        assert report.rows[0].methods_agree
        assert reads.count(league["players"]) == 1
        assert reads.count(league["teams"]) == 1
