import csv
import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import teamrank
from teamrank import core, dataio, snapshot
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

    with open(players, newline="") as fh:
        rows = list(csv.DictReader(fh))
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


def index_files(directory):
    """The ``.idx`` files in ``directory``, after checking it holds exactly one ``.space`` snapshot besides."""
    names = sorted(p.name for p in Path(directory).iterdir())
    assert len([n for n in names if n.endswith(".space")]) == 1
    idx = [n for n in names if n.endswith(".idx")]
    assert len(idx) + 1 == len(names)
    return idx


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
        assert index_files(idx) == payload["files"]
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
        assert index_files(idx) == built["files"]
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

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"block_size": 10}, 'bench config needs a "dataset" entry'),
            ({"dataset": {"kind": "synthetic"}, "methods": []}, "methods must name bf or rtcstar, got []"),
        ],
    )
    def test_bad_bench_config_exits_2(self, capsys, tmp_path, config, message):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        code, out, err = run(["bench", "--config", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dataset": {"kind": "synthetic"}, "methods": ["bf", "rtc-star"]},
             "methods must name bf or rtcstar, got ['bf', 'rtc-star']"),
            ({"dataset": {"kind": "synthetic"}, "target_mode": "nearest"}, "unknown target mode 'nearest'"),
        ],
    )
    def test_unknown_method_or_target_mode_exits_2_before_loading(self, capsys, tmp_path, monkeypatch, config, message):
        from teamrank import bench

        monkeypatch.setattr(bench, "_load_dataset", lambda config: pytest.fail("the dataset was loaded"))
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        code, out, err = run(["bench", "--config", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("team_ids", [["BBB"], ["BBB", "NOPE"]])
    def test_bench_on_the_league_files_looks_teams_up_as_rank_does(self, league, capsys, tmp_path, team_ids):
        # a team with no roster rows is a data error in bench, as in rank --team
        config = tmp_path / "bench.json"
        config.write_text(json.dumps({
            "dataset": {"kind": "csv", **{key: league[key] for key in
                                          ("players", "players_manifest", "teams", "teams_manifest")}},
            "block_size": 3, "top_k": 2, "team_ids": team_ids,
            "elite_count": 2, "timing_repeats": 1, "timing_warmup": 0,
        }))
        code, out, err = run(["bench", "--config", str(config)], capsys)
        rank_code, _, rank_err = run(["rank", "--method", "bf", *real_flags(league), "--team", team_ids[-1]], capsys)
        assert (code, rank_code) == ((0, 0) if team_ids == ["BBB"] else (2, 2))
        if code == 0:
            assert [row["team_id"] for row in json.loads(out)["rows"]] == ["BBB"]
        else:
            assert out == "" and err == rank_err == f"error: team 'NOPE' has no roster rows in {league['players']}\n"

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

    def test_commands_take_the_full_pass_and_build_no_leaves(self, league, capsys, tmp_path, monkeypatch):
        # a command answers one configuration, so a leaf build would cost more than it saves
        monkeypatch.setattr(core, "leaf_partition", lambda *args: pytest.fail("a command built the leaves"))
        idx = str(tmp_path / "idx")
        code, _, _ = run(["index", "build", *real_flags(league), "--team", "BBB", "--index-dir", idx], capsys)
        assert code == 0
        rank = ["rank", *real_flags(league), "--team", "BBB", "--top-k", "4"]
        code, cold, _ = run([*rank, "--method", "rtcstar", "--index-dir", idx], capsys)
        code_bf, bf, _ = run([*rank, "--method", "bf"], capsys)
        assert code == code_bf == 0
        assert json.loads(cold)["recommendations"] == json.loads(bf)["recommendations"]

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

    @pytest.mark.parametrize("ordinal", [12, 2**64 - 2])
    def test_index_entry_naming_no_row_is_data_error(self, league, capsys, tmp_path, ordinal):
        idx = tmp_path / "idx"
        flags = [*real_flags(league), "--team", "BBB", "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)]
        code, out, _ = run(["index", "build", *flags], capsys)
        assert code == 0
        partition = idx / json.loads(out)["files"][0]
        raw = bytearray(partition.read_bytes())
        # the 12-row league has no row 12; the first member's first entry names it
        raw[HEADER.size + 8 : HEADER.size + 16] = ordinal.to_bytes(8, "little")
        partition.write_bytes(bytes(raw))
        code, out, err = run(["rank", "--method", "rtcstar", *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("version", [3, 4])
    def test_earlier_version_index_is_rebuilt(self, league, capsys, tmp_path, version):
        # version 3 runs were keyed by the paper's masked rate key, version 4 held all n entries
        idx = tmp_path / "idx"
        build = ["index", "build", *real_flags(league), "--team", "BBB",
                 "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)]
        rank = ["rank", "--method", "rtcstar", *real_flags(league), "--team", "BBB",
                "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)]
        code, out, _ = run(build, capsys)
        assert code == 0
        path = idx / json.loads(out)["files"][0]
        current = path.read_bytes()
        path.write_bytes(current[:8] + version.to_bytes(2, "little") + current[10:])
        code, out, err = run(rank, capsys)
        assert (code, err) == (0, "")
        # rebuilt in place, as the same command builds it
        assert path.read_bytes() == current
        rtc = json.loads(out)["recommendations"]
        code, out, _ = run(["rank", "--method", "bf", *real_flags(league), "--team", "BBB",
                            "--top-k", "2"], capsys)
        assert json.loads(out)["recommendations"] == rtc

    @pytest.mark.parametrize("version", [6, 0xFFFF])
    def test_later_version_index_is_data_error(self, league, capsys, tmp_path, version):
        idx = tmp_path / "idx"
        code, out, _ = run(["index", "build", *real_flags(league), "--team", "BBB",
                            "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert code == 0
        path = idx / json.loads(out)["files"][0]
        current = path.read_bytes()
        path.write_bytes(current[:8] + version.to_bytes(2, "little") + current[10:])
        code, out, err = run(["rank", "--method", "rtcstar", *real_flags(league), "--team", "BBB",
                              "--top-k", "2", "--block-size", "3", "--index-dir", str(idx)], capsys)
        assert (code, out) == (2, "")
        assert "bad magic or version" in err

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

    @pytest.mark.parametrize("manifest", [{"id_column": "id", "lambda_column": "MP"}, ["FG", "AST"]])
    def test_malformed_manifest_is_data_error(self, league, capsys, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code, out, err = run(["ingest", "--objects", league["players"], "--manifest", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == 'error: manifest must be a JSON object with an "attributes" list and an "id_column"\n'

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"dataset": {"kind": "synthetic", "n": 50, "params": {"FG": {"r": 1.44, "p": 0.008}}}, "block_size": "10"},
             "bench config's 'block_size' cannot be '10'"),
            ({"dataset": {"kind": "synthetic", "n": 50}}, "a synthetic dataset needs the entries ['params']"),
            ({"dataset": {"kind": "synthetic"}, "methods": [["bf"]]}, "methods must name bf or rtcstar, got [['bf']]"),
            ({"dataset": {"kind": "csv", "players": "p.csv"}},
             "a csv dataset needs the entries ['players_manifest', 'teams', 'teams_manifest']"),
            ({"dataset": {"kind": "synthetic", "n": 50, "params": {"FG": {"r": 1.44}}}},
             'parameters must map each attribute to {"r": <number>, "p": <number>}'),
            ({"dataset": {"kind": "synthetic", "n": 50, "params": {"FG": {"r": 1.44, "p": 0.008}}, "lambda_range": 5}},
             "a synthetic dataset's lambda_range must be two numbers, got 5"),
            ({"dataset": {"kind": "synthetic", "n": [50], "params": {"FG": {"r": 1.44, "p": 0.008}}}},
             "a synthetic dataset's n and seed must be integers, got [50] and 0"),
        ],
    )
    def test_malformed_bench_config_is_data_error(self, capsys, tmp_path, config, message):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        code, out, err = run(["bench", "--config", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("params", [[1.44, 0.008], {"FG": {"r": "1.44", "p": 0.008}}])
    def test_malformed_gen_params_are_data_error(self, capsys, tmp_path, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        argv = ["gen", "--params", str(path), "--count", "10", "--seed", "1", "--out-csv", str(tmp_path / "a.csv")]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == 'error: parameters must map each attribute to {"r": <number>, "p": <number>}\n'
        assert not (tmp_path / "a.csv").exists()

    def test_module_run_prints_the_payload(self, league, capsys):
        # python -m teamrank.cli from a checkout with no install: the payload cli_main prints
        argv = ["ingest", "--objects", league["players"], "--manifest", league["players_manifest"]]
        code, out, _ = run(argv, capsys)
        env = {**os.environ, "PYTHONPATH": str(Path(teamrank.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "teamrank.cli", *argv], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, "")
        assert json.loads(done.stdout)["rows"] == 12


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


def snapshots(directory):
    return sorted(Path(directory).glob("*.space"))


@pytest.fixture()
def parses(monkeypatch):
    """One entry per parse of an objects file by ``load_objects_and_rosters``."""
    seen = []
    real = dataio._objects_from

    def counting(table, *args, **kwargs):
        seen.append(str(table.path))
        return real(table, *args, **kwargs)

    monkeypatch.setattr(dataio, "_objects_from", counting)
    return seen


class TestSpaceSnapshot:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--method", "bf", "--team", "AAA", "--top-k", "4"],
            ["rank", "--method", "rtcstar", "--team", "AAA", "--top-k", "4"],
            ["index", "build", "--team", "BBB", "--block-size", "3"],
        ],
        ids=["rank-bf", "rank-rtcstar", "index-build"],
    )
    def test_hit_miss_and_no_snapshot_payloads_are_identical(self, league, capsys, tmp_path, parses, argv):
        idx = tmp_path / "idx"
        argv = [*argv, *real_flags(league), "--index-dir", str(idx)]
        code, miss, _ = run(argv, capsys)
        assert code == 0 and len(parses) == 1
        assert len(snapshots(idx)) == 1
        code, hit, _ = run(argv, capsys)
        assert code == 0 and len(parses) == 1
        assert hit == miss
        if argv[0] == "rank":
            # the same command without a directory parses and keeps nothing
            plain = argv[: argv.index("--index-dir")]
            code, out, _ = run(plain, capsys)
            assert code == 0 and len(parses) == 2
            assert out == miss.replace(json.dumps(str(idx)), "null")

    def test_one_byte_edit_misses(self, league, capsys, tmp_path, parses):
        idx = tmp_path / "idx"
        argv = ["rank", "--method", "bf", "--team", "AAA", *real_flags(league), "--index-dir", str(idx)]
        assert run(argv, capsys)[0] == 0
        players = Path(league["players"])
        raw = players.read_bytes()
        # one digit of p000's MP cell
        at = raw.index(b"p000,Player 0,AAA,") + len(b"p000,Player 0,AAA,")
        players.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1 :])
        code, out, _ = run(argv, capsys)
        assert code == 0 and len(parses) == 2
        assert len(snapshots(idx)) == 2
        code, plain, _ = run(argv[: argv.index("--index-dir")], capsys)
        assert out == plain.replace("\"index_dir\": null", f"\"index_dir\": {json.dumps(str(idx))}")

    def test_another_manifest_gets_another_key(self, league, tmp_path, parses):
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        unlabelled = dataio.DatasetManifest.from_dict({**manifest.to_dict(), "label_column": None})
        for m in (manifest, unlabelled, manifest, unlabelled):
            space, _ = dataio.load_objects_and_rosters(league["players"], m, idx)
            assert space.labels[4] == ("Player 4" if m is manifest else "p004")
        assert len(parses) == 2
        assert len(snapshots(idx)) == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: len(raw) // 2],
            lambda raw: raw[:40],
            lambda raw: b"",
            lambda raw: bytes(len(raw)),
            lambda raw: np.random.default_rng(3).integers(0, 256, len(raw), dtype=np.uint8).tobytes(),
            lambda raw: raw[:8] + (snapshot.VERSION + 1).to_bytes(2, "little") + raw[10:],
            lambda raw: raw[:40] + bytes([raw[40] ^ 0xFF]) + raw[41:],
            lambda raw: raw[:50] + bytes([raw[50] ^ 1]) + raw[51:],
            lambda raw: raw[:70] + bytes([raw[70] ^ 1]) + raw[71:],
            lambda raw: raw[:-5] + bytes([raw[-5] ^ 1]) + raw[-4:],
            lambda raw: raw + b"\0",
        ],
        ids=["truncated", "short-header", "empty", "zeros", "garbage", "other-version", "other-width",
             "other-key", "flipped-digest-byte", "flipped-body-byte", "longer"],
    )
    def test_unusable_snapshot_is_rewritten(self, league, tmp_path, parses, damage):
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        space, rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        (path,) = snapshots(idx)
        good = path.read_bytes()
        path.write_bytes(damage(good))
        again, again_rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        assert len(parses) == 2
        assert path.read_bytes() == good
        assert again.ids.tolist() == space.ids.tolist() and again.attrs.tobytes() == space.attrs.tobytes()
        assert again_rosters == rosters
        dataio.load_objects_and_rosters(league["players"], manifest, idx)
        assert len(parses) == 2

    def test_row_major_version_1_snapshot_is_rewritten(self, league, tmp_path, parses):
        # version 1 stored the attributes n x d; a file that is otherwise valid
        # under the current key, with the same body size, differs only there
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        space, rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        (path,) = snapshots(idx)
        good = path.read_bytes()
        attrs_end = snapshot.HEADER.size + space.attrs.nbytes
        header = bytearray(good[: snapshot.HEADER.size])
        struct.pack_into("<H", header, 8, 1)
        body = np.ascontiguousarray(space.attrs).tobytes() + good[attrs_end:]
        assert body != good[snapshot.HEADER.size :]
        struct.pack_into("<I", header, snapshot.CRC_END - 4, zlib.crc32(body, zlib.crc32(header[snapshot.CRC_END :])))
        path.write_bytes(bytes(header) + body)
        again, again_rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        assert len(parses) == 2
        assert path.read_bytes() == good
        assert again.attrs.tobytes() == space.attrs.tobytes() and again_rosters == rosters

    def test_snapshot_under_another_key_is_not_served(self, league, tmp_path, parses):
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        dataio.load_objects_and_rosters(league["players"], manifest, idx)
        (old,) = snapshots(idx)
        players = Path(league["players"])
        players.write_bytes(players.read_bytes().replace(b"Player 0,", b"Player O,", 1))
        dataio.load_objects_and_rosters(league["players"], manifest, idx)
        (new,) = set(snapshots(idx)) - {old}
        new.write_bytes(old.read_bytes())
        space, _ = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        assert space.labels[0] == "Player O"
        assert len(parses) == 3

    def test_a_lower_cell_limit_is_another_key(self, league, tmp_path):
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        dataio.load_objects_and_rosters(league["players"], manifest, idx)
        limit = csv.field_size_limit(5)
        try:
            with pytest.raises(dataio.MalformedRow, match="field larger than field limit"):
                dataio.load_objects_and_rosters(league["players"], manifest, idx)
        finally:
            csv.field_size_limit(limit)

    def test_hit_returns_what_the_parse_returned(self, league, tmp_path):
        # rows out of id order, so the stored id order is not the identity
        players = Path(league["players"])
        header, *rows = players.read_text().splitlines()
        players.write_text("\n".join([header, *rows[::-1]]) + "\n")
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        parsed, parsed_rosters = dataio.load_objects_and_rosters(league["players"], manifest)
        dataio.load_objects_and_rosters(league["players"], manifest, idx)
        space, rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
        for name in ("ids", "labels", "lambdas", "attrs"):
            got, want = getattr(space, name), getattr(parsed, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert space.id_order().tolist() == parsed.id_order().tolist() != list(range(len(space)))
        assert space.attribute_names == parsed.attribute_names
        assert space.digest() == parsed.digest()
        assert rosters == parsed_rosters
        assert list(rosters) == list(parsed_rosters) == ["CCC", "BBB", "AAA"]

    @pytest.mark.parametrize("command", ["rank", "index-build"])
    def test_malformed_csv_keeps_its_error_and_gets_no_snapshot(self, league, capsys, tmp_path, command):
        players = Path(league["players"])
        edited = players.read_bytes().replace(b"Player 1,AAA,", b"Player 1,AAA,x", 1)
        assert edited != players.read_bytes()
        players.write_bytes(edited)
        idx = tmp_path / "idx"
        argv = (["rank", "--method", "bf"] if command == "rank" else ["index", "build"])
        argv = [*argv, *real_flags(league), "--team", "AAA", "--index-dir", str(idx)]
        for _ in range(2):
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: row 2: column 'MP': cannot parse 'x")
            assert not idx.exists() or list(idx.iterdir()) == []

    def test_file_with_a_nul_byte_gets_no_snapshot(self, league, capsys, tmp_path, parses):
        # a <U array would drop the trailing NUL the parse keeps in the roster id
        players = Path(league["players"])
        players.write_bytes(players.read_bytes().replace(b"p011,", b"p011\x00,", 1))
        idx = tmp_path / "idx"
        manifest = dataio.load_manifest(league["players_manifest"])
        for _ in range(2):
            _, rosters = dataio.load_objects_and_rosters(league["players"], manifest, idx)
            assert rosters["CCC"][-1] == "p011\x00"
        assert len(parses) == 2
        assert not idx.exists() or list(idx.iterdir()) == []

    def test_unwritable_directory_only_skips_the_snapshot(self, league, capsys, tmp_path):
        blocked = tmp_path / "not-a-directory"
        blocked.write_text("")
        argv = ["rank", "--method", "bf", "--team", "AAA", *real_flags(league)]
        code, out, err = run([*argv, "--index-dir", str(blocked)], capsys)
        assert (code, err) == (0, "")
        assert out == run(argv, capsys)[1].replace("\"index_dir\": null", f"\"index_dir\": {json.dumps(str(blocked))}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--method", "bf", "--team", "AAA"],
            ["rank", "--method", "rtcstar", "--team", "AAA"],
            ["index", "build", "--team", "BBB"],
        ],
        ids=["rank-bf", "rank-rtcstar", "index-build"],
    )
    def test_a_hit_reads_each_file_once(self, league, capsys, tmp_path, reads, argv):
        argv = [*argv, *real_flags(league), "--index-dir", str(tmp_path / "idx")]
        for _ in range(2):
            reads.clear()
            assert run(argv, capsys)[0] == 0
            assert reads.count(league["players"]) == 1
            assert reads.count(league["teams"]) == 1
