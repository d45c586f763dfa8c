import csv
import json
import re
from pathlib import Path

import pytest

from conftest import pretend_cores
from teamrank.bench import (
    ExperimentConfig,
    ExperimentReport,
    TeamRow,
    emit_report,
    parse_report,
    run_experiment,
)

PARAMS = {
    "FG": {"r": 1.44, "p": 0.008},
    "STL": {"r": 1.7, "p": 0.045},
    "AST": {"r": 0.93, "p": 0.0092},
}


def mini_config(**overrides):
    base = dict(
        dataset={"kind": "synthetic", "n": 300, "params": PARAMS, "seed": 3},
        block_size=10,
        top_k=5,
        seed=9,
        team_size=4,
        n_teams=2,
        target_mode="dominant",
        target_margin=0.1,
        timing_repeats=3,
        timing_warmup=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def report():
    return run_experiment(mini_config())


class TestRunExperiment:
    def test_methods_agree_on_every_row(self, report):
        assert all(row.methods_agree for row in report.rows)

    def test_improvement_on_every_row(self, report):
        for row in report.rows:
            assert row.distance_after <= row.distance_before + 1e-9 * max(1.0, row.distance_before)

    def test_io_counting_contract(self, report):
        m, n, b, k = 4, 300, 10, 5
        for row in report.rows:
            assert row.io["bf"]["blocks_read"] == m * -(-n // b)
            assert row.io["rtcstar"]["blocks_read"] == m * -(-k // b)
            assert row.io["rtcstar"]["per_member_reads"] == [-(-k // b)] * m
            assert row.io["rtcstar"]["scan_depths"] == [k] * m
            assert row.io["rtcstar"]["fallback_members"] == []
        assert report.io["bf"]["blocks_read"] == 2 * m * -(-n // b)
        assert report.io["rtcstar"]["blocks_read"] == 2 * m

    def test_timing_fields_present(self, report):
        for row in report.rows:
            assert row.timing["bf"]["build_s"] == 0.0
            assert row.timing["bf"]["query_s"] > 0.0
            assert row.timing["rtcstar"]["build_s"] > 0.0
            assert row.timing["rtcstar"]["query_s"] > 0.0

    def test_config_echo_carries_flags(self, report):
        assert report.config["block_size"] == 10
        assert report.config["target_rule"] == "weighted-truncated-distance-argmin"

    def test_deterministic_apart_from_timing(self):
        a = run_experiment(mini_config())
        b = run_experiment(mini_config())
        for ra, rb in zip(a.rows, b.rows):
            assert ra.recommendations == rb.recommendations
            assert ra.io == rb.io
            assert (ra.distance_before, ra.distance_after) == (rb.distance_before, rb.distance_after)

    def test_elite_target_mode_still_exact(self):
        report = run_experiment(mini_config(target_mode="elite", elite_count=4, n_teams=2))
        assert all(row.methods_agree for row in report.rows)
        for row in report.rows:
            assert row.target_id.startswith("elite")

    def test_elite_scan_reads_part_of_each_run(self):
        # elite targets at n = 1e4, where strong dimensions occur: runs keyed
        # by exact distance give every member its k best swaps in its first
        # ceil(k / B) blocks, as in dominant mode
        m, n, b, k = 4, 10_000, 10, 5
        report = run_experiment(
            mini_config(dataset={"kind": "synthetic", "n": n, "params": PARAMS, "seed": 3},
                        target_mode="elite", elite_count=4, n_teams=4, timing_repeats=1)
        )
        for row in report.rows:
            io = row.io["rtcstar"]
            assert row.methods_agree
            assert io["fallback_members"] == []
            assert io["blocks_read"] == m * -(-k // b)
            assert io["per_member_reads"] == [-(-k // b)] * m
            assert io["scan_depths"] == [k] * m

    def test_single_method_configs(self):
        for methods in (("bf",), ("rtcstar",)):
            report = run_experiment(mini_config(methods=methods, n_teams=1))
            row = report.rows[0]
            assert set(row.io) == set(methods)
            assert row.methods_agree
            assert row.recommendations

    def test_zero_block_size_rejected(self):
        from teamrank.errors import InvalidArgument

        for methods in (("bf",), ("rtcstar",)):
            with pytest.raises(InvalidArgument):
                run_experiment(mini_config(methods=methods, block_size=0))

    def test_non_positive_elite_count_rejected(self):
        from teamrank.errors import InvalidArgument

        for elite_count in (0, -1, -2):
            with pytest.raises(InvalidArgument):
                run_experiment(mini_config(target_mode="elite", elite_count=elite_count))

    @pytest.mark.parametrize("methods", [(), ("nope",)])
    def test_config_without_a_known_method_rejected_before_loading(self, methods, monkeypatch):
        from teamrank import bench
        from teamrank.errors import InvalidArgument

        monkeypatch.setattr(bench, "_load_dataset", lambda config: pytest.fail("the dataset was loaded"))
        with pytest.raises(InvalidArgument, match="methods must name bf or rtcstar"):
            run_experiment(mini_config(methods=methods))

    @pytest.mark.parametrize("methods", [("bf", "rtc-star"), ("BF", "rtcstar"), ("bf", "rtcstar", "")])
    def test_an_unknown_method_beside_known_ones_rejected_before_loading(self, methods, monkeypatch):
        from teamrank import bench
        from teamrank.errors import InvalidArgument

        monkeypatch.setattr(bench, "_load_dataset", lambda config: pytest.fail("the dataset was loaded"))
        with pytest.raises(InvalidArgument, match=re.escape(f"methods must name bf or rtcstar, got {list(methods)}")):
            run_experiment(mini_config(methods=methods))

    @pytest.mark.parametrize("dataset", ["synthetic", "csv"])
    @pytest.mark.parametrize("target_mode", ["Elite", "nearest", ""])
    def test_unknown_target_mode_rejected_before_loading(self, dataset, target_mode, monkeypatch):
        from teamrank import bench
        from teamrank.errors import InvalidArgument

        monkeypatch.setattr(bench, "_load_dataset", lambda config: pytest.fail("the dataset was loaded"))
        config = mini_config(target_mode=target_mode)
        if dataset == "csv":
            # a csv league takes its targets from its elite teams, yet the mode is still checked
            config = mini_config(target_mode=target_mode, dataset={"kind": "csv"})
        with pytest.raises(InvalidArgument, match=f"unknown target mode {target_mode!r}"):
            run_experiment(config)

    @pytest.mark.parametrize("data", [{"methods": ["bf"]}, ["bf"]])
    def test_config_without_a_dataset_rejected(self, data):
        from teamrank.errors import InvalidArgument

        with pytest.raises(InvalidArgument, match="dataset"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("name", ["BENCH_dominant.json", "BENCH_elite.json"])
    def test_committed_report_configs_still_load(self, name):
        # each echoed config loads back to itself, and so does the same config as
        # reports echoed it while configs had index_dir and timing_min_sample_s
        for report in json.loads((Path(__file__).parents[1] / name).read_text()):
            echoed = report["config"]
            assert ExperimentConfig.from_dict(echoed).to_dict() == echoed
            older = {**echoed, "index_dir": None, "timing_min_sample_s": 0.02}
            assert ExperimentConfig.from_dict(older).to_dict() == echoed

    def test_space_equal_to_team_keeps_distance(self):
        # sole record, sole member: the identity swap is the only pair
        report = run_experiment(
            mini_config(dataset={"kind": "synthetic", "n": 1, "params": PARAMS, "seed": 3},
                        team_size=1, n_teams=1, top_k=3)
        )
        row = report.rows[0]
        assert row.distance_after == pytest.approx(row.distance_before, rel=1e-9)
        assert [r["swap_out"] for r in row.recommendations] == [r["swap_in"] for r in row.recommendations]

    def test_member_workers_are_recorded(self, report, monkeypatch):
        # 300 rows are at most _SERIAL_ROWS: every member pass runs on the caller's thread
        assert report.timing["member_workers"] == 1
        pretend_cores(monkeypatch, 3)
        # 9000 rows are more than _SERIAL_ROWS, and twelve dimensions fit four
        # member passes, of bf or of a build, in the attribute matrix, so the
        # cores cap both
        params = {f"{name}{j}": value for j in range(4) for name, value in PARAMS.items()}
        dataset = {"kind": "synthetic", "n": 9000, "params": params, "seed": 3}
        big = run_experiment(mini_config(dataset=dataset, n_teams=1, timing_repeats=1))
        assert big.timing["member_workers"] == 3
        assert all(row.methods_agree for row in big.rows)
        pretend_cores(monkeypatch, 2)
        built = run_experiment(mini_config(dataset=dataset, n_teams=1, timing_repeats=1, methods=["rtcstar"]))
        assert built.timing["member_workers"] == 2


class TestEmitAndParse:
    def test_json_round_trip_is_lossless(self, report, tmp_path):
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        assert parse_report(path) == report
        assert parse_report(path).timing["member_workers"] == report.timing["member_workers"]

    def test_csv_and_json_share_numeric_values(self, report, tmp_path):
        emit_report(report, "json", tmp_path / "r.json")
        emit_report(report, "csv", tmp_path / "r.csv")
        data = json.loads((tmp_path / "r.json").read_text())
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_team = {r["team_id"]: r for r in data["rows"]}
        for row in rows:
            if row["record_type"] == "team":
                expected = by_team[row["team"]]
                assert row["distance_before"] == repr(expected["distance_before"])
                assert row["distance_after"] == repr(expected["distance_after"])
            if row["record_type"] == "recommendation":
                rec = by_team[row["team"]]["recommendations"][int(row["rank"]) - 1]
                assert row["new_distance"] == repr(rec["new_distance"])
                assert row["odis"] == repr(rec["odis"])

    def test_empty_recommendations_serialize_as_empty_array(self, tmp_path):
        report = ExperimentReport(
            config={},
            rows=[
                TeamRow(
                    team_id="t",
                    target_id="x",
                    distance_before=1.0,
                    distance_after=1.0,
                    methods_agree=True,
                    recommendations=[],
                    io={},
                    timing={},
                )
            ],
            io={},
            timing={},
        )
        path = tmp_path / "empty.json"
        emit_report(report, "json", path)
        raw = json.loads(path.read_text())
        assert raw["rows"][0]["recommendations"] == []
        assert parse_report(path) == report

    def test_unknown_format_rejected(self, report, tmp_path):
        from teamrank.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            emit_report(report, "xml", tmp_path / "r.xml")
