"""End-to-end experiment driver with machine-readable reports.

A run takes a dataset (synthetic league or CSV pair), forms query teams,
selects a target per team, ranks swap pairs with both methods, and records
distances, exact block I/O, and wall-clock timings. Query timing is the
median of ``timing_repeats`` runs after ``timing_warmup`` warm-up runs,
with sub-millisecond calls batched inside each timed sample until it
lasts 20 ms (timeit-style) so the per-call medians are stable;
``rtcstar``'s index build time is timed the same way, over builds that
each rewrite the same file, so ``build_s`` and ``bf``'s ``query_s`` are
medians alike. Each run builds its indexes in a temporary directory of its
own. A config with no ``dataset``, with no ``methods`` or one that is
neither ``bf`` nor ``rtcstar``, or with a ``target_mode`` other than
``dominant`` and ``elite``, raises :class:`InvalidArgument` before any
work.
I/O numbers come from a dedicated accounting pass whose counters are
snapshotted before the timing runs start. ``bf`` runs in
memory; the report charges it the ceil(n / B) block reads of a full scan per
member, worked out here rather than counted, so its ``query_s`` times the
scoring kernel alone. ``rtcstar`` builds each team's index with runs of k
entries (``run_length=top_k``), so its ``build_s`` is one pass of the kernel
and top-k selection ``bf`` runs plus ceil(k / B) blocks written per member;
it is charged every index block it fetches: one positioned read of
ceil(k / B) blocks per member. Each ``rtcstar`` row
also records how many entries each member re-scored (``scan_depths``,
min(k, n) each) and ``fallback_members``, always empty and kept for report
compatibility. The report's top-level ``timing`` also records
``member_workers``: the most threads that ``bf`` and an index build score
any of the run's teams on (``ranking.member_workers``), so a report says
how many cores its timings had; the JSON report carries it and the CSV
report does not.

A CSV run reads its league through :func:`load_league`, as the CLI does. A
synthetic or CSV run with an elite target set picks each team's target by
:func:`target_from_elite`, the rule the CLI applies too, and both render
recommendation lists through :func:`recommendations_payload`.

Synthetic target modes:

* ``dominant``: the target is the team's own aggregate scaled up by
  ``target_margin``, so every dimension is weak.
* ``elite``: ``elite_count`` independently sampled team aggregates, scaled by
  ``target_margin``, with the nearest chosen per query team. Strong
  dimensions occur here; the index answers both modes with the same
  ceil(k / B) reads per member.

Reports serialize losslessly to JSON (the round-trip format) and to a flat,
type-tagged CSV carrying the same numbers at full precision.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .core import ObjectSpace, TargetContext, TeamContext, diff, team_from_ids, truncated_distance, truncating_vector
from .dataio import NbParams, gen_synthetic, load_manifest, load_objects_and_rosters, load_teams
from .errors import InvalidArgument
from .nnindex import build_index
from .ranking import SwapRecommendation, brute_force_rank, member_workers, rtc_star_rank
from .weighting import TargetSelection, compute_weights, select_target

__all__ = [
    "ExperimentConfig",
    "TeamRow",
    "ExperimentReport",
    "run_experiment",
    "emit_report",
    "parse_report",
]

SCHEMA_VERSION = 1
METHODS = ("bf", "rtcstar")
TARGET_MODES = ("dominant", "elite")
TARGET_RULE = "weighted-truncated-distance-argmin"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; echoed verbatim into the report."""

    dataset: dict
    block_size: int = 100
    top_k: int = 10
    methods: tuple[str, ...] = METHODS
    seed: int = 0
    team_size: int = 5
    n_teams: int = 1
    team_ids: tuple[str, ...] | None = None
    target_mode: str = "dominant"
    target_margin: float = 0.10
    elite_count: int = 10
    weights: tuple[float, ...] | None = None
    timing_repeats: int = 5
    timing_warmup: int = 1

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "block_size": self.block_size,
            "top_k": self.top_k,
            "methods": list(self.methods),
            "seed": self.seed,
            "team_size": self.team_size,
            "n_teams": self.n_teams,
            "team_ids": list(self.team_ids) if self.team_ids is not None else None,
            "target_mode": self.target_mode,
            "target_margin": self.target_margin,
            "elite_count": self.elite_count,
            "weights": list(self.weights) if self.weights is not None else None,
            "timing_repeats": self.timing_repeats,
            "timing_warmup": self.timing_warmup,
            "target_rule": TARGET_RULE,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config in ``data``; keys it does not know, such as the echoed ``target_rule``, are ignored."""
        if not isinstance(data, dict) or "dataset" not in data:
            raise InvalidArgument("bench config needs a \"dataset\" entry")
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known}
        for key in ("methods", "team_ids", "weights"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass
class TeamRow:
    team_id: str
    target_id: str
    distance_before: float
    distance_after: float
    methods_agree: bool
    recommendations: list[dict]
    io: dict
    timing: dict

    def to_dict(self) -> dict:
        return {
            "team_id": self.team_id,
            "target_id": self.target_id,
            "distance_before": self.distance_before,
            "distance_after": self.distance_after,
            "methods_agree": self.methods_agree,
            "recommendations": self.recommendations,
            "io": self.io,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TeamRow":
        return cls(**data)


@dataclass
class ExperimentReport:
    config: dict
    rows: list[TeamRow]
    io: dict
    timing: dict
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "rows": [r.to_dict() for r in self.rows],
            "io": self.io,
            "timing": self.timing,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(
            schema_version=data["schema_version"],
            config=data["config"],
            rows=[TeamRow.from_dict(r) for r in data["rows"]],
            io=data["io"],
            timing=data["timing"],
        )


def recommendations_payload(recs: Sequence[SwapRecommendation]) -> list[dict]:
    return [
        {
            "swap_out": r.swap_out_id,
            "swap_in": r.swap_in_id,
            "new_distance": r.new_distance,
            "odis": r.odis,
        }
        for r in recs
    ]


def _lists_agree(a: Sequence[SwapRecommendation], b: Sequence[SwapRecommendation]) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.swap_out_id, x.swap_in_id) != (y.swap_out_id, y.swap_in_id):
            return False
        if abs(x.new_distance - y.new_distance) > 1e-9 * max(1.0, abs(y.new_distance)):
            return False
    return True


def _median_time(fn, warmup: int, repeats: int) -> float:
    """Median per-call wall-clock over ``repeats`` samples after warm-up.

    Sub-millisecond callables are batched inside each timed sample until the
    sample lasts at least 20 ms, timeit-style, so scheduler jitter does not
    swamp the measurement; the reported value is always per call.
    """
    single = float("inf")
    for _ in range(max(1, warmup)):
        start = time.perf_counter()
        fn()
        single = min(single, time.perf_counter() - start)
    inner = max(1, min(1000, math.ceil(0.02 / max(single, 1e-9))))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


def _load_dataset(config: ExperimentConfig):
    """Return (space, teams, elite-targets-or-None, weights)."""
    ds = config.dataset
    kind = ds.get("kind", "synthetic")
    if kind == "synthetic":
        params = {name: NbParams(**p) for name, p in ds["params"].items()}
        space = gen_synthetic(
            params,
            count=int(ds["n"]),
            seed=int(ds.get("seed", config.seed)),
            lambda_range=tuple(ds.get("lambda_range", (500.0, 3000.0))),
        )
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(101,)))
        teams = []
        for i in range(config.n_teams):
            member_ids = rng.choice(space.ids, size=config.team_size, replace=False)
            teams.append(team_from_ids(space, member_ids, team_id=f"team{i:02d}"))
        if config.weights is not None:
            weights = np.asarray(config.weights, dtype=np.float64)
        else:
            weights = np.ones(space.dimension)
        return space, teams, None, weights

    if kind == "csv":
        files = (ds["players"], ds["players_manifest"], ds["teams"], ds["teams_manifest"])
        league = load_league(*files, config.elite_count)
        teams = [league.team(tid) for tid in config.team_ids or league.rosters]
        return league.space, teams, league.elite, league.weights

    raise InvalidArgument(f"unknown dataset kind {kind!r}")


@dataclass(frozen=True)
class League:
    """A league's object space, rosters by team id, Kendall weights and elite teams, most wins first."""

    space: ObjectSpace
    rosters: Mapping[str, list[str]]
    weights: np.ndarray
    elite: list[TargetContext]
    objects: str

    def team(self, team_id: str) -> TeamContext:
        if team_id not in self.rosters:
            raise InvalidArgument(f"team {team_id!r} has no roster rows in {self.objects}")
        return team_from_ids(self.space, self.rosters[team_id], team_id=team_id)


def load_league(objects, objects_manifest, teams, teams_manifest, elite_count: int, snapshot_dir=None) -> League:
    """Read a league's CSV files and manifests; ``snapshot_dir`` as in ``load_objects_and_rosters``."""
    objects_manifest, teams_manifest = load_manifest(objects_manifest), load_manifest(teams_manifest)
    space, rosters = load_objects_and_rosters(objects, objects_manifest, snapshot_dir)
    targets, wins = load_teams(teams, teams_manifest)
    weights = compute_weights(np.stack([t.aggregate for t in targets]), wins).weights
    elite = [targets[i] for i in np.argsort(-wins.values, kind="stable")[:elite_count]]
    return League(space, rosters, weights, elite, str(objects))


def target_from_elite(
    team: TeamContext, elite: Sequence[TargetContext], weights
) -> tuple[TargetSelection, TargetContext]:
    """The nearest elite team other than ``team`` itself, else any elite team."""
    candidates = [t for t in elite if t.team_id != team.team_id] or list(elite)
    selection = select_target(team, candidates, weights)
    return selection, next(t for t in candidates if t.team_id == selection.target_id)


def dominant_target(team: TeamContext, margin: float) -> TargetContext:
    """The ``dominant`` mode's target: ``team``'s own aggregate scaled up by ``margin``."""
    return TargetContext(team_id=f"{team.team_id}-target", aggregate=team.aggregate * (1.0 + margin))


def _synthetic_elite(space: ObjectSpace, config: ExperimentConfig) -> list[TargetContext]:
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(202,)))
    elite = []
    for j in range(config.elite_count):
        member_ids = rng.choice(space.ids, size=config.team_size, replace=False)
        agg = team_from_ids(space, member_ids, team_id=f"elite{j:02d}").aggregate
        elite.append(
            TargetContext(team_id=f"elite{j:02d}", aggregate=agg * (1.0 + config.target_margin))
        )
    return elite


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run every configured team through every configured method."""
    if config.block_size < 1:
        raise InvalidArgument(f"block_size must be >= 1, got {config.block_size}")
    if config.elite_count < 1:
        raise InvalidArgument(f"elite_count must be >= 1, got {config.elite_count}")
    if not config.methods or not set(config.methods) <= set(METHODS):
        raise InvalidArgument(f"methods must name bf or rtcstar, got {list(config.methods)}")
    if config.target_mode not in TARGET_MODES:
        raise InvalidArgument(f"unknown target mode {config.target_mode!r}")
    space, teams, loaded, weights = _load_dataset(config)
    # bf reads every block of a full scan once per member
    bf_reads = -(-len(space) // config.block_size)

    synthetic_elite = None
    if loaded is None and config.target_mode == "elite":
        synthetic_elite = _synthetic_elite(space, config)

    rows: list[TeamRow] = []
    workers = 1
    with tempfile.TemporaryDirectory(prefix="teamrank-index-") as index_dir:
        for team in teams:
            if loaded is not None:
                _, target = target_from_elite(team, loaded, weights)
            elif config.target_mode == "dominant":
                target = dominant_target(team, config.target_margin)
            else:
                _, target = target_from_elite(team, synthetic_elite, weights)

            gap = diff(target, team)
            distance_before = truncated_distance(gap, truncating_vector(gap), weights)

            row_io: dict = {}
            row_timing: dict = {}
            results: dict[str, list[SwapRecommendation]] = {}

            workers = max(workers, member_workers(team, space))
            if "bf" in config.methods:
                results["bf"] = brute_force_rank(team, target, space, weights, config.top_k)
                row_io["bf"] = {
                    "blocks_read": bf_reads * team.size,
                    "blocks_written": 0,
                    "queries_served": 0,
                    "per_member_reads": [bf_reads] * team.size,
                }
                row_timing["bf"] = {
                    "build_s": 0.0,
                    "query_s": _median_time(
                        lambda: brute_force_rank(team, target, space, weights, config.top_k),
                        config.timing_warmup,
                        config.timing_repeats,
                    ),
                }

            if "rtcstar" in config.methods:
                # each build rewrites the same bytes, so the builds are timed like bf's queries
                build_s = _median_time(
                    lambda: build_index(
                        space, team, target, weights, config.block_size, index_dir, run_length=config.top_k
                    ).close(),
                    config.timing_warmup,
                    config.timing_repeats,
                )
                index = build_index(space, team, target, weights, config.block_size, index_dir, run_length=config.top_k)
                with index:
                    stats = {}
                    index.reset_query_io()
                    results["rtcstar"] = rtc_star_rank(
                        team, target, space, weights, index, config.top_k, stats_out=stats
                    )
                    snap = index.query_io.snapshot()
                    build_snap = index.build_io.snapshot()
                    row_io["rtcstar"] = {
                        "blocks_read": snap.blocks_read,
                        "blocks_written": build_snap.blocks_written,
                        "queries_served": snap.queries_served,
                        "per_member_reads": stats["per_member_reads"],
                        "scan_depths": stats["scan_depths"],
                        "fallback_members": stats["fallback_members"],
                    }
                    row_timing["rtcstar"] = {
                        "build_s": build_s,
                        "query_s": _median_time(
                            lambda: rtc_star_rank(team, target, space, weights, index, config.top_k),
                            config.timing_warmup,
                            config.timing_repeats,
                        ),
                    }

            method_names = [m for m in config.methods if m in results]
            reference = results[method_names[0]]
            agree = all(_lists_agree(results[m], reference) for m in method_names[1:])
            best_after = reference[0].new_distance if reference else distance_before

            rows.append(
                TeamRow(
                    team_id=team.team_id,
                    target_id=target.team_id,
                    distance_before=distance_before,
                    distance_after=best_after,
                    methods_agree=agree,
                    recommendations=recommendations_payload(reference),
                    io=row_io,
                    timing=row_timing,
                )
            )

    totals_io: dict = {}
    totals_timing: dict = {}
    for method in config.methods:
        method_rows = [r for r in rows if method in r.io]
        if not method_rows:
            continue
        totals_io[method] = {
            "blocks_read": sum(r.io[method]["blocks_read"] for r in method_rows),
            "blocks_written": sum(r.io[method]["blocks_written"] for r in method_rows),
            "queries_served": sum(r.io[method]["queries_served"] for r in method_rows),
        }
        totals_timing[method] = {
            "build_s": sum(r.timing[method]["build_s"] for r in method_rows),
            "query_s": sum(r.timing[method]["query_s"] for r in method_rows),
        }
    totals_timing["member_workers"] = workers

    return ExperimentReport(
        config=config.to_dict(),
        rows=rows,
        io=totals_io,
        timing=totals_timing,
    )


CSV_COLUMNS = [
    "record_type", "team", "target", "distance_before", "distance_after", "methods_agree",
    "method", "rank", "swap_out", "swap_in", "new_distance", "odis",
    "blocks_read", "blocks_written", "queries_served", "build_s", "query_s",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: ExperimentReport, format: str, path) -> None:
    """Serialize a report; JSON is lossless, CSV is flat and plot-ready.

    Both renderings print floats with repr, so numeric values agree between
    formats to full precision.
    """
    path = Path(path)
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=False)
            fh.write("\n")
        return
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)

            def emit(record_type, **cells):
                writer.writerow([_fmt(cells.get(c)) if c != "record_type" else record_type for c in CSV_COLUMNS])

            for row in report.rows:
                emit(
                    "team",
                    team=row.team_id,
                    target=row.target_id,
                    distance_before=row.distance_before,
                    distance_after=row.distance_after,
                    methods_agree=row.methods_agree,
                )
                for rank, rec in enumerate(row.recommendations, start=1):
                    emit(
                        "recommendation",
                        team=row.team_id,
                        rank=rank,
                        swap_out=rec["swap_out"],
                        swap_in=rec["swap_in"],
                        new_distance=rec["new_distance"],
                        odis=rec["odis"],
                    )
                for method, io in row.io.items():
                    emit(
                        "io",
                        team=row.team_id,
                        method=method,
                        blocks_read=io["blocks_read"],
                        blocks_written=io["blocks_written"],
                        queries_served=io["queries_served"],
                    )
                for method, timing in row.timing.items():
                    emit(
                        "timing",
                        team=row.team_id,
                        method=method,
                        build_s=timing["build_s"],
                        query_s=timing["query_s"],
                    )
            for method, io in report.io.items():
                emit("io", team="__total__", method=method, **io)
            for method in report.io:
                emit("timing", team="__total__", method=method, **report.timing[method])
        return
    raise InvalidArgument(f"unknown report format {format!r}")


def parse_report(path) -> ExperimentReport:
    """Load a JSON report back into structured form."""
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentReport.from_dict(json.load(fh))
