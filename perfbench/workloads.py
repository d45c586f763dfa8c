"""The three benchmark workloads, driven through teamrank's public API.

Every workload is a closed loop: one client in one thread, which waits for
each answer before it asks the next question. A run sets up its data
(``SETUP_REPS`` times or more, reporting the median), then takes teams in seeded
order, one *round* per team, until ``seconds`` have passed and at least
``MIN_TEAMS`` rounds are done. A round is

* a cold answer: a new (team, target) configuration to its first ranked
  list, index build included;
* the in-memory ``bf`` answer, which is also the oracle;
* warm answers on the built index while the next one would still end
  within ``WARM_SLICE_S`` (at least one).

Every ``rtcstar`` answer is checked against the oracle. Counts are taken
from the first query of each of the first ``MIN_TEAMS`` teams, so they do
not depend on how many rounds fit in the time.

The traced run plays every round twice on the same team, once untraced and
once traced, in alternating order; the per-layer numbers come from the
traced rounds and the tracing overhead is traced minus untraced.

Index files go to a directory the benchmark owns and are deleted after
each team. ``build_index`` does not fsync and the benchmark adds no flush,
so reads are served from the page cache.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import itertools
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from teamrank.cli import cli_main
from teamrank.core import TargetContext, diff, team_from_ids, truncated_distance, truncating_vector
from teamrank.dataio import NbParams, gen_synthetic, load_manifest, load_objects, load_rosters, load_teams
from teamrank.nnindex import NnIndex, build_index, fingerprint
from teamrank.ranking import brute_force_rank, rtc_star_rank
from teamrank.weighting import RankedSeries, compute_weights, select_target

from spans import NullTracer, Tracer

# The eleven negative-binomial (r, p) pairs of the acceptance scaling runs.
PARAMS = {
    name: NbParams(r, p)
    for name, (r, p) in {
        "FG": (1.44, 0.008), "TRB": (1.62, 0.008), "BLK": (0.91, 0.004), "DRB": (1.67, 0.01),
        "FT": (1.07, 0.013), "STL": (1.70, 0.045), "FTA": (1.16, 0.01), "PTS": (1.40, 0.003),
        "AST": (0.93, 0.0092), "3P": (0.85, 0.02), "3PA": (1.30, 0.008),
    }.items()
}
M, K, B = 5, 10, 10
MARGIN = 1.10
ELITE = 10
N_DOMINANT = 1_070_000
# 1.07e6 rows cost about 6 s per elite team, too few teams per run for a
# steady median; 1e5 rows keep the same cache regime (over L2, inside L3)
N_ELITE = 100_000
N_LEAGUE = 100_000
LEAGUE_TEAMS = 30

SETUP_REPS = 3
SETUP_MIN_S = 2.0  # short set-ups repeat until they add up to this, for a steadier median
MIN_TEAMS = 3
WARM_SLICE_S = 0.25


class BenchmarkBug(RuntimeError):
    """A count that must repeat exactly did not."""


def _triples(recs):
    return [(r.swap_out_id, r.swap_in_id, r.new_distance) for r in recs]


def _cli_triples(payload):
    return [(r["swap_out"], r["swap_in"], r["new_distance"]) for r in payload["recommendations"]]


def agree(got, want) -> bool:
    """Same pairs in the same order; distances within 1e-9 relative."""
    return len(got) == len(want) and all(
        g[:2] == w[:2] and abs(g[2] - w[2]) <= 1e-9 * max(1.0, abs(w[2])) for g, w in zip(got, want)
    )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _index_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.glob("*.idx"))


def _empty(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


@dataclass
class Round:
    """What one team's round measured."""

    traced: bool
    cold_s: float = 0.0
    bf_s: float = 0.0
    warm_s: list[float] = field(default_factory=list)
    counts: dict = field(default_factory=dict)


@dataclass
class Run:
    """Everything a workload run measured, before it becomes metrics."""

    n: int
    d: int
    setup_s: list[float] = field(default_factory=list)
    setup_traced: list[bool] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Workload:
    """Shared driver: set-up repetitions, the round loop and the traced pairing."""

    name = ""

    def __init__(self, seed: int, seconds: float, traced: bool, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.index_dir = workdir / "index"
        self.tracer = Tracer() if traced else None
        self.null = NullTracer()

    # subclasses give setup(tr) -> (n, d), teams() -> questions in seeded order,
    # and play(question, tr, run, traced) -> Round

    def release(self):
        """Drop the previous set-up's data before the next one is made."""
        self.space = None

    def run(self) -> Run:
        # ABBA order in the traced run, so warm-up effects do not land on one side
        plan = [False, True, True, False] if self.traced else [False] * SETUP_REPS
        n = d = 0
        durations = []
        for rep, traced in enumerate(plan):
            if not self.traced and rep == len(plan) - 1 and sum(durations) < SETUP_MIN_S:
                plan.append(False)
            self.release()
            gc.collect()
            tr = self.tracer if traced else self.null
            tr.op = f"setup{rep}"
            start = time.perf_counter()
            with tr.span("setup.rep"):
                n, d = self.setup(tr)
            durations.append(time.perf_counter() - start)
        run = Run(n=n, d=d, setup_s=durations, setup_traced=plan, tracer=self.tracer)

        deadline = time.perf_counter() + self.seconds
        for i, team in enumerate(self.teams()):
            if i >= MIN_TEAMS and time.perf_counter() >= deadline:
                break
            if not self.traced:
                order = [False]
            else:
                order = [False, True] if i % 2 == 0 else [True, False]
            played = []
            for traced in order:
                try:
                    played.append(self.play(team, self.tracer if traced else self.null, run, traced))
                except Exception as exc:  # an answer that raised is a failed answer, not a crash
                    run.attempted += 1
                    run.failed += 1
                    run.problems.append(f"team {i}: {type(exc).__name__}: {exc}")
                finally:
                    _empty(self.index_dir)
            if len(played) == 2:
                shared = played[0].counts.keys() & played[1].counts.keys()
                if any(played[0].counts[k] != played[1].counts[k] for k in shared):
                    raise BenchmarkBug(f"team {i}: counts differ between two plays: "
                                       f"{played[0].counts} vs {played[1].counts}")
            if i >= MIN_TEAMS:
                for r in played:
                    r.counts = {}
            run.rounds.extend(played)
        return run


class Synthetic(Workload):
    """dominant-1m and elite-100k: a generated space held in memory."""

    elite_targets = False

    def setup(self, tr):
        self.space = tr.call("dataio.gen_synthetic", gen_synthetic, PARAMS, self.n, self.seed)
        tr.call("core.digest", self.space.digest)
        tr.call("core.rates", self.space.rates)
        tr.call("core.min_rates", self.space.min_rates)
        self.w = np.ones(self.space.dimension)
        return len(self.space), self.space.dimension

    def teams(self):
        """Seeded teams; in elite mode each team also draws its own 10 elite aggregates."""
        rng = _rng(self.seed, 1)
        draw = lambda: self.space.ids[rng.choice(len(self.space), M, replace=False)]  # noqa: E731
        for i in itertools.count():
            team = team_from_ids(self.space, draw(), team_id=f"team{i:05d}")
            elite = [
                TargetContext(team_id=f"elite{j:02d}", aggregate=team_from_ids(self.space, draw()).aggregate * MARGIN)
                for j in range(ELITE if self.elite_targets else 0)
            ]
            yield team, elite

    def target(self, team, elite, tr):
        if not elite:
            return tr.call("core.TargetContext", TargetContext,
                           team_id=f"{team.team_id}-target", aggregate=team.aggregate * MARGIN)
        sel = tr.call("weighting.select_target", select_target, team, elite, self.w)
        return next(t for t in elite if t.team_id == sel.target_id)

    def play(self, question, tr, run, traced):
        team, elite = question
        space, w, tid = self.space, self.w, team.team_id
        r = Round(traced=traced)

        tr.op = f"cold:{tid}"
        gc.collect()
        start = time.perf_counter()
        with tr.span("answer.cold"):
            target = self.target(team, elite, tr)
            fp = tr.call("nnindex.fingerprint", fingerprint, space, team, target, w, B)
            index = tr.call("nnindex.build_index", build_index, space, team, target, w, B, self.index_dir)
            stats: dict = {}
            first = tr.call("ranking.rtc_star_rank", rtc_star_rank, team, target, space, w, index, K,
                            stats_out=stats)
        r.cold_s = time.perf_counter() - start
        fallback = len(stats["fallback_members"])
        r.counts = {
            "blocks_written": index.build_io.blocks_written,
            "index_bytes": _index_bytes(self.index_dir),
            "blocks_read": index.query_io.blocks_read,
            "fallback": fallback,
            "rows_rescored": fallback * len(space) + (M - fallback) * K,
        }
        index.close()

        tr.op = f"bf:{tid}"
        gc.collect()
        start = time.perf_counter()
        with tr.span("answer.bf"):
            oracle = _triples(tr.call("ranking.brute_force_rank", brute_force_rank, team, target, space, w, K))
        r.bf_s = time.perf_counter() - start
        run.check(f"{tid} cold rtcstar vs bf", agree(_triples(first), oracle))

        tr.op = f"open:{tid}"
        with tr.call("nnindex.open", NnIndex.open, self.index_dir, fp, space) as index:
            tr.op = f"warm:{tid}"
            stop = time.perf_counter() + WARM_SLICE_S
            while True:
                start = time.perf_counter()
                with tr.span("answer.warm"):
                    got = tr.call("ranking.rtc_star_rank", rtc_star_rank, team, target, space, w, index, K)
                r.warm_s.append(time.perf_counter() - start)
                run.check(f"{tid} warm rtcstar vs bf", agree(_triples(got), oracle))
                if time.perf_counter() + r.warm_s[-1] >= stop:
                    break
            if traced:
                tr.op = f"probe:{tid}"
                for member in range(M):
                    tr.call("nnindex.query_min_raw", index.query_min_raw, member, K)
        return r


class Dominant(Synthetic):
    name = "dominant-1m"
    n = N_DOMINANT


class Elite(Synthetic):
    name = "elite-100k"
    n = N_ELITE
    elite_targets = True


@dataclass(frozen=True)
class LeagueFiles:
    objects: Path
    objects_manifest: Path
    teams: Path
    teams_manifest: Path


class League(Workload):
    """league-csv: CSV files on disk, every answer a ``teamrank rank`` command."""

    name = "league-csv"

    def setup(self, tr):
        data = self.workdir / "league"
        data.mkdir(parents=True, exist_ok=True)
        self.files = files = LeagueFiles(
            data / "objects.csv", data / "objects.json", data / "teams.csv", data / "teams.json")
        space = tr.call("dataio.gen_synthetic", gen_synthetic, PARAMS, N_LEAGUE, self.seed)
        names = list(space.attribute_names)
        rng = _rng(self.seed, 3)
        rostered = rng.choice(len(space), LEAGUE_TEAMS * M, replace=False).reshape(LEAGUE_TEAMS, M)
        self.team_ids = [f"T{t:02d}" for t in range(LEAGUE_TEAMS)]
        team_of = np.full(len(space), "FA", dtype=object)
        teams = []
        for tid, rows in zip(self.team_ids, rostered):
            team_of[rows] = tid
            teams.append(team_from_ids(space, space.ids[rows], team_id=tid))

        # wins follow a seeded mix of the team aggregates, so Kendall weights differ by dimension
        aggs = np.stack([t.aggregate for t in teams])
        strength = ((aggs - aggs.mean(0)) / aggs.std(0)) @ rng.uniform(0.0, 1.0, len(names))
        strength += rng.normal(0.0, 1.0, LEAGUE_TEAMS)
        wins = 15.0 + 2.0 * np.argsort(np.argsort(strength))

        with open(files.objects, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "Tm", "MP", *names])
            out.writerows(
                [oid, f"player {i}", tm, lam, *row]
                for i, (oid, tm, lam, row) in enumerate(
                    zip(space.ids.tolist(), team_of, space.lambdas.tolist(), space.attrs.tolist()))
            )
        with open(files.teams, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["Team", "W", *names])
            out.writerows([tid, win, *agg] for tid, win, agg in zip(self.team_ids, wins.tolist(), aggs.tolist()))
        files.objects_manifest.write_text(json.dumps({
            "attributes": names, "id_column": "id", "label_column": "name",
            "lambda_column": "MP", "team_column": "Tm"}), encoding="utf-8")
        files.teams_manifest.write_text(json.dumps({
            "attributes": names, "id_column": "Team", "wins_column": "W"}), encoding="utf-8")

        # the oracle works on the generated space; CSV floats round-trip exactly
        self.space = space
        self.teams_by_id = dict(zip(self.team_ids, teams))
        self.weights = compute_weights(aggs, RankedSeries(wins)).weights
        order = np.argsort(-wins, kind="stable")[:ELITE]
        self.elite = [TargetContext(team_id=self.team_ids[i], aggregate=aggs[i]) for i in order]
        return len(space), space.dimension

    def teams(self):
        yield from _rng(self.seed, 4).permutation(self.team_ids).tolist()

    def argv(self, tid, method):
        f = self.files
        return ["rank", "--objects", str(f.objects), "--manifest", str(f.objects_manifest),
                "--teams", str(f.teams), "--teams-manifest", str(f.teams_manifest), "--team", tid,
                "--method", method, "--top-k", str(K), "--block-size", str(B),
                "--index-dir", str(self.index_dir)]

    def command(self, kind, argv, tr, run, want_target, oracle):
        """One ``teamrank rank`` command, timed and checked against the oracle."""
        out = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with tr.span(f"answer.{kind}"), contextlib.redirect_stdout(out):
            code = tr.call("cli.cli_main", cli_main, argv)
        elapsed = time.perf_counter() - start
        ok = code == 0
        if ok:
            payload = json.loads(out.getvalue())
            ok = payload["target"] == want_target and agree(_cli_triples(payload), oracle)
        run.check(f"{argv[argv.index('--team') + 1]} {kind} command vs bf", ok)
        return elapsed

    def replay(self, kind, tid, tr, run, oracle):
        """Repeat one command's layer calls through the public API, traced."""
        f = self.files
        with tr.span(f"replay.{kind}"):
            om = tr.call("dataio.load_manifest", load_manifest, f.objects_manifest)
            tm = tr.call("dataio.load_manifest", load_manifest, f.teams_manifest)
            space = tr.call("dataio.load_objects", load_objects, f.objects, om)
            rosters = tr.call("dataio.load_rosters", load_rosters, f.objects, om)
            targets, wins = tr.call("dataio.load_teams", load_teams, f.teams, tm)
            weights = tr.call("weighting.compute_weights", compute_weights,
                              np.stack([t.aggregate for t in targets]), wins).weights
            elite = [targets[i] for i in np.argsort(-wins.values, kind="stable")[:ELITE]]
            team = tr.call("core.team_from_ids", team_from_ids, space, rosters[tid], team_id=tid)
            candidates = [t for t in elite if t.team_id != tid] or elite
            sel = tr.call("weighting.select_target", select_target, team, candidates, weights)
            target = next(t for t in candidates if t.team_id == sel.target_id)
            gap = tr.call("core.diff", diff, target, team)
            tr.call("core.truncated_distance", truncated_distance, gap, truncating_vector(gap), weights)
            counts = {"rows_parsed": len(space) + sum(map(len, rosters.values())) + len(targets)}
            # the cached space properties the command computes inside the calls below
            tr.call("core.rates", space.rates)
            if kind == "bf":
                got = tr.call("ranking.brute_force_rank", brute_force_rank, team, target, space, weights, K)
            else:
                tr.call("core.digest", space.digest)
                tr.call("core.min_rates", space.min_rates)
                fp = tr.call("nnindex.fingerprint", fingerprint, space, team, target, weights, B)
                if kind == "cold":
                    replay_dir = self.workdir / "replay-index"
                    _empty(replay_dir)
                    index = tr.call("nnindex.build_index", build_index,
                                    space, team, target, weights, B, replay_dir)
                else:
                    index = tr.call("nnindex.open", NnIndex.open, self.index_dir, fp, space)
                with index:
                    stats: dict = {}
                    got = tr.call("ranking.rtc_star_rank", rtc_star_rank,
                                  team, target, space, weights, index, K, stats_out=stats)
                    fallback = len(stats["fallback_members"])
                    counts.update(
                        blocks_written=index.build_io.blocks_written,
                        blocks_read=index.query_io.blocks_read,
                        fallback=fallback,
                        rows_rescored=fallback * len(space) + (M - fallback) * K,
                    )
                if kind == "cold":
                    shutil.rmtree(replay_dir)
        run.check(f"{tid} {kind} replay vs bf", agree(_triples(got), oracle))
        if kind == "warm":
            tr.op = f"probe:{tid}"
            with NnIndex.open(self.index_dir, fp, space) as index:
                for member in range(M):
                    tr.call("nnindex.query_min_raw", index.query_min_raw, member, K)
        return counts

    def play(self, tid, tr, run, traced):
        team = self.teams_by_id[tid]
        candidates = [t for t in self.elite if t.team_id != tid] or self.elite
        target_id = select_target(team, candidates, self.weights).target_id
        target = next(t for t in candidates if t.team_id == target_id)
        oracle = _triples(brute_force_rank(team, target, self.space, self.weights, K))
        r = Round(traced=traced)

        tr.op = f"cold:{tid}"
        r.cold_s = self.command("cold", self.argv(tid, "rtcstar"), tr, run, target_id, oracle)
        r.counts = {"index_bytes": _index_bytes(self.index_dir)}
        if traced:
            r.counts.update(self.replay("cold", tid, tr, run, oracle))

        stop = time.perf_counter() + WARM_SLICE_S
        while True:
            tr.op = f"warm{len(r.warm_s)}:{tid}"
            r.warm_s.append(self.command("warm", self.argv(tid, "rtcstar"), tr, run, target_id, oracle))
            if traced:
                self.replay("warm", tid, tr, run, oracle)
            if time.perf_counter() + r.warm_s[-1] >= stop:
                break

        tr.op = f"bf:{tid}"
        r.bf_s = self.command("bf", self.argv(tid, "bf"), tr, run, target_id, oracle)
        if traced:
            self.replay("bf", tid, tr, run, oracle)
        return r


WORKLOADS = {w.name: w for w in (Dominant, Elite, League)}
