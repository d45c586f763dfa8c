"""Command-line entry point.

Subcommands: ingest, weights, target, index build, rank, gen, gof, bench.
Results go to stdout (or --out) as JSON by default; --pretty renders simple
text tables instead. Diagnostics go to stderr. Exit codes: 0 success,
1 usage error, 2 data error. Every invocation echoes its flags into the
output payload so results are reproducible from the payload alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .core import diff, truncated_distance, truncating_vector
from .dataio import (
    chi_square_gof,
    gen_synthetic,
    load_column,
    load_manifest,
    load_objects,
    load_teams,
    nb_params_from_json,
    write_objects_csv,
)
from .errors import OldIndex, TeamRankError
from .nnindex import NnIndex, build_index, fingerprint, index_path
from .ranking import brute_force_rank, rtc_star_rank
from .weighting import compute_weights

__all__ = ["cli_main", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _emit(payload: dict, args: argparse.Namespace) -> None:
    text = _render_pretty(payload) if getattr(args, "pretty", False) else json.dumps(payload, indent=2)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _render_pretty(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_pretty(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            columns = list(value[0].keys())
            widths = [max(len(c), *(len(str(row.get(c, ""))) for row in value)) for c in columns]
            lines.append(f"{pad}{key}:")
            lines.append(pad + "  " + "  ".join(c.ljust(w) for c, w in zip(columns, widths)))
            for row in value:
                lines.append(pad + "  " + "  ".join(str(row.get(c, "")).ljust(w) for c, w in zip(columns, widths)))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _load_real(args) -> bench_mod.League:
    # a command with an index directory keeps its parse of the objects file there too
    return bench_mod.load_league(
        args.objects, args.manifest, args.teams, args.teams_manifest, args.elite_count, getattr(args, "index_dir", None)
    )


def _cmd_ingest(args) -> dict:
    manifest = load_manifest(args.manifest)
    space = load_objects(args.objects, manifest)
    return {
        "config": _config_echo(args),
        "rows": len(space),
        "dimension": space.dimension,
        "attributes": list(space.attribute_names),
        "digest": space.digest(),
    }


def _cmd_weights(args) -> dict:
    manifest = load_manifest(args.teams_manifest)
    targets, wins = load_teams(args.teams, manifest)
    stats = np.stack([t.aggregate for t in targets])
    result = compute_weights(stats, wins)
    names = manifest.attributes
    return {
        "config": _config_echo(args),
        "weights": {name: float(w) for name, w in zip(names, result.weights)},
        "floored": [names[j] for j in result.floored],
    }


def _cmd_target(args) -> dict:
    league = _load_real(args)
    team_ids = [args.team] if args.team else sorted(league.rosters)
    selections = []
    for team_id in team_ids:
        sel, _ = bench_mod.target_from_elite(league.team(team_id), league.elite, league.weights)
        selections.append({"team": sel.team_id, "target": sel.target_id, "distance": sel.distance})
    return {
        "config": _config_echo(args),
        "rule": bench_mod.TARGET_RULE,
        "selections": selections,
    }


def _resolve_team_target(args, league: bench_mod.League):
    team = league.team(args.team)
    _, target = bench_mod.target_from_elite(team, league.elite, league.weights)
    return team, target


def _cmd_index_build(args) -> dict:
    league = _load_real(args)
    space, weights = league.space, league.weights
    team, target = _resolve_team_target(args, league)
    # one configuration per command does not repay a leaf build (nnindex)
    index = build_index(
        space, team, target, weights, args.block_size, args.index_dir, run_length=args.top_k, prune=False
    )
    with index:
        payload = {
            "config": _config_echo(args),
            "fingerprint": index.fingerprint,
            "members": list(team.member_ids),
            "data_blocks_per_partition": index.data_blocks,
            "blocks_written": index.build_io.blocks_written,
            "files": [index_path(args.index_dir, index.fingerprint).name],
        }
    return payload


def _cmd_rank(args) -> dict:
    league = _load_real(args)
    space, weights = league.space, league.weights
    team, target = _resolve_team_target(args, league)
    gap = diff(target, team)
    before = truncated_distance(gap, truncating_vector(gap), weights)

    if args.method == "bf":
        recs = brute_force_rank(team, target, space, weights, args.top_k)
    else:
        scratch = None
        index_dir = args.index_dir
        if index_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="teamrank-index-")
            index_dir = scratch.name
        try:
            fp = fingerprint(space, team, target, weights, args.block_size)
            index = None
            if index_path(index_dir, fp).exists():
                # a file of an earlier format version, or with runs too short
                # for this top_k, is rebuilt, as a missing file is
                try:
                    index = NnIndex.open(index_dir, fp, space)
                except OldIndex:
                    pass
                else:
                    if index.run_length < min(args.top_k, len(space)):
                        index.close()
                        index = None
            if index is None:
                index = build_index(
                    space, team, target, weights, args.block_size, index_dir, run_length=args.top_k, prune=False
                )
            with index:
                recs = rtc_star_rank(team, target, space, weights, index, args.top_k)
        finally:
            if scratch is not None:
                scratch.cleanup()

    return {
        "config": _config_echo(args),
        "team": team.team_id,
        "target": target.team_id,
        "distance_before": before,
        "recommendations": bench_mod.recommendations_payload(recs),
    }


def _cmd_gen(args) -> dict:
    with open(args.params, "r", encoding="utf-8") as fh:
        params = nb_params_from_json(json.load(fh))
    space = gen_synthetic(
        params,
        count=args.count,
        seed=args.seed,
        lambda_range=(args.lambda_min, args.lambda_max),
    )
    write_objects_csv(space, args.out_csv)
    return {
        "config": _config_echo(args),
        "rows": len(space),
        "dimension": space.dimension,
        "attributes": list(space.attribute_names),
        "path": str(args.out_csv),
    }


def _cmd_gof(args) -> dict:
    samples = load_column(args.csv, args.column)
    result = chi_square_gof(samples, args.r, args.p, args.alpha)
    return {
        "config": _config_echo(args),
        "statistic": result.statistic,
        "dof": result.dof,
        "accepted": result.accepted,
        "n_bins": result.n_bins,
    }


def _cmd_bench(args) -> dict | None:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = bench_mod.ExperimentConfig.from_dict(json.load(fh))
    report = bench_mod.run_experiment(config)
    if args.out:
        bench_mod.emit_report(report, args.format, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
        return None
    if args.format == "csv":
        with tempfile.TemporaryDirectory(prefix="teamrank-bench-") as tmp:
            path = Path(tmp) / "report.csv"
            bench_mod.emit_report(report, "csv", path)
            sys.stdout.write(path.read_text(encoding="utf-8"))
        return None
    return report.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teamrank", description="Team-context swap ranking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write results here instead of stdout")
        p.add_argument("--pretty", action="store_true", help="render text tables instead of JSON")

    def add_real_inputs(p, with_team=True):
        p.add_argument("--objects", required=True, help="object CSV file")
        p.add_argument("--manifest", required=True, help="object manifest JSON")
        p.add_argument("--teams", required=True, help="team CSV file")
        p.add_argument("--teams-manifest", required=True, dest="teams_manifest", help="team manifest JSON")
        p.add_argument("--elite-count", type=_positive_int, default=10, dest="elite_count")
        if with_team:
            p.add_argument("--team", required=True, help="query team id")

    p = sub.add_parser("ingest", help="validate and summarize an object CSV")
    p.add_argument("--objects", required=True)
    p.add_argument("--manifest", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("weights", help="per-dimension weights from the team file")
    p.add_argument("--teams", required=True)
    p.add_argument("--teams-manifest", required=True, dest="teams_manifest")
    add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("target", help="select the nearest elite target per team")
    add_real_inputs(p, with_team=False)
    p.add_argument("--team", default=None, help="restrict to one team id")
    add_common(p)
    p.set_defaults(func=_cmd_target)

    p = sub.add_parser("index", help="index maintenance")
    index_sub = p.add_subparsers(dest="index_command", required=True)
    pb = index_sub.add_parser("build", help="build the index file")
    add_real_inputs(pb)
    pb.add_argument("--top-k", type=_positive_int, default=10, dest="top_k", help="entries kept per run")
    pb.add_argument("--block-size", type=_positive_int, default=100, dest="block_size")
    pb.add_argument("--index-dir", required=True, dest="index_dir")
    add_common(pb)
    pb.set_defaults(func=_cmd_index_build)

    p = sub.add_parser("rank", help="rank swap pairs for one team")
    add_real_inputs(p)
    p.add_argument("--method", choices=("bf", "rtcstar"), required=True)
    p.add_argument("--top-k", type=_positive_int, default=10, dest="top_k")
    p.add_argument("--block-size", type=_positive_int, default=100, dest="block_size")
    p.add_argument("--index-dir", default=None, dest="index_dir")
    add_common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("gen", help="generate a synthetic object CSV")
    p.add_argument("--params", required=True, help="JSON of attribute -> {r, p}")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-csv", required=True, dest="out_csv")
    p.add_argument("--lambda-min", type=float, default=500.0, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, default=3000.0, dest="lambda_max")
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("gof", help="chi-square goodness of fit for one CSV column")
    p.add_argument("--csv", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    add_common(p)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("bench", help="run a full experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code for success paths
        return 0 if exc.code in (0, None) else 1

    try:
        payload = args.func(args)
    except (TeamRankError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if payload is not None:
        _emit(payload, args)
    return 0


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
