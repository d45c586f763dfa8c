"""Turn what a workload run measured into named metrics with units.

Every metric is printed for every workload, so the definitions are shared;
where a workload never makes a call, that call's per-layer figure is 0.
On ``league-csv`` every answer is a ``teamrank rank`` command, so its
``cold_answer_p50_s``, ``warm_query_p50_ms`` and ``bf_answer_p50_s`` are
the command's wall time, its ``cli_rank_*_p50_s`` figures.
"""

from __future__ import annotations

import resource
import statistics
import sys

from workloads import K, M, MIN_TEAMS


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _answers(run, rounds, setups):
    # each team counts once: a team whose queries are fast fits more of them
    # into its warm slice, and must not outweigh the others
    index_bytes = [r.counts["index_bytes"] for r in rounds if "index_bytes" in r.counts]
    return {
        "setup_s": (median(setups), "s"),
        "cold_answer_p50_s": (median([r.cold_s for r in rounds]), "s"),
        "warm_query_p50_ms": (median([median(r.warm_s) for r in rounds]) * 1e3, "ms"),
        "warm_queries_per_s": (1.0 / statistics.mean(statistics.mean(r.warm_s) for r in rounds), "1/s"),
        "bf_answer_p50_s": (median([r.bf_s for r in rounds]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "index_bytes_per_input_byte": (index_bytes[0] / (run.n * (run.d + 1) * 8), "count"),
    }


def _split(run, traced):
    rounds = [r for r in run.rounds if r.traced == traced]
    setups = [s for s, t in zip(run.setup_s, run.setup_traced) if t == traced]
    return rounds, setups


def end_to_end(run) -> dict:
    return _answers(run, *_split(run, False))


def _span_bytes(spans) -> int:
    return sum(sys.getsizeof(s) + sum(sys.getsizeof(x) for x in s) for s in spans)


def per_layer(run) -> dict:
    tr = run.tracer
    traced_rounds, _ = _split(run, True)

    def call(name, scale):
        return median(tr.durations(name)) * scale

    counted = [r.counts for r in traced_rounds if r.counts][:MIN_TEAMS]
    queries = len(counted)
    load_objects_s = call("dataio.load_objects", 1.0)
    rtc_ms = call("ranking.rtc_star_rank", 1e3)
    fingerprint_ms = call("nnindex.fingerprint", 1e3)
    traced = _answers(run, *_split(run, True))
    bf_minus_warm_ms = traced["bf_answer_p50_s"][0] * 1e3 - traced["warm_query_p50_ms"][0]
    metrics = {
        "dataio.gen_synthetic_s": (call("dataio.gen_synthetic", 1.0), "s"),
        "dataio.load_objects_s": (load_objects_s, "s"),
        "dataio.load_objects_rows_per_s": (run.n / load_objects_s if load_objects_s else 0.0, "1/s"),
        "dataio.load_rosters_s": (call("dataio.load_rosters", 1.0), "s"),
        "dataio.load_teams_ms": (call("dataio.load_teams", 1e3), "ms"),
        "dataio.rows_parsed_per_command": (counted[0].get("rows_parsed", 0), "count"),
        "core.digest_s": (call("core.digest", 1.0), "s"),
        "core.rates_s": (call("core.rates", 1.0), "s"),
        "weighting.compute_weights_ms": (call("weighting.compute_weights", 1e3), "ms"),
        "weighting.select_target_ms": (call("weighting.select_target", 1e3), "ms"),
        "nnindex.fingerprint_ms": (fingerprint_ms, "ms"),
        "nnindex.fingerprint_share_of_warm_query": (100.0 * fingerprint_ms / rtc_ms, "%"),
        "nnindex.build_index_s": (call("nnindex.build_index", 1.0), "s"),
        "nnindex.blocks_written": (counted[0]["blocks_written"], "count"),
        "nnindex.index_bytes": (counted[0]["index_bytes"], "B"),
        "nnindex.open_ms": (call("nnindex.open", 1e3), "ms"),
        "nnindex.query_min_raw_us": (call("nnindex.query_min_raw", 1e6), "us"),
        "nnindex.queries_counted": (queries, "count"),
        "nnindex.blocks_read_per_query": (sum(c["blocks_read"] for c in counted) / queries, "count"),
        "ranking.rtc_star_rank_ms": (rtc_ms, "ms"),
        "ranking.members_queried": (queries * M, "count"),
        "ranking.fallback_share": (sum(c["fallback"] for c in counted) / (queries * M), "ratio"),
        "ranking.results_returned": (queries * K, "count"),
        "ranking.rows_rescored_per_result": (
            sum(c["rows_rescored"] for c in counted) / (queries * K), "count"),
        "ranking.brute_force_rank_s": (call("ranking.brute_force_rank", 1.0), "s"),
        "ranking.bf_minus_warm_ms": (bf_minus_warm_ms, "ms"),
        "cli.self_ms": (median(tr.cli_self()) * 1e3, "ms"),
    }
    for layer, share in tr.layer_shares().items():
        metrics[f"{layer}.self_share"] = (share, "%")

    untraced = end_to_end(run)
    for name, (value, unit) in untraced.items():
        overhead = traced[name][0] - value
        if name == "peak_rss_mb":
            # one process holds both sides, so the span buffer is the measurable difference
            overhead = _span_bytes(tr.spans) / 2**20
        metrics[f"trace.overhead_{name}"] = (overhead, unit)
    metrics["trace.spans"] = (len(tr.spans), "count")
    return metrics


def extras(workload, run, metrics) -> list[str]:
    """Figures that are not metrics of record: sample counts, bases, tail, errors."""
    lines = [f"error_share {run.failed / max(run.attempted, 1):.6g} ({run.failed}/{run.attempted} answers)"]
    rounds = [r for r in run.rounds if not r.traced]
    warm = sorted(s for r in rounds for s in r.warm_s)
    lines.append(f"samples: setup={len(run.setup_s)} cold={len(rounds)} bf={len(rounds)} warm={len(warm)}")
    if len(warm) >= 1000:
        p99 = statistics.quantiles(warm, n=100)[98]
        lines.append(f"warm_query_p99_ms {p99 * 1e3:.6g} (n={len(warm)})")
    if workload == "league-csv":
        lines.append("cli_rank_cold_p50_s = cold_answer_p50_s, cli_rank_warm_p50_s = "
                     "warm_query_p50_ms / 1000, cli_rank_bf_p50_s = bf_answer_p50_s")
    if "nnindex.build_index_s" in metrics:
        build = metrics["nnindex.build_index_s"][0]
        saving = metrics["ranking.bf_minus_warm_ms"][0] / 1e3
        value = f"{build / saving:.6g}" if saving > 0 else "null"
        lines.append(f"break_even_queries {value} = nnindex.build_index_s {build:.6g} / "
                     f"(bf - warm) {saving:.6g} s")
    return lines
