"""Benchmark of record for teamrank.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dominant-1m --seed 1 --seconds 25 --trace 0

It imports the program from ``src/`` of the same checkout, runs one
workload (see ``workloads.py`` and ``README.md``), checks every answer
against the in-memory ``bf`` oracle and prints a report. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench/traces/``. Exit code 0 when every answer was right, 1 when
one was wrong or raised, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and insist it is what gets imported."""
    package = SRC / "teamrank"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import teamrank

    if Path(teamrank.__file__).resolve().parent != package:
        print(f"perfbench: imported teamrank from {teamrank.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def report(workload, seed, trace, run, metrics, extras) -> None:
    """Human-readable lines ahead of the result line."""
    print(f"perfbench {workload} seed={seed} trace={trace} n={run.n} d={run.d} "
          f"rounds={len(run.rounds)} setups={len(run.setup_s)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit}")
    for line in extras(workload, run, metrics):
        print(f"  {line}")
    for problem in run.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from metrics import end_to_end, extras, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORKDIR.mkdir(exist_ok=True)
    scratch = WORKDIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), scratch).run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # rounds that raised are not kept; with none left there is nothing to measure
    metrics = {} if not run.rounds else per_layer(run) if args.trace else end_to_end(run)
    if args.trace:
        traces = WORKDIR / "traces"
        traces.mkdir(exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    report(args.workload, args.seed, args.trace, run, metrics, extras)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
