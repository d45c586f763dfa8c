"""The benchmark under ``perfbench/`` still runs against this checkout's program.

One set-up and one answer of each kind on ``elite-100k``: the run imports
every name the benchmark calls and drives the synthetic path, so a change
that removes or re-signs one of them fails here, not only in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_elite_workload_answers_without_a_failure():
    command = [sys.executable, "perfbench/run.py", "--workload", "elite-100k", "--seed", "1", "--seconds", "0", "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
