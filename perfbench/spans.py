"""In-memory span recorder for the traced benchmark run.

A span is recorded around each call the benchmark makes into the program:
``[name, start, end, parent, op, root]``. ``name`` is ``<layer>.<call>``,
``parent`` and ``root`` are indices into the span list (-1 / own index at
the top), and ``op`` is the id of the answer or set-up step the span belongs
to. Spans stay in memory until :meth:`Tracer.write` at the end of the run.

The untraced run uses :class:`NullTracer`, which makes the same calls with
no recording, so the two runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

LAYERS = ("dataio", "core", "weighting", "nnindex", "ranking", "cli")


class NullTracer:
    op = ""
    _null = nullcontext()

    def span(self, name):
        return self._null

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        index = len(tr.spans)
        root = tr.spans[parent][5] if parent >= 0 else index
        tr.spans.append([self.name, time.perf_counter(), 0.0, parent, tr.op, root])
        tr._open.append(index)

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[tr._open.pop()][2] = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = ""

    def span(self, name):
        return _Span(self, name)

    def call(self, name, fn, *args, **kwargs):
        with _Span(self, name):
            return fn(*args, **kwargs)

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, covered)]

    def _replayed(self) -> dict[str, float]:
        """Per op, the time the direct children of its ``replay.*`` span took."""
        replayed: dict[str, float] = defaultdict(float)
        for _, start, end, parent, op, root in self.spans:
            if parent >= 0 and parent == root and self.spans[root][0].startswith("replay."):
                replayed[op] += end - start
        return replayed

    def cli_self(self) -> list[float]:
        """Per ``teamrank rank`` command: its duration minus its replayed calls."""
        replayed = self._replayed()
        return [s[2] - s[1] - replayed[s[4]] for s in self.spans
                if s[0] == "cli.cli_main" and s[4] in replayed]

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the time spent in answers.

        Answers are the spans named ``answer.*``. A ``teamrank rank`` command
        is one ``cli.cli_main`` call, so its layers are seen through the
        ``replay.*`` span that repeats the command's calls through the public
        API under the same op id; the cli layer keeps what the replay does
        not account for.
        """
        selfs = self.self_times()
        replayed = self._replayed()
        answer_total = 0.0
        totals = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, parent, op, root) in enumerate(self.spans):
            root_name = self.spans[root][0]
            layer = name.split(".", 1)[0]
            if i == root:
                if root_name.startswith("answer."):
                    answer_total += end - start
            elif layer not in LAYERS:
                continue
            elif root_name.startswith("replay."):
                totals[layer] += selfs[i]
            elif root_name.startswith("answer."):
                totals[layer] += selfs[i] - (replayed[op] if name == "cli.cli_main" else 0.0)
        return {layer: 100.0 * s / answer_total if answer_total else 0.0 for layer, s in totals.items()}

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "root")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
