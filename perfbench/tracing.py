"""Spans around the benchmark's own calls into qclogic.

A span records a name, start and end times, the span open around it and the
job it belongs to, plus work counts given by the caller.  Spans stay in
memory until the run ends.  The untraced runs use :data:`OFF`, whose spans
cost one method call and record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.job = None

    @contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        record = {"name": name, "job": self.job,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, self seconds (span minus the time its child
        spans cover) and the summed work counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for s, inner in zip(self.spans, child_time):
            agg = out[s["name"]]
            agg["calls"] += 1
            agg["s"] += (s["end"] - s["start"]) - inner
            for key, value in s["counts"].items():
                agg[key] += value
        return out


class _Off:
    def span(self, name: str, **counts):
        return nullcontext({"counts": counts})


OFF = _Off()
