"""In-memory span tracer for the benchmark's traced runs.

A span is (name, start, end, parent).  Spans are recorded by wrapping a
public function under the name its caller looks it up by, so calls that one
fracseg module makes into another are seen without touching package code.
Counters (call counts, bytes, factor fill) are kept at the same boundaries.
Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []

    def call(self, name, fn, args, kwargs, after=None):
        """Run fn inside a span; after(result), if given, counts the result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(result)
        return result

    def span(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)

    def wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)
        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr, value):
        """Set owner.attr to value until restore()."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, after=None):
        """Replace owner.attr by a traced wrapper of itself."""
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def totals(self):
        """Per span name: call count, summed duration and summed self time.

        Self time is a span's duration minus the part of it that its child
        spans cover; children of one span never overlap (one thread).
        """
        child_cover = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_cover[idx]
        return out

    def bookkeeping_s(self, probes=20000):
        """Seconds the tracer itself added, estimated as the number of spans
        times the measured cost of one span around a no-op call."""
        noop = Tracer().wrap(lambda: None, "noop")
        t = time.perf_counter()
        for _ in range(probes):
            noop()
        return (time.perf_counter() - t) / probes * len(self.spans)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
