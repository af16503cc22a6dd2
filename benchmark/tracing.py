"""Spans recorded by the benchmark around its calls into ``telempose``.

A span is one call into a layer: the unit call it belongs to, a name, a
start, an end and the index of the span that encloses it. Spans stay in
memory while the benchmark runs and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

#: Spans under a span whose name starts with this prefix re-run a public
#: call only to check the composed path against it; they are kept out of
#: the per-module split.
VERIFY = "verify."


class Tracer:
    def __init__(self):
        self.spans = []  # [call, name, start, end, parent]
        self._open = []
        self.call = -1

    @contextmanager
    def span(self, name: str):
        rec = [self.call, name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def _child_time(self):
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def _under_verify(self):
        flags = []
        for _, name, _, _, parent in self.spans:
            flags.append(name.startswith(VERIFY) or (parent >= 0 and flags[parent]))
        return flags

    def totals(self, verify: bool | None = None):
        """Per name: (count, inclusive seconds, self seconds).

        ``verify=False`` keeps only spans outside verification subtrees,
        ``True`` only those inside, ``None`` all of them.
        """
        covered = self._child_time()
        flags = self._under_verify()
        out = {}
        for i, (_, name, start, end, _) in enumerate(self.spans):
            if verify is not None and flags[i] != verify:
                continue
            n, inc, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, inc + end - start, own + end - start - covered[i])
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["call", "name", "start", "end", "parent"],
                       "spans": self.spans}, f)
