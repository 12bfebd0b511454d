"""In-memory spans around the benchmark's calls into catent.

A span is ``(name, start, end, parent, op, replayed, error)``: ``parent``
is the index of the enclosing span (or -1), ``op`` the id of the op it
belongs to (-1 during set-up).  Spans are kept in a list and written
out once, when the run ends.  The untraced run uses ``NullTracer``,
whose ``span`` does nothing, so both runs execute the same call sites.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("ingest", "model", "entropy", "metric", "algebra", "randgen", "cli")
REPLAY = "replay."


class NullTracer:
    enabled = False
    op = -1

    def span(self, name: str, replayed: bool = False):
        return nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, replayed: bool = False):
        if replayed:
            name = REPLAY + name
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.op, replayed, False]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except BaseException:
            record[6] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "op", "replayed", "error")
        payload = dict(header, counts=dict(self.counts),
                       spans=[dict(zip(keys, s)) for s in self.spans])
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")

    # -- derived per-layer figures ------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> dict[str, float]:
        """Busy seconds, self seconds and calls per span name; busy seconds,
        self seconds and errors per layer.  Layer figures come from direct
        spans only: replayed spans are extra work, reported under their own
        ``replay.`` names."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op, replayed, error), self_s in zip(
            self.spans, self.self_times()
        ):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            layer = name.split(".", 1)[0]
            if layer in LAYERS and not replayed:
                # spans of one layer never nest, so their sum is the union
                out[f"{layer}.busy_s"] += end - start
                out[f"{layer}.self_s"] += self_s
                out[f"{layer}.errors"] += error
        return out
