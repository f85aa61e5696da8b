"""Spans recorded by the benchmark around its own calls into the package.

A span is (id, name, start_ns, end_ns, parent id, request id). A request's
root span is named "request"; the spans inside it are named
"<layer>.<function>", where the layer is the package module called. Spans
stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("graph6", "graphs", "coloring", "solver", "constructions", "trees")


class NullTracer:
    """The interface of Tracer, recording nothing (untraced runs)."""

    def call(self, name, fn, *args):
        return fn(*args)

    def root(self, rid):
        return None

    def end(self, token):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._rid = None

    def _open(self, name: str) -> tuple:
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return (sid, name, parent, time.perf_counter_ns())

    def root(self, rid) -> tuple:
        """Open the root span of request `rid`; close it with `end`."""
        self._rid = rid
        return self._open("request")

    def end(self, token: tuple) -> None:
        stop = time.perf_counter_ns()
        sid, name, parent, start = token
        self._stack.pop()
        self.spans.append((sid, name, start, stop, parent, self._rid))

    def call(self, name: str, fn, *args):
        token = self._open(name)
        try:
            return fn(*args)
        finally:
            self.end(token)

    def dump(self, fh, group: str) -> None:
        """Write the spans as JSON lines, tagged with `group`."""
        for sid, name, start, stop, parent, rid in sorted(self.spans):
            fh.write(json.dumps({"group": group, "id": sid, "name": name,
                                 "start_ns": start, "end_ns": stop,
                                 "parent": parent, "request": rid}) + "\n")


def summarize(spans: list[tuple]) -> dict:
    """Per (request, span name): total ns; per (request, layer): self ns,
    a span's duration minus the part its children cover; per name: calls."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, _name, start, stop, parent, _rid in spans:
        if parent != -1:
            child_ns[parent] += stop - start
    out = {"ns": defaultdict(int), "self_ns": defaultdict(int), "calls": Counter()}
    for sid, name, start, stop, _parent, rid in spans:
        out["ns"][rid, name] += stop - start
        out["self_ns"][rid, name.split(".", 1)[0]] += stop - start - child_ns[sid]
        out["calls"][name] += 1
    return out


def fastest(summaries: list[dict]) -> dict:
    """Totals by span name and by layer over passes of the same requests,
    each request counted at its fastest pass for that name or layer, as the
    end-to-end latencies are; calls are per pass."""
    out = {}
    for key in ("ns", "self_ns"):
        total = Counter()
        for rid_name in summaries[0][key]:
            total[rid_name[1]] += min(s[key].get(rid_name, 0) for s in summaries)
        out[key] = total
    out["calls"] = summaries[0]["calls"]
    return out
