"""In-process runner: times a workload's requests through the package's
public API and checks every answer.

run.py starts it as a child process with the package on PYTHONPATH:

    python3 perfbench/inproc.py WORKDIR TRACE SPANS.jsonl

It reads WORKDIR/spec.json, writes the census streams to
WORKDIR/streams.json and prints "ready". Each "pass" line on standard input
then runs one timed pass (plus one traced pass when TRACE is 1) and prints
"done"; "finish" runs the checks, writes WORKDIR/inproc.json and prints
"finished". Failures are budget timeouts, verdicts still unknown after the
solver fallback, and raised exceptions; wrong answers are reported
separately as errors.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter

from balanced_coloring import (
    Budget,
    Graph,
    IdentityViolationError,
    InvalidColoringError,
    build_family,
    cartesian,
    characterize_family,
    check_identities,
    color_cartesian,
    color_complement_bridge,
    color_join,
    color_lexicographic,
    color_strong,
    decode,
    decompose_cnbc_tree,
    encode,
    enumerate_colorings,
    join,
    leaf_force,
    lexicographic,
    prefilter_reason,
    replay,
    solve,
    strong,
    verify,
)

from spans import LAYERS, NullTracer, Tracer, fastest, summarize
from workloads import SMALL_ORDER, UNREACHABLE_MS

WARMUP_REQUESTS = 20
HEAVY_EVERY = 2


def _params(params: list) -> tuple:
    return tuple(tuple(p) if isinstance(p, list) else p for p in params)


def _bits(c) -> int | None:
    return c.bits if c is not None else None


class Runner:
    """Executes requests; `t` is the tracer every package call goes through."""

    def __init__(self, spec: dict):
        self.t = NullTracer()
        self.streams = spec["streams"]
        self.budget = Budget(max_nodes=spec["budget_nodes"], max_millis=UNREACHABLE_MS)
        if "fallback_nodes" in spec:  # theorems only
            self.fallback = Budget(max_nodes=spec["fallback_nodes"], max_millis=UNREACHABLE_MS)
        self.factors: dict[str, tuple] = {}

    # -- requests: each returns (failed, key, payload) ------------------------
    # key is a deterministic summary compared across passes; payload keeps
    # the objects the correctness checks need.

    def tree(self, s: int, i: int):
        t = self.t
        g = t.call("graph6.decode", decode, self.streams[s]["lines"][i])
        o = t.call("solver.solve", solve, g, "cnb", self.budget)
        script = t.call("trees.decompose_cnbc_tree", decompose_cnbc_tree, g)
        rebuilt = None if script is None else t.call("trees.replay", replay, script)
        key = (o.status, _bits(o.witness), o.stats.nodes, o.stats.propagations,
               script is not None)
        return o.status == "timeout", key, (g, "cnb", o, script, rebuilt)

    def dense(self, s: int, i: int):
        t = self.t
        mode = self.streams[s]["mode"]
        g = t.call("graph6.decode", decode, self.streams[s]["lines"][i])
        o = t.call("solver.solve", solve, g, mode, self.budget)
        key = (o.status, _bits(o.witness), o.stats.nodes, o.stats.propagations)
        return o.status == "timeout", key, (g, mode, o)

    def _audit(self, g, c, mode) -> bool:
        t = self.t
        if not t.call("coloring.verify", verify, g, c, mode):
            return False
        try:
            t.call("coloring.check_identities", check_identities, g, c, mode, True)
        except (IdentityViolationError, InvalidColoringError):
            return False
        return True

    def family(self, kind: str, params: list, mode: str):
        """What `balanced-coloring family` does, plus a witness audit."""
        t = self.t
        params = _params(params)
        g = t.call("graphs.build_family", build_family, kind, *params)
        v = t.call("constructions.characterize_family", characterize_family,
                   kind, params, mode)
        value, witness, nodes, props, timeout = v.value, v.witness, 0, 0, False
        if value == "unknown":
            o = t.call("solver.solve", solve, g, mode, self.fallback)
            nodes, props = o.stats.nodes, o.stats.propagations
            timeout = o.status == "timeout"
            if o.status == "sat":
                value, witness = "yes", o.witness
            elif o.status == "unsat":
                value = "no"
        t.call("graph6.encode", encode, g)
        ok = witness is None or self._audit(g, witness, mode)
        key = (value, v.value == "unknown", _bits(witness), nodes, props, timeout, ok)
        return value == "unknown", key, (g, mode, value, witness, ok)

    def factor(self, member: list) -> tuple:
        """A family member and, when a mode is given, its theorem witness."""
        name = json.dumps(member)
        if name not in self.factors:
            kind, params, mode = member
            g = build_family(kind, *_params(params))
            w = characterize_family(kind, _params(params), mode).witness if mode else None
            if mode and w is None:
                raise ValueError(f"product factor {member} has no theorem witness")
            self.factors[name] = (g, w)
        return self.factors[name]

    def product(self, op: str, left: list, right: list | None, mode: str):
        t = self.t
        g, cg = self.factor(left)
        h, ch = self.factor(right) if right else (None, None)
        if op == "cartesian":
            out = t.call("graphs.cartesian", cartesian, g, h)
            col = t.call("constructions.color_cartesian", color_cartesian, g, cg, h, ch)
        elif op == "strong":
            out = t.call("graphs.strong", strong, g, h)
            col = t.call("constructions.color_strong", color_strong, g, cg, h)
        elif op == "lexicographic":
            out = t.call("graphs.lexicographic", lexicographic, g, h)
            col = t.call("constructions.color_lexicographic", color_lexicographic, g, h, ch)
        elif op == "join":
            out = t.call("graphs.join", join, g, h)
            col = t.call("constructions.color_join", color_join, g, cg, h, ch, mode)
        else:
            direction = "cnb->nb" if mode == "nb" else "nb->cnb"
            out, col = t.call("constructions.color_complement_bridge",
                              color_complement_bridge, g, cg, direction)
        t.call("graph6.encode", encode, out)
        ok = self._audit(out, col, mode)
        return False, (col.bits, ok), (out, mode, "yes", col, ok)

    def enum(self, kind: str, params: list, mode: str):
        t = self.t
        g = t.call("graphs.build_family", build_family, kind, *_params(params))
        r = t.call("solver.enumerate_colorings", enumerate_colorings, g, mode)
        return False, (len(r.colorings), r.capped), (g, mode, r)

    def run(self, req: list):
        try:
            return getattr(self, req[0])(*req[1:])
        except Exception as exc:  # a raised exception is a counted failure
            return True, ("error", type(exc).__name__), None


def one_pass(runner: Runner, requests: list, prefix="", only=None) -> tuple[list, list]:
    """Run every request once, or those whose indices are in `only`; return
    results and per-request latency ns, None for a request not run."""
    t = runner.t
    clock = time.perf_counter_ns
    results, latencies = [None] * len(requests), [None] * len(requests)
    for i in range(len(requests)) if only is None else only:
        token = t.root(f"{prefix}{i}" if prefix else i)
        a = clock()
        results[i] = runner.run(requests[i])
        latencies[i] = clock() - a
        t.end(token)
    return results, latencies


class Passes:
    """Timed passes over the requests, run one at a time when run.py asks,
    so that they interleave with its census runs and set-up launches. With
    `traced`, each untraced pass is paired with one under a fresh Tracer, in
    alternating order.

    The machine's speed drifts by tens of percent over seconds, so each
    request's latency is its fastest pass: the work is deterministic and
    CPU-bound, so interference only ever adds time. A short request settles
    on its fastest time only after many passes, while a long one spans fast
    and slow phases alike; so in untraced runs, when `heavy_ms` is given, a
    request that took longer in both of the first two passes runs only every
    HEAVY_EVERY-th pass after them, and the short ones get more passes in
    the same time.
    """

    def __init__(self, runner: Runner, requests: list, traced: bool,
                 heavy_ms: float | None = None):
        self.runner, self.requests, self.traced = runner, requests, traced
        self.heavy_ms = heavy_ms
        self.lat: dict[bool, list] = {False: [], True: []}
        self.tracers: list[Tracer] = []
        self.first = None
        self.light = None  # indices run in every pass; None until two passes
        self.nondeterministic: set[int] = set()
        self.cpus = sorted(os.sched_getaffinity(0))
        for req in requests[:WARMUP_REQUESTS]:
            runner.run(req)

    def run(self) -> None:
        k = len(self.lat[False])
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})  # see run.on_cpu
        order = (False, True) if k % 2 == 0 else (True, False)
        only = None if self.light is None or k % HEAVY_EVERY == 0 else self.light
        for with_spans in order if self.traced else (False,):
            self.runner.t = Tracer() if with_spans else NullTracer()
            results, latencies = one_pass(self.runner, self.requests, only=only)
            self.lat[with_spans].append(latencies)
            if with_spans:
                self.tracers.append(self.runner.t)
            if self.first is None:
                self.first = results
            else:
                self.nondeterministic.update(
                    i for i, (x, y) in enumerate(zip(self.first, results))
                    if y is not None and x[1] != y[1])
        self.runner.t = NullTracer()
        if self.light is None and self.heavy_ms and not self.traced and k == 1:
            self.light = [i for i, ns in enumerate(self._best(self.lat[False]))
                          if ns <= self.heavy_ms * 1e6]

    @staticmethod
    def _best(lat: list) -> list:
        return [min(x for x in column if x is not None) for column in zip(*lat)]

    def summary(self) -> dict:
        best = self._best(self.lat[False])
        q = statistics.quantiles(best, n=10, method="inclusive")
        out = {"passes": len(self.lat[False]), "best_ns": sum(best),
               "heavy": 0 if self.light is None else len(self.requests) - len(self.light),
               "heavy_ms": self.heavy_ms,
               "full_passes": sum(1 for x in self.lat[False] if None not in x),
               "items_per_s": len(best) / (sum(best) / 1e9),
               "item_ms_p50": statistics.median(best) / 1e6, "item_ms_p90": q[8] / 1e6,
               "samples": len(best), "beyond_p90": sum(1 for x in best if x > q[8])}
        if self.traced:
            out["best_traced_ns"] = sum(self._best(self.lat[True]))
        return out


def fill_theorem_streams(runner: Runner, requests: list) -> None:
    """Census streams for `theorems`: every distinct small family member."""
    seen = set()
    for req in requests:
        if req[0] != "family":
            continue
        _, kind, params, mode = req
        g = build_family(kind, *_params(params))
        line = encode(g)
        if g.n <= SMALL_ORDER and (line, mode) not in seen:
            seen.add((line, mode))
            s = next(s for s in runner.streams if s["mode"] == mode)
            s["lines"].append(line)
            s["expect"].append(None)


def mirror_requests(runner: Runner) -> list:
    return [["dense", si, i] for si, s in enumerate(runner.streams)
            for i in range(len(s["lines"]))]


def check(runner: Runner, requests: list, results: list, line_results: list) -> list:
    """Wrong answers in the first pass, as messages."""
    t = runner.t
    errors = []

    def wrong(req, msg):
        errors.append(f"{json.dumps(req)}: {msg}")

    for req, (_failed, _key, payload) in zip(requests, results):
        if payload is None:
            continue
        kind = req[0]
        if kind in ("tree", "dense"):
            g, mode, o = payload[:3]
            expect = runner.streams[req[1]]["expect"][req[2]]
            if o.status == "sat" and not t.call("coloring.verify", verify, g, o.witness, mode):
                wrong(req, "sat witness fails verify")
            if expect == "sat" and o.status == "unsat":
                wrong(req, "planted colorable instance reported unsat")
        if kind == "tree":
            script, rebuilt = payload[3:]
            if o.status != "timeout" and (o.status == "sat") != (script is not None):
                wrong(req, f"solve says {o.status}, tree recognizer disagrees")
            if rebuilt is not None:
                g2, col = rebuilt
                if g2.adj != g.adj or not t.call("coloring.verify", verify, g2, col, "cnb"):
                    wrong(req, "replayed script does not rebuild the tree with a valid coloring")
        if kind in ("family", "product") and not payload[4]:
            wrong(req, "witness fails verify or a counting identity")
        if kind == "enum":
            g, mode, r = payload
            texts = [c.to_text() for c in r.colorings]
            flips = {c.flip().to_text() for c in r.colorings}
            if texts != sorted(set(texts)) or flips != set(texts) or not texts:
                wrong(req, "enumeration not sorted, not closed under swap, or empty")
            if not all(t.call("coloring.verify", verify, g, c, mode) for c in r.colorings):
                wrong(req, "enumerated coloring fails verify")
    # theorem verdicts on small orders must agree with exhaustive search
    solved = {}
    for s, lines in zip(runner.streams, line_results):
        for line, (status, _w) in zip(s["lines"], lines):
            solved[(line, s["mode"])] = status
    for req, (_f, _k, payload) in zip(requests, results):
        if req[0] == "family" and payload is not None and payload[0].n <= SMALL_ORDER:
            g, mode, value = payload[:3]
            status = solved[(encode(g), mode)]
            if (value, status) in (("no", "sat"), ("yes", "unsat")):
                wrong(req, f"verdict {value} but exhaustive search says {status}")
    return errors


def line_results_from(runner: Runner, requests: list, results: list) -> list:
    out = [[None] * len(s["lines"]) for s in runner.streams]
    for req, (_f, key, payload) in zip(requests, results):
        if req[0] in ("tree", "dense"):
            o = payload[2] if payload else None
            w = o.witness.to_text() if o and o.witness else None
            out[req[1]][req[2]] = [o.status if o else key[0], w]
    return out


def probes(runner: Runner, results: list) -> int:
    """Time package calls that requests only make internally, on every
    request graph: Graph validation, leaf_force and prefilter_reason."""
    t = runner.t
    rejects = 0
    token = t.root("probe")
    for _f, _k, payload in results:
        if payload is None or not isinstance(payload[0], Graph):
            continue
        g, mode = payload[0], payload[1]
        t.call("graphs.Graph", Graph, g.n, g.adj)
        t.call("coloring.leaf_force", leaf_force, g, mode)
        if t.call("solver.prefilter_reason", prefilter_reason, g, mode) is not None:
            rejects += 1
    t.end(token)
    return rejects


def counts(requests: list, results: list) -> dict:
    c = dict.fromkeys(("nodes", "propagations", "timeouts", "family", "unknown",
                       "enum_colorings", "decompose", "recognized"), 0)
    for req, (_failed, key, _p) in zip(requests, results):
        kind = req[0]
        if key[0] == "error":
            continue
        if kind in ("tree", "dense"):
            c["nodes"] += key[2]
            c["propagations"] += key[3]
            c["timeouts"] += key[0] == "timeout"
        if kind == "tree":
            c["decompose"] += 1
            c["recognized"] += key[4]
        if kind == "family":
            c["family"] += 1
            c["unknown"] += key[1]
            c["nodes"] += key[3]
            c["propagations"] += key[4]
            c["timeouts"] += key[5]
        if kind == "enum":
            c["enum_colorings"] += key[0]
    return c


def layer_metrics(passes: Passes, timing: dict, aux: Tracer, c: dict, rejects: int,
                  probed: int) -> dict:
    """Per-layer metrics from the traced passes (request spans, fastest pass
    per request) and from the probes and checks (aux spans outside requests,
    mirror spans excluded)."""
    req = fastest([summarize(t.spans) for t in passes.tracers])
    outside = summarize([s for s in aux.spans if not str(s[5]).startswith("m")])
    ns, calls = Counter(req["ns"]), req["calls"] + outside["calls"]
    for (_rid, name), value in outside["ns"].items():
        ns[name] += value
    wall = req["ns"]["request"] or 1

    def us(*names):
        n = sum(calls[x] for x in names)
        return sum(ns[x] for x in names) / n / 1e3 if n else 0.0

    def starting(prefix, exclude=""):
        return [x for x in calls if x.startswith(prefix) and x != exclude]

    def frac(a, b):
        return a / b if b else 0.0

    m = {
        "graph6.decode_us": us("graph6.decode"),
        "graph6.decode_share": req["ns"]["graph6.decode"] / wall,
        "graph6.encode_us": us("graph6.encode"),
        "graphs.validate_us": us("graphs.Graph"),
        "graphs.build_us": us(*starting("graphs.", "graphs.Graph")),
        "coloring.leaf_force_us": us("coloring.leaf_force"),
        "coloring.verify_us": us("coloring.verify"),
        "coloring.identities_us": us("coloring.check_identities"),
        "solver.prefilter_us": us("solver.prefilter_reason"),
        "solver.prefilter_reject_frac": frac(rejects, probed),
        "solver.solve_us": us("solver.solve"),
        "solver.nodes": c["nodes"],
        "solver.propagations": c["propagations"],
        "solver.nodes_per_s": frac(c["nodes"], req["ns"]["solver.solve"] / 1e9),
        "solver.timeouts": c["timeouts"],
        "solver.enum_us": us("solver.enumerate_colorings"),
        "solver.enum_colorings": c["enum_colorings"],
        "constructions.characterize_us": us("constructions.characterize_family"),
        "constructions.unknown_frac": frac(c["unknown"], c["family"]),
        "constructions.fallback_share": (req["ns"]["solver.solve"] / wall if c["family"]
                                         else 0.0),
        "constructions.product_us": us(*starting("constructions.color_")),
        "trees.decompose_us": us("trees.decompose_cnbc_tree"),
        "trees.replay_us": us("trees.replay"),
        "trees.recognized_frac": frac(c["recognized"], c["decompose"]),
        "trace.overhead_frac": timing["best_traced_ns"] / timing["best_ns"] - 1.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = req["self_ns"][layer] / wall
    return m


def main(argv: list[str]) -> int:
    work, trace, spans_path = argv
    traced = trace == "1"
    with open(f"{work}/spec.json", encoding="ascii") as fh:
        spec = json.load(fh)
    runner = Runner(spec)
    requests = spec["requests"]
    theorems = not any(s["lines"] for s in spec["streams"])
    if theorems:
        fill_theorem_streams(runner, requests)
    for req in requests:  # product factors are inputs, built before timing
        if req[0] == "product":
            runner.factor(req[2])
            if req[3]:
                runner.factor(req[3])

    passes = Passes(runner, requests, traced, spec.get("heavy_ms"))
    with open(f"{work}/streams.json", "w", encoding="ascii") as fh:
        json.dump([{"mode": s["mode"], "lines": s["lines"]} for s in runner.streams], fh)
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        passes.run()
        print("done", flush=True)
    timing = passes.summary()
    results = passes.first
    aux = runner.t = Tracer() if traced else NullTracer()
    # theorems requests decode nothing, so census results and library time
    # for its streams come from a separate mirror of what census does
    mirror = mirror_requests(runner) if theorems else []
    mirror_runs = [one_pass(runner, mirror, f"m{k}:")[0] for k in range(3 if traced else 1)]
    line_results = (line_results_from(runner, mirror, mirror_runs[0]) if theorems
                    else line_results_from(runner, requests, results))
    token = aux.root("check")
    errors = check(runner, requests, results, line_results)
    aux.end(token)
    if passes.nondeterministic:
        errors.append(f"requests {sorted(passes.nondeterministic)[:10]} differ between passes")

    failed = sum(1 for f, _k, _p in results if f)
    fail_kinds = Counter(key[1] if key[0] == "error" else key[0]
                         for f, key, _p in results if f)
    # the package's default node budget: these probe robustness, not speed
    robust_budget = Budget(max_millis=UNREACHABLE_MS)
    for item in spec["robust"]:
        rows = item["rows"]
        try:
            status = solve(Graph(len(rows), tuple(rows)), item["mode"], robust_budget).status
        except Exception as exc:  # counted as a failure, as the CLI would crash
            status = type(exc).__name__
        if status not in ("sat", "unsat"):
            failed += 1
            fail_kinds[f"{item['name']}:{status}"] += 1

    c = counts(requests, results)
    out = {**timing, "attempted": len(requests) + len(spec["robust"]), "failed": failed,
           "fail_kinds": dict(fail_kinds), "errors": errors,
           "line_results": line_results, "counts": c}
    if traced:
        rejects = probes(runner, results)
        probed = sum(1 for r in results if r[2] is not None and isinstance(r[2][0], Graph))
        out["layers"] = layer_metrics(passes, timing, aux, c, rejects, probed)
        # library time of the census items: decode plus solve, fastest pass
        if theorems:
            lib = fastest([summarize([(*s[:5], s[5].split(":")[1]) for s in aux.spans
                                      if str(s[5]).startswith(f"m{k}:")])
                           for k in range(len(mirror_runs))])
        else:
            lib = fastest([summarize(t.spans) for t in passes.tracers])
        out["lib_ns"] = lib["ns"]["graph6.decode"] + lib["ns"]["solver.solve"]
        with open(spans_path, "w", encoding="ascii") as fh:
            for k, t in enumerate(passes.tracers):
                t.dump(fh, f"pass{k}")
            aux.dump(fh, "outside")
    with open(f"{work}/inproc.json", "w", encoding="ascii") as fh:
        json.dump(out, fh)
    print("finished", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
