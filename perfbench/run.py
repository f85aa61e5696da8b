"""Benchmark for balanced-coloring: census, exact search and theorem paths.

    python3 perfbench/run.py --workload trees|dense|theorems --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src, and
nothing needs installing. The workload's inputs are generated from the seed
(perfbench/workloads.py). For about S seconds, rounds repeat of three
in-process passes over all requests (perfbench/inproc.py, a child process)
and two set-up launches; in traced runs a round also holds one
`balanced-coloring census` run per stream with --workers 1 and two with
--workers 2, and untraced runs run the census once, for its answers and its
peak RSS. Every answer is checked; a wrong one ends the run with exit code 1
and no result.

The last line of standard output is one JSON object. With --trace 0 its
metrics are the end-to-end ones, measured untraced; with --trace 1 they are
the per-layer ones, from a traced pass after each untraced one (spans are
written to .perfbench/spans-WORKLOAD.jsonl). The lines before it name every
metric with its unit, the failure count with its base, and the machine's
speed during the run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# per round; in-process requests are timed at their fastest pass, which
# needs many passes to settle on a machine shared with busy tenants, and a
# round's set-up time is its fastest launch
PASSES_PER_ROUND = 3
SETUP_PER_ROUND = 2
PROCESS_LIMIT_S = 120.0
CPUS = sorted(os.sched_getaffinity(0))


class BenchError(Exception):
    """No valid result: a wrong answer, a crash, a bad exit code, or metrics
    that do not match BENCHMARK.json."""


def launch(cmd: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[float, int, float]:
    """Run a command to completion; return (wall s, exit code, peak RSS MB)
    of that one child, from os.wait4."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=ROOT)
        guard = threading.Timer(PROCESS_LIMIT_S, os.kill, (proc.pid, signal.SIGKILL))
        guard.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


@contextlib.contextmanager
def on_cpu(k: int):
    """Start the block's child processes on the k-th CPU, cyclically. Other
    tenants can slow one CPU for a whole run; taking CPUs in turn keeps that
    from holding every sample."""
    os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, CPUS)


def census_cmd(stream: Path, mode: str, nodes: int, workers: int) -> list[str]:
    return [sys.executable, "-m", "balanced_coloring", "census", "--input", str(stream),
            "--mode", mode, "--budget-nodes", str(nodes),
            "--budget-ms", str(workloads.UNREACHABLE_MS), "--workers", str(workers)]


def read_census(path: Path) -> list[list]:
    out = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            d = json.loads(line)
            out.append([d["status"], d["witness"]])
    return out


def reference_loop(samples: int = 20) -> list[float]:
    """Timings in ms of a fixed pure-Python loop, a gauge of how fast the
    machine runs at the moment (it drifts when neighbours are busy)."""
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i
        out.append((time.perf_counter() - start) * 1e3)
    return out


def setup_launch(env: dict, work: Path) -> float:
    """Wall time of `census` on an empty file: interpreter start, imports
    and argument parsing, which every CLI call pays."""
    empty = work / "empty.g6"
    empty.touch()
    wall, code, _rss = launch(census_cmd(empty, "cnb", 1, 1), env,
                              work / "setup.out", work / "setup.err")
    if code != 0:
        raise BenchError(f"census on an empty file exited {code}")
    return wall


class Census:
    """`balanced-coloring census` over the workload's streams, with
    --workers 1 and --workers 2. A stream's time is its fastest run, as for
    in-process requests; every run's output must match the first one."""

    def __init__(self, streams: list[dict], nodes: int, env: dict, work: Path):
        self.streams, self.nodes, self.env, self.work = streams, nodes, env, work
        self.paths = []
        for k, s in enumerate(streams):
            path = work / f"stream{k}.g6"
            path.write_text("".join(line + "\n" for line in s["lines"]), encoding="ascii")
            self.paths.append(path)
        self.walls = {(w, k): [] for w in (1, 2) for k in range(len(streams))}
        self.outputs: dict[int, list] = {}
        self.rss = 0.0

    def round(self, index: int, workers_runs: tuple = (1, 2, 2)) -> None:
        # a --workers 2 run is fast only while both CPUs are, so it gets
        # two samples a round
        for workers in workers_runs:
            for k, (s, path) in enumerate(zip(self.streams, self.paths)):
                out, err = self.work / f"census{k}.out", self.work / f"census{k}.err"
                with on_cpu(index + k) if workers == 1 else contextlib.nullcontext():
                    wall, code, peak = launch(census_cmd(path, s["mode"], self.nodes, workers),
                                              self.env, out, err)
                if code != 0:
                    raise BenchError(f"census --workers {workers} exited {code}: "
                                     + err.read_text(errors="replace")[-2000:])
                got = read_census(out)
                if self.outputs.setdefault(k, got) != got:
                    raise BenchError(f"census --workers {workers} on the {s['mode']} "
                                     "stream differs from its first run")
                self.walls[workers, k].append(wall)
                if workers == 1:
                    self.rss = max(self.rss, peak)

    def check(self, expected: list) -> None:
        """Line-by-line agreement with the in-process results."""
        for k, s in enumerate(self.streams):
            got, want = self.outputs[k], expected[k]
            if got != want:
                bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                           min(len(got), len(want)))
                raise BenchError(f"{s['mode']} stream line {bad}: census says "
                                 f"{got[bad:bad + 1]}, in-process {want[bad:bad + 1]}")

    def summary(self) -> dict:
        items = sum(len(s["lines"]) for s in self.streams)
        best = {w: sum(min(self.walls[w, k]) for k in range(len(self.streams)))
                for w in (1, 2)}
        return {"launches": len(self.streams), "w1_wall": best[1],
                "cli_items_per_s": items / best[1], "cli_items_per_s_par": items / best[2],
                "peak_rss_mb": self.rss}


class InProcess:
    """The in-process runner (inproc.py) as a child driven over pipes."""

    def __init__(self, cmd: list[str], env: dict, err: Path, limit_s: float):
        self.err = err
        self._err = open(err, "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err)
        self.guard = threading.Timer(limit_s, os.kill, (self.proc.pid, signal.SIGKILL))
        self.guard.start()
        self.usage = None
        self.expect("ready")

    def expect(self, word: str) -> None:
        if self.proc.stdout.readline().strip() != word:
            self.close(kill=True)
            raise BenchError("in-process runner failed: "
                             + self.err.read_text(errors="replace")[-3000:])

    def ask(self, command: str, reply: str) -> None:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError:
            pass  # the runner died; expect() reports its stderr
        self.expect(reply)

    def close(self, kill: bool = False) -> None:
        """Reap the child (killing it first if asked) and keep its rusage."""
        if self.usage is not None:
            return
        if kill:
            os.kill(self.proc.pid, signal.SIGKILL)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        _pid, status, self.usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.guard.cancel()
        self._err.close()


def bench(args, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("BALANCED_COLORING_WORKERS", None)
    spec = workloads.BUILDERS[args.workload](args.seed)
    (work / "spec.json").write_text(json.dumps(spec), encoding="ascii")
    spans_path = WORK / f"spans-{args.workload}.jsonl"

    setup_launch(env, work)  # warms the file caches; not counted
    setup_walls = []
    runner = InProcess([sys.executable, str(HERE / "inproc.py"), str(work), str(args.trace),
                        str(spans_path)], env, work / "inproc.err",
                       args.seconds + PROCESS_LIMIT_S)
    try:
        streams = json.loads((work / "streams.json").read_text(encoding="ascii"))
        census = Census(streams, spec["budget_nodes"], env, work)
        if not args.trace:
            # untraced runs need the census only for its answers and its
            # peak RSS, so the run's time goes to in-process passes
            census.round(0, (1, 2))
        # in-process passes, census runs (traced runs only) and set-up
        # launches take turns, so that each is sampled across the whole run
        rounds = 0
        calibration: list[float] = []
        split = {"in-process": 0.0, "census": 0.0} if args.trace else {"in-process": 0.0}
        start = time.perf_counter()
        now = start
        # at least two rounds; the last is the one that ends nearest the
        # deadline, judged by the mean round so far
        while rounds < 2 or now + (now - start) / rounds / 2 < start + args.seconds:
            a = time.perf_counter()
            for _ in range(PASSES_PER_ROUND):
                runner.ask("pass", "done")
            b = time.perf_counter()
            split["in-process"] += b - a
            if args.trace:
                census.round(rounds)
                split["census"] += time.perf_counter() - b
            walls = []
            for k in range(SETUP_PER_ROUND):
                with on_cpu(rounds + k):
                    walls.append(setup_launch(env, work))
            setup_walls.append(min(walls))
            calibration += reference_loop()
            rounds += 1
            now = time.perf_counter()
        runner.ask("finish", "finished")
        runner.close()
    finally:
        runner.close(kill=True)
    setup_s = statistics.median(setup_walls)
    res = json.loads((work / "inproc.json").read_text(encoding="ascii"))
    if res["errors"]:
        raise BenchError("wrong answers:\n  " + "\n  ".join(res["errors"][:20]))
    census.check(res["line_results"])
    cli = census.summary()

    failed, attempted = res["failed"], res["attempted"]
    lines = [f"workload {args.workload} seed {args.seed}: {attempted} requests attempted, "
             f"{rounds} rounds of {PASSES_PER_ROUND} in-process passes, "
             + ("one census run per stream with --workers 1 and two with --workers 2, "
                if args.trace else "")
             + f"and {SETUP_PER_ROUND} set-up launches"
             + ("" if args.trace else " (the census ran once per stream with --workers 1 "
                "and once with --workers 2, before the rounds)")
             + "; "
             + ", ".join(f"{k} {v:.1f} s" for k, v in split.items())
             + f" of {now - start:.1f} s",
             f"machine speed: a fixed 100k-step loop took {min(calibration):.2f} ms at best, "
             f"{statistics.median(calibration):.2f} ms median over the run",
             f"fail_frac ratio {failed / attempted:.6f} ({failed} of {attempted}: "
             f"{json.dumps(res['fail_kinds'], sort_keys=True)})",
             f"latency samples: {res['samples']} requests, each its fastest of "
             f"{res['passes']} passes"
             + (f" (the {res['heavy']} over {res['heavy_ms']:g} ms in the first two passes: "
                f"of {res['full_passes']})" if res["heavy"] else "")
             + f"; {res['beyond_p90']} lie beyond item_ms_p90"]
    census_rates = {k: cli[k] for k in ("cli_items_per_s", "cli_items_per_s_par")}
    if args.trace:
        metrics = dict(res["layers"], **census_rates)
        metrics["graph6.bytes"] = sum(len(x) for s in streams for x in s["lines"])
        metrics["solver.census_par_speedup"] = (census_rates["cli_items_per_s_par"]
                                                / census_rates["cli_items_per_s"])
        # fastest census runs less the fastest set-up, like for like
        cli_work = cli["w1_wall"] - cli["launches"] * min(setup_walls)
        metrics["cli.overhead_frac"] = 1.0 - res["lib_ns"] / 1e9 / cli_work
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        rss = runner.usage.ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s,
                   "peak_rss_mb": rss if args.workload == "theorems" else cli["peak_rss_mb"],
                   **{k: res[k] for k in ("items_per_s", "item_ms_p50", "item_ms_p90")}}
        # too dependent on the machine's state to bound (see README.md);
        # per-layer metrics of the traced run, shown here too
        lines += [f"{k} 1/s {v:.6g} (census, not bounded)" for k, v in census_rates.items()]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} are not both "
                         "declared in BENCHMARK.json and measured")
    for name in sorted(metrics):
        lines.append(f"{name} {units[name]} {metrics[name]:.6g}")
    print("\n".join(lines))
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "balanced_coloring" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = bench(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
