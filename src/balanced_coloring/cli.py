"""Command-line front end.

Subcommands: verify, solve, enumerate, census, family, tree. Output is one
JSON object (or JSON line per census item) by default, tab-separated with
--format tsv. Exit codes: 0 success/sat/valid/yes, 1 unsat/invalid/no,
2 usage or input error (also when stdout closes before the output is
written, e.g. a pipe into ``head``), 3 budget exhausted (for enumerate: the
listed colorings are only a prefix and --cap was not what cut them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import graph6 as g6
from .coloring import Coloring, first_unbalanced, report
from .constructions import characterize_family
from .graphs import Graph, build_family
from .solver import (
    DEFAULT_MAX_MILLIS, DEFAULT_MAX_NODES, Budget, census, enumerate_colorings, solve,
)
from .trees import MalformedScriptError, NotATreeError, TreeBuildScript, decompose_cnbc_tree, replay

_WORKERS_ENV = "BALANCED_COLORING_WORKERS"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3


class InputError(Exception):
    """Bad file contents or inconsistent graph-source flags."""


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    try:
        with open(spec, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {spec}: {exc}") from exc


def _parse_family_tokens(tokens: Sequence[str]):
    """Name and parameters; a token with a comma, and the connection set of a
    circulant even without one (``circulant 12 6``), is a tuple of ints."""
    name = tokens[0]
    params = []
    for pos, tok in enumerate(tokens[1:]):
        if "," in tok or (name == "circulant" and pos == 1):
            try:
                params.append(tuple(int(p) for p in tok.split(",") if p))
            except ValueError as exc:
                raise InputError(f"bad connection set {tok!r}: {exc}") from exc
        else:
            try:
                params.append(int(tok))
            except ValueError as exc:
                raise InputError(f"bad parameter {tok!r}: {exc}") from exc
    return name, tuple(params)


def _load_graph(args) -> Graph:
    """Resolve the single graph source among family tokens, --input, --edges."""
    sources = sum(
        1 for s in (getattr(args, "family", None), args.input, args.edges) if s
    )
    if sources != 1:
        raise InputError(
            "exactly one graph source required: family parameters, --input, or --edges"
        )
    if getattr(args, "family", None):
        name, params = _parse_family_tokens(args.family)
        return build_family(name, *params)
    if args.input:
        g = next(g6.iter_graph6(_read_text(args.input).splitlines()), None)
        if g is None:
            raise InputError(f"no graph6 line found in {args.input}")
        return g
    return g6.parse_edge_list(_read_text(args.edges))


def _budget(args) -> Budget:
    if args.budget_nodes < 1 or args.budget_ms <= 0:
        raise InputError("budgets must be positive")
    return Budget(max_nodes=args.budget_nodes, max_millis=args.budget_ms)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for key, value in obj.items():
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            print(f"{key}\t{value}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    try:
        col = Coloring.from_text(args.coloring)
    except ValueError as exc:
        raise InputError(f"bad coloring string: {exc}") from exc
    if col.n != g.n:
        raise InputError(f"coloring has {col.n} vertices, graph has {g.n}")
    bad = first_unbalanced(g, col, args.mode)
    rep = report(g, col)
    out = {
        "valid": bad is None,
        "mode": args.mode,
        "first_violation": bad,
        **rep.as_dict(),
    }
    _emit(out, args.format)
    return EXIT_OK if bad is None else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    g = _load_graph(args)
    outcome = solve(g, args.mode, _budget(args))
    _emit(outcome.as_dict(), args.format)
    if outcome.status == "sat":
        return EXIT_OK
    return EXIT_TIMEOUT if outcome.status == "timeout" else EXIT_NEGATIVE


def _cmd_enumerate(args) -> int:
    g = _load_graph(args)
    result = enumerate_colorings(g, args.mode, args.cap)
    texts = [c.to_text() for c in result.colorings]
    if args.format == "json":
        print(json.dumps({"count": len(texts), "capped": result.capped,
                          "colorings": texts}))
    else:
        for t in texts:
            print(t)
    if result.capped and (args.cap is None or len(texts) < args.cap):
        return EXIT_TIMEOUT  # the search budget ran out before the cap
    return EXIT_OK


def _cmd_census(args) -> int:
    text = _read_text(args.input)
    try:
        graphs = list(g6.iter_graph6(text.splitlines()))
    except g6.Graph6Error as exc:
        raise InputError(str(exc)) from exc
    workers = args.workers
    if workers is None:
        raw = os.environ.get(_WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InputError(f"{_WORKERS_ENV} must be an integer, got {raw!r}") from None
    for outcome in census(graphs, args.mode, _budget(args), workers=workers):
        d = outcome.as_dict()
        if args.format == "json":
            print(json.dumps(d))
        else:
            print("\t".join(str(d[k]) for k in
                            ("status", "witness", "nodes", "propagations", "millis")))
    return EXIT_OK


def _cmd_family(args) -> int:
    name, params = _parse_family_tokens(args.family)
    g = build_family(name, *params)
    verdict = characterize_family(name, params, args.mode)
    provenance = "theorem"
    status_code = EXIT_OK
    witness = verdict.witness
    value, reason, theorem = verdict.value, verdict.reason, verdict.theorem
    if value == "unknown":
        outcome = solve(g, args.mode, _budget(args))
        provenance = "solver"
        if outcome.status == "sat":
            value, witness, reason = "yes", outcome.witness, "exact search found a witness"
        elif outcome.status == "unsat":
            value, reason = "no", "exact search exhausted"
        else:
            reason = "search budget exhausted"
    if value == "no":
        status_code = EXIT_NEGATIVE
    elif value == "unknown":
        status_code = EXIT_TIMEOUT
    out = {
        "family": name,
        "params": [list(p) if isinstance(p, tuple) else p for p in params],
        "mode": args.mode,
        "n": g.n,
        "graph6": g6.encode(g),
        "verdict": value,
        "reason": reason,
        "theorem": theorem,
        "witness": witness.to_text() if witness else None,
        "provenance": provenance,
    }
    _emit(out, args.format)
    return status_code


def _cmd_tree(args) -> int:
    if args.action == "replay":
        if not args.script:
            raise InputError("tree replay needs --script FILE|-")
        try:
            payload = json.loads(_read_text(args.script))
            script = TreeBuildScript.from_dict(payload)
            g, col = replay(script)
        except (json.JSONDecodeError, MalformedScriptError) as exc:
            raise InputError(f"bad script: {exc}") from exc
        _emit(
            {
                "n": g.n,
                "graph6": g6.encode(g),
                "edges": [f"{u} {v}" for u, v in g.edges()],
                "coloring": col.to_text(),
            },
            args.format,
        )
        return EXIT_OK
    g = _load_graph(args)
    try:
        script = decompose_cnbc_tree(g)
    except NotATreeError as exc:
        raise InputError(f"not a tree: {exc}") from exc
    if args.action == "check":
        _emit({"cnbc_tree": script is not None}, args.format)
        return EXIT_OK if script is not None else EXIT_NEGATIVE
    # decompose
    if script is None:
        _emit({"cnbc_tree": False, "script": None}, args.format)
        return EXIT_NEGATIVE
    _emit({"cnbc_tree": True, "script": script.as_dict()}, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument(
        "family", nargs="*", metavar="FAMILY",
        help="family name and parameters, e.g. 'circulant 12 1,6'",
    )
    sub.add_argument("--input", metavar="FILE|-", help="graph6 input")
    sub.add_argument("--edges", metavar="FILE|-", help="edge-list input ('n m' header)")
    sub.add_argument("--mode", choices=("cnb", "nb"), default="cnb")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


def _add_budget(sub):
    sub.add_argument("--budget-nodes", type=int, default=DEFAULT_MAX_NODES, metavar="N")
    sub.add_argument("--budget-ms", type=float, default=DEFAULT_MAX_MILLIS, metavar="MS")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balanced-coloring",
        description="Decide, construct, and audit neighborhood balanced colorings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="check a coloring and print its balance report")
    _add_common(p)
    p.add_argument("--coloring", required=True, metavar="RBSTRING")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("solve", help="decide colorability, printing a witness if sat")
    _add_common(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("enumerate", help="list all balanced colorings")
    _add_common(p)
    p.add_argument("--cap", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("census", help="solve every graph6 line of a stream")
    p.add_argument("--input", required=True, metavar="FILE|-")
    p.add_argument("--mode", choices=("cnb", "nb"), default="cnb")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    _add_budget(p)
    p.add_argument(
        "--workers", type=int,
        help=f"parallel workers (default ${_WORKERS_ENV} or 1)",
    )
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("family", help="theorem verdict for a family member")
    p.add_argument("family", nargs="+", metavar="FAMILY")
    p.add_argument("--mode", choices=("cnb", "nb"), default="cnb")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    _add_budget(p)
    p.set_defaults(func=_cmd_family)

    p = subs.add_parser("tree", help="balanced-tree recognition and script replay")
    p.add_argument("action", choices=("check", "decompose", "replay"))
    _add_common(p)
    p.add_argument("--script", metavar="FILE|-", help="build script JSON (replay)")
    p.set_defaults(func=_cmd_tree)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return code
    except (InputError, g6.Graph6Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The SIGPIPE recipe from the Python docs: send what is still
        # buffered to devnull so the flush at shutdown cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
