"""Exact decision, enumeration, and census for balanced colorings.

The search keeps, for every vertex, the signed red-minus-blue count of its
relevant neighborhood (closed for cnb, open for nb) restricted to assigned
vertices, plus the number of unassigned slots. A vertex with current count c
and f free slots can still reach residual zero only if |c| <= f and c + f is
even; when c equals +-f the free slots are all forced to one color. Forced
classes (twin groups, joined in cnb by the leaves of a vertex with the
opposite color) are built up front, so one assignment colors a whole class
at once.

One iterative depth-first search (an explicit stack, no recursion) serves
both decision and enumeration. Decision picks the most constrained vertex,
red first; its unsat answers are exhaustive, and fixing vertex 0 red is
sound because swapping the two colors preserves validity. Enumeration picks
the lowest unassigned vertex, blue first, never breaks symmetry, and so
emits colorings in lexicographic order of their R/B text.

Decision runs an exact linear stage (``linalg``) once the search has used
an allowance of decisions without an answer: the rank of the balance
matrix modulo a large prime, then a sign search over its kernel when the
nullity is small. Inputs the search answers within the allowance never
reach it, so their witnesses are the search's.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Literal

from .coloring import (
    Coloring, Mode, _balance_rows, _twin_groups, check_mode, checked_output, leaf_overload,
)
from .graphs import Graph, bits

if TYPE_CHECKING:
    from .linalg import LinearVerdict

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_MAX_MILLIS = 60_000.0
# decisions the search makes before the linear stage runs, the largest
# order it runs on, and the largest nullity whose kernel it searches
_SEARCH_ALLOWANCE = 64
_LINEAR_MAX_ORDER = 64
_KERNEL_MAX_NULLITY = 20


@dataclass(frozen=True)
class Budget:
    max_nodes: int = DEFAULT_MAX_NODES
    max_millis: float = DEFAULT_MAX_MILLIS


@dataclass(frozen=True)
class SolveStats:
    """Search decisions and forced assignments, wall time, and for the
    linear stage (when it ran) the nullity of the balance matrix and the
    sign choices of its kernel search."""

    nodes: int
    propagations: int
    millis: float
    nullity: int | None = None
    kernel_candidates: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    """``reason`` names what decided: ``prefilter:<text>``,
    ``forced-classes``, ``search``, ``rank``, ``kernel``, or ``budget`` for a
    timeout."""

    status: Literal["sat", "unsat", "timeout"]
    witness: Coloring | None
    stats: SolveStats
    reason: str = "search"

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.to_text() if self.witness else None,
            "nodes": self.stats.nodes,
            "propagations": self.stats.propagations,
            "millis": round(self.stats.millis, 3),
            "reason": self.reason,
            "nullity": self.stats.nullity,
            "kernel_candidates": self.stats.kernel_candidates,
        }


@dataclass(frozen=True)
class EnumerationOutcome:
    colorings: tuple[Coloring, ...]
    capped: bool
    stats: SolveStats


class _LimitExceeded(Exception):
    pass


def prefilter_reason(g: Graph, mode: Mode) -> str | None:
    """Cheap certificates that no balanced coloring exists, or None.

    cnb needs every degree odd (hence an even order) and ties the edge-count
    parity to the order mod 4; nb needs every degree even.
    """
    degs = g.degrees()
    if mode == "cnb":
        if g.n % 2 == 1:
            return "odd vertex count"
        for v, d in enumerate(degs):
            if d % 2 == 0:
                return f"vertex {v} has even degree {d}"
        m = g.edge_count
        if m % 2 == 0 and g.n % 4 != 0:
            return f"{m} edges (even) with order {g.n} not divisible by 4"
        if m % 2 == 1 and g.n % 4 != 2:
            return f"{m} edges (odd) with order {g.n} not 2 mod 4"
    else:
        for v, d in enumerate(degs):
            if d % 2 == 1:
                return f"vertex {v} has odd degree {d}"
    return None


class _Search:
    """One search instance over a fixed graph and mode."""

    __slots__ = (
        "n",
        "rows",
        "row_members",
        "cur",
        "free",
        "assigned",
        "red",
        "trail",
        "decisions",
        "assignments",
        "class_of",
        "par_of",
        "class_members",
    )

    def __init__(self, g: Graph, mode: Mode):
        n = g.n
        self.n = n
        rows = _balance_rows(g, mode)
        self.rows = rows
        self.row_members = [tuple(bits(r)) for r in rows]
        self.cur = [0] * n
        self.free = [r.bit_count() for r in rows]
        self.assigned = 0
        self.red = 0
        self.trail: list[int] = []
        self.decisions = 0
        self.assignments = 0
        # A class is a twin group; in cnb the leaves of a vertex form one
        # group, which joins that vertex's own class with the opposite
        # color. The vertex has no twin (a twin would also be adjacent to
        # the leaves), so classes never collide, and the only contradiction
        # is leaf_overload, which _open_search checks. A K2 component is
        # joined once, from its lower end.
        groups = _twin_groups(rows)
        class_of = [0] * n
        par_of = [0] * n
        for k, group in enumerate(groups):
            for v in group:
                class_of[v] = k
        if mode == "cnb":
            for group in groups:
                v = group[0]
                if g.adj[v].bit_count() == 1:
                    u = g.adj[v].bit_length() - 1
                    if g.adj[u].bit_count() == 1 and u < v:
                        continue
                    for w in group:
                        class_of[w] = class_of[u]
                        par_of[w] = 1
        members: list[list[tuple[int, int]]] = [[] for _ in groups]
        for v in range(n):
            members[class_of[v]].append((v, par_of[v]))
        self.class_of = class_of
        self.par_of = par_of
        self.class_members = members

    # -- propagation -------------------------------------------------------

    def _request(self, queue: list[tuple[int, int]]) -> bool:
        """Apply assignment requests plus everything they force; False on
        conflict. Assignments land on the trail for later unwinding."""
        cur = self.cur
        free = self.free
        rows = self.rows
        row_members = self.row_members
        qi = 0
        while qi < len(queue):
            v, col = queue[qi]
            qi += 1
            base = col ^ self.par_of[v]
            for w, pw in self.class_members[self.class_of[v]]:
                want = base ^ pw
                wb = 1 << w
                if self.assigned & wb:
                    if ((self.red >> w) & 1) != want:
                        return False
                    continue
                self.assigned |= wb
                if want:
                    self.red |= wb
                self.trail.append(w)
                self.assignments += 1
                delta = 1 if want else -1
                for u in row_members[w]:
                    cur[u] += delta
                    free[u] -= 1
                for u in row_members[w]:
                    f = free[u]
                    cv = cur[u]
                    if cv > f or cv < -f or (cv + f) & 1:
                        return False
                    if f and (cv == f or cv == -f):
                        fcol = 0 if cv == f else 1
                        rest = rows[u] & ~self.assigned
                        while rest:
                            low = rest & -rest
                            rest ^= low
                            queue.append((low.bit_length() - 1, fcol))
        return True

    def _unwind(self, mark: int) -> None:
        cur = self.cur
        free = self.free
        while len(self.trail) > mark:
            w = self.trail.pop()
            delta = -1 if (self.red >> w) & 1 else 1
            for u in self.row_members[w]:
                cur[u] += delta
                free[u] += 1
            self.assigned &= ~(1 << w)
            self.red &= ~(1 << w)

    # -- search ------------------------------------------------------------

    def _pick(self) -> int:
        best = -1
        bkey: tuple[int, int] | None = None
        assigned = self.assigned
        for v in range(self.n):
            if (assigned >> v) & 1:
                continue
            key = (self.free[v], -(self.rows[v] & assigned).bit_count())
            if bkey is None or key < bkey:
                bkey = key
                best = v
        return best

    def _lowest(self) -> int:
        un = ((1 << self.n) - 1) & ~self.assigned
        return (un & -un).bit_length() - 1

    def full_assignments(
        self, pick: Callable[[], int], colors: tuple[int, int], deadline: float,
        max_nodes: float, pause: int = 0,
    ) -> Iterator[int]:
        """Red mask of each full assignment, depth first: branch on pick()
        (-1 once all are assigned), trying colors in order; the stack holds
        (vertex, next color index, trail mark). Each branch is one decision;
        passing max_nodes of them, or the deadline (checked every 1024),
        raises _LimitExceeded. At decision number ``pause`` (0: never) it
        yields -1 once; resuming continues exactly where it stopped."""
        stack: list[tuple[int, int, int]] = []
        ok = True
        while True:
            if ok:
                v = pick()
                if v < 0:
                    yield self.red
                else:
                    self.decisions += 1
                    if self.decisions > max_nodes or (
                        not self.decisions & 1023 and time.monotonic() > deadline
                    ):
                        raise _LimitExceeded
                    if self.decisions == pause:
                        yield -1
                    stack.append((v, 0, len(self.trail)))
            if not stack:
                return
            v, i, mark = stack[-1]
            self._unwind(mark)
            if i == len(colors):
                stack.pop()
                ok = False
            else:
                stack[-1] = (v, i + 1, mark)
                ok = self._request([(v, colors[i])])


def _stats(search: _Search | None, t0: float, lin: LinearVerdict | None = None
           ) -> SolveStats:
    millis = (time.perf_counter() - t0) * 1000.0
    if search is None:
        return SolveStats(nodes=0, propagations=0, millis=millis)
    return SolveStats(
        nodes=search.decisions,
        propagations=search.assignments - search.decisions,
        millis=millis,
        nullity=lin.nullity if lin else None,
        kernel_candidates=lin.candidates if lin else 0,
    )


def _open_search(g: Graph, mode: Mode) -> tuple[_Search | None, str]:
    """A fresh search over g, or None and the reason when the prefilter or
    the leaf bound (the one contradiction the forced classes can hold)
    already rules out every coloring."""
    why = prefilter_reason(g, mode)
    if why is not None:
        return None, f"prefilter:{why}"
    if mode == "cnb" and leaf_overload(g, g.degrees()) is not None:
        return None, "forced-classes"
    return _Search(g, mode), ""


def solve(g: Graph, mode: Mode = "cnb", budget: Budget | None = None) -> SolveOutcome:
    """Decide whether g has a balanced coloring in the given mode.

    sat outcomes carry a witness that has already been re-verified; unsat is
    exhaustive; exceeding the node or wall-clock budget yields status timeout
    and never a partial witness. Deterministic for fixed inputs.

    Once the search has made _SEARCH_ALLOWANCE decisions without an answer,
    and when the node budget allows more and g has at most
    _LINEAR_MAX_ORDER vertices, the linear stage runs: nullity 0 is unsat
    (reason ``rank``); nullity up to _KERNEL_MAX_NULLITY is decided by the
    kernel sign search (reason ``kernel``), whose witness has vertex 0 red;
    a larger nullity resumes the search with the budget that remains.
    """
    mode = check_mode(mode)
    if budget is None:
        budget = Budget()
    t0 = time.perf_counter()
    search, why = _open_search(g, mode)
    if search is None:
        return SolveOutcome("unsat", None, _stats(search, t0), why)
    if g.n and not search._request([(0, 1)]):
        return SolveOutcome("unsat", None, _stats(search, t0))
    deadline = time.monotonic() + budget.max_millis / 1000.0
    linear = budget.max_nodes > _SEARCH_ALLOWANCE and g.n <= _LINEAR_MAX_ORDER
    runs = search.full_assignments(
        search._pick, (1, 0), deadline, budget.max_nodes,
        _SEARCH_ALLOWANCE if linear else 0,
    )
    lin = None
    try:
        red = next(runs, None)
        if red == -1:
            # imported here, on first use: few solves get this far, and every
            # module imported at start-up adds to each CLI launch
            from . import linalg

            lin = linalg.kernel_verdict(g, mode, _KERNEL_MAX_NULLITY, deadline)
            if lin.status == "deferred":
                red = next(runs, None)
    except _LimitExceeded:
        return SolveOutcome("timeout", None, _stats(search, t0, lin), "budget")
    if lin is None or lin.status == "deferred":
        if red is None:
            return SolveOutcome("unsat", None, _stats(search, t0, lin))
        witness = checked_output(g, Coloring(g.n, red), mode, "search witness")
        return SolveOutcome("sat", witness, _stats(search, t0, lin))
    if lin.status == "timeout":
        return SolveOutcome("timeout", None, _stats(search, t0, lin), "budget")
    reason = "rank" if lin.nullity == 0 else "kernel"
    if lin.status == "unsat":
        return SolveOutcome("unsat", None, _stats(search, t0, lin), reason)
    # the kernel fixes its first free coordinate red, solve fixes vertex 0
    red = lin.red if lin.red & 1 else lin.red ^ ((1 << g.n) - 1)
    witness = checked_output(g, Coloring(g.n, red), mode, "kernel witness")
    return SolveOutcome("sat", witness, _stats(search, t0, lin), reason)


def enumerate_colorings(
    g: Graph, mode: Mode = "cnb", cap: int | None = None
) -> EnumerationOutcome:
    """All balanced colorings of g in lexicographic R/B-text order.

    Both members of every color-swap pair are present (no symmetry breaking,
    so counts are raw). The search has solve's default budget, read at call
    time. ``capped`` marks a lexicographic prefix: the cap was reached or the
    budget ran out. Every returned coloring is re-verified.
    """
    mode = check_mode(mode)
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive (or None for no cap)")
    t0 = time.perf_counter()
    search, _why = _open_search(g, mode)
    if search is None:
        return EnumerationOutcome((), False, _stats(search, t0))
    deadline = time.monotonic() + DEFAULT_MAX_MILLIS / 1000.0
    runs = search.full_assignments(search._lowest, (0, 1), deadline, DEFAULT_MAX_NODES)
    masks: list[int] = []
    try:
        for red in itertools.islice(runs, cap):
            masks.append(red)
    except _LimitExceeded:
        capped = True
    else:
        capped = cap is not None and len(masks) >= cap
    colorings = tuple(
        checked_output(g, Coloring(g.n, m), mode, "enumerated coloring") for m in masks
    )
    return EnumerationOutcome(colorings, capped, _stats(search, t0))


def census(
    graphs: Iterable[Graph],
    mode: Mode = "cnb",
    budget: Budget | None = None,
    workers: int = 1,
) -> Iterator[SolveOutcome]:
    """Order-preserving map of solve over a graph stream.

    Per-item timeouts are recorded in their outcome and the stream continues.
    With workers > 1 (at most os.cpu_count()) the instances run in a process
    pool; output order still matches input order, and results are identical
    to a serial run because solve itself is deterministic.
    """
    mode = check_mode(mode)
    # the pool forks all its workers at the first submit, so cap the count
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        for g in graphs:
            yield solve(g, mode, budget)
        return
    from concurrent.futures import ProcessPoolExecutor

    task = functools.partial(solve, mode=mode, budget=budget)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, graphs, chunksize=16)
