"""Exact decision, enumeration, and census for balanced colorings.

A coloring is balanced when every row u of the balance matrix M (closed
neighborhoods for cnb, open ones for nb) holds h_u = |row u| / 2 red and
h_u blue vertices; ``coloring``'s certificates answer first, and past their
degree parities every row is even. The search keeps two capacities per
vertex: RC_u, h_u less the red vertices assigned in row u,
and BC_u, the same for blue. They are bit-sliced: plane k of ``rc`` is the
mask of the vertices whose RC has bit k set (likewise ``bc``; the count of
planes is the bit length of the largest h), so one assignment updates all
the rows it lies in with a borrow chain over the planes. The masks ``zr``
and ``zb`` hold the rows at zero red or blue capacity. Assigning w red
conflicts exactly when a row of w is in ``zr``; a row whose red capacity
just reached zero forces its unassigned rest blue, and blue is symmetric.
A trail of the assigned vertices undoes them on backtracking. Forced classes
(twin groups, joined in cnb by the leaves of a vertex with the opposite
color) are built up front, so one assignment colors a whole class at once.

In terms of a row's red-minus-blue count c and its free slots f, RC = (f -
c) / 2 and BC = (f + c) / 2. So the bound |c| <= f says both capacities are
non-negative, and a row can only go over once one is zero, which is the
conflict test; c + f = |row| - 2b is always even, so parity never rules a
row out; and c = +-f with f > 0 is one capacity at zero with the other
not. A vertex already queued with a color in the same propagation is not
queued again, since the earlier entry is handled first and the later one
would change nothing. ``propagations`` therefore counts exactly the forced
assignments of a search over (c, f).

Decision and enumeration each run an iterative depth-first search (an
explicit stack, no recursion) over the same propagation. Decision picks the
unassigned vertex with the fewest free slots in its row (RC + BC, summed
plane by plane with a ripple-carry adder), then the largest row (the most
assigned members), then the lowest index, and tries red first; its unsat
answers are exhaustive, and fixing vertex 0 red is sound because swapping
the two colors preserves validity. Enumeration picks the lowest unassigned
vertex, blue first, never breaks symmetry, and so emits colorings in
lexicographic order of their R/B text. Its pick and its completions, in
order, depend only on the assigned mask and the red capacities
(``_Search._state``), so it stores each finished state that has a
completion and replays a state met again instead of searching it. Its
``nodes`` count only the states it explores, its node budget only their
decisions, and its deadline also covers the replay.

Decision pauses twice for an exact linear stage (``linalg``), which
brings the balance matrix to reduced row echelon form modulo 2^31 - 1
once, at the first pause, and reads that form at both. The first pause,
after a few decisions without an answer, decides only nullity 0 (no
coloring) and nullity 1 (a sign search over the kernel); the second, once
the search has used its whole allowance, searches the signs of any small
kernel. A larger nullity resumes the search where it stopped. Inputs the
search answers before the first pause never reach the stage, so their
witnesses are the search's; ``solve`` shows why the first pause changes no
witness either.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Literal

from .coloring import (
    Coloring, Mode, _balance_rows, _certificates, _record, _twin_groups, check_mode,
    checked_output,
)
from .graphs import Graph
from .trees import _tree_forcing

if TYPE_CHECKING:
    from .linalg import LinearVerdict

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_MAX_MILLIS = 60_000.0
# decisions the search makes before the linear stage decides nullity at
# most 1, and before it searches any kernel of nullity up to
# _KERNEL_MAX_NULLITY; the largest order it runs on
_RANK_PAUSE = 16
_SEARCH_ALLOWANCE = 64
_LINEAR_MAX_ORDER = 64
_KERNEL_MAX_NULLITY = 20


@dataclass(frozen=True)
class Budget:
    max_nodes: int = DEFAULT_MAX_NODES
    max_millis: float = DEFAULT_MAX_MILLIS


_DEFAULT_BUDGET = Budget()


@dataclass(frozen=True)
class SolveStats:
    """Search decisions and forced assignments, wall time, and for the
    linear stage the nullity of the balance matrix (once its echelon form
    is computed) and the sign choices of its kernel search. An enumeration
    counts only the states it explores: a replayed state adds no nodes and
    no propagations."""

    nodes: int
    propagations: int
    millis: float
    nullity: int | None = None
    kernel_candidates: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    """``reason`` names what decided: ``prefilter:<text>``,
    ``forced-classes:<text>`` (the leaf bound, naming the vertex that
    carries too many leaves), ``tree`` or ``tree:<text>`` (the forcing pass
    on a cnb tree, naming the vertex that cannot balance), ``search``,
    ``rank``, ``kernel``, or ``budget`` for a timeout."""

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


class _Search:
    """One search instance over a fixed graph and mode."""

    __slots__ = (
        "n",
        "rows",
        "halves",
        "rc",
        "bc",
        "zr",
        "zb",
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
        # the degree parities leave every row even; h = |row| / 2 starts both
        # capacities, held as planes (plane k: the vertices whose h has bit
        # k), each parsed from binary text in time linear in n
        hs = [r.bit_count() >> 1 for r in rows]
        self.halves = [
            int("".join("1" if (h >> k) & 1 else "0" for h in reversed(hs)), 2)
            for k in range(max(hs, default=0).bit_length())
        ]
        self.rc = list(self.halves)
        self.bc = list(self.halves)
        empty = (1 << n) - 1
        for plane in self.halves:
            empty &= ~plane
        self.zr = self.zb = empty
        self.assigned = 0
        self.red = 0
        self.trail: list[int] = []
        self.decisions = 0
        self.assignments = 0
        # A class is a twin group; in cnb the leaves of a vertex form one
        # group, which joins that vertex's own class with the opposite
        # color. The vertex has no twin (a twin would also be adjacent to
        # the leaves), so classes never collide, and the only contradiction
        # is leaf_overload, which solve checks first. A K2 component is
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
        rows = self.rows
        trail = self.trail
        class_of = self.class_of
        par_of = self.par_of
        members = self.class_members
        assigned = self.assigned
        red = self.red
        # by color (0 blue, 1 red): capacity planes, zero-capacity rows, and
        # the vertices this call has already queued with that color; the
        # queue holds (vertex mask, color), handled lowest vertex first
        caps = (self.bc, self.rc)
        zero = [self.zb, self.zr]
        queued = [0, 0]
        pending = [(1 << v, col) for v, col in queue]
        count = 0
        try:
            for mask, col in pending:
                while mask:
                    low = mask & -mask
                    mask ^= low
                    v = low.bit_length() - 1
                    base = col ^ par_of[v]
                    for w, pw in members[class_of[v]]:
                        want = base ^ pw
                        wb = 1 << w
                        if assigned & wb:
                            if ((red >> w) & 1) != want:
                                return False
                            continue
                        count += 1
                        row = rows[w]
                        # a row at zero capacity for this color would go
                        # over; no parity test is needed, every row is even
                        if row & zero[want]:
                            return False
                        assigned |= wb
                        if want:
                            red |= wb
                        trail.append(w)
                        cap = caps[want]
                        borrow = row
                        for k, plane in enumerate(cap):
                            cap[k] = plane ^ borrow
                            borrow &= ~plane
                            if not borrow:
                                break
                        for plane in cap:
                            row &= ~plane
                        if not row:
                            continue
                        # rows that just used up this color's capacity force
                        # their unassigned rest to the other color
                        zero[want] |= row
                        fcol = want ^ 1
                        row &= ~zero[fcol]
                        while row:
                            low = row & -row
                            row ^= low
                            rest = rows[low.bit_length() - 1] & ~assigned & ~queued[fcol]
                            if rest:
                                queued[fcol] |= rest
                                pending.append((rest, fcol))
            return True
        finally:
            self.assigned = assigned
            self.red = red
            self.zb, self.zr = zero
            self.assignments += count

    def _unwind(self, mark: int) -> None:
        trail = self.trail
        if len(trail) <= mark:
            return
        rows = self.rows
        rc = self.rc
        bc = self.bc
        assigned = self.assigned
        red = self.red
        zr = self.zr
        zb = self.zb
        while len(trail) > mark:
            w = trail.pop()
            wb = 1 << w
            row = rows[w]
            if red & wb:
                cap = rc
                zr &= ~row
                red ^= wb
            else:
                cap = bc
                zb &= ~row
            assigned ^= wb
            carry = row
            for k, plane in enumerate(cap):
                cap[k] = plane ^ carry
                carry &= plane
                if not carry:
                    break
        self.assigned = assigned
        self.red = red
        self.zr = zr
        self.zb = zb

    # -- search ------------------------------------------------------------

    def _pick(self) -> int:
        """The unassigned vertex with the fewest free slots in its row, then
        the largest row, then the lowest index."""
        un = ((1 << self.n) - 1) & ~self.assigned
        if not un:
            return -1
        # free slots = red + blue capacity, added plane by plane
        free = []
        carry = 0
        for r, b in zip(self.rc, self.bc):
            half = r ^ b
            free.append(half ^ carry)
            carry = (r & b) | (carry & half)
        free.append(carry)
        for plane in reversed(free):
            if un & ~plane:
                un &= ~plane
        for plane in reversed(self.halves):
            if un & plane:
                un &= plane
        return (un & -un).bit_length() - 1

    def _state(self) -> tuple[int, ...]:
        """The residual state: the assigned mask and the red capacity
        planes, which fix the blue capacities and the zero-capacity masks.
        Classes are assigned whole, so no later propagation reads the colors
        already given, and the completions of a state depend on it alone."""
        return (self.assigned, *self.rc)

    def full_assignments(
        self, deadline: float, max_nodes: float, pauses: tuple[int, ...] = (),
    ) -> Iterator[int]:
        """Red mask of each full assignment, depth first: branch on _pick()
        (-1 once all are assigned), trying red, then blue; the stack holds
        (vertex, next color index, trail mark). Each branch is one decision;
        passing max_nodes of them, or the deadline (checked every 1024),
        raises _LimitExceeded. At each decision number in ``pauses`` (in
        increasing order; a repeat is one pause) it yields -1 once; resuming
        continues exactly where it stopped."""
        stack: list[tuple[int, int, int]] = []
        ok = True
        later = iter(pauses)
        pause = next(later, 0)
        while True:
            if ok:
                v = self._pick()
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
                        pause = next(later, 0)
                    stack.append((v, 0, len(self.trail)))
            if not stack:
                return
            v, i, mark = stack[-1]
            self._unwind(mark)
            if i == 2:
                stack.pop()
                ok = False
            else:
                stack[-1] = (v, i + 1, mark)
                ok = self._request([(v, 1 - i)])


def _colorings(search: _Search, deadline: float, max_nodes: float,
               memo: dict[tuple[int, ...], tuple]) -> Iterator[int]:
    """Red mask of every full assignment, lowest unassigned vertex first and
    blue before red, so in lexicographic order. A finished state with a
    completion is stored in ``memo`` under ``search._state()`` as a node: a
    tuple of (red delta, child) edges in order, the child None where the
    edge completes the assignment. A state met again is replayed from its
    node, lazily and without recursion. Only explored states are decisions;
    passing max_nodes of them raises _LimitExceeded, and so does the
    deadline, checked every 1024 decisions and every 1024 colorings."""
    full = (1 << search.n) - 1
    if search.assigned == full:
        yield search.red
        return
    emitted = 0
    # frames: [vertex, next color, trail mark, red delta in, edges]; the
    # state key is read again when a frame finishes, so that a deep stack
    # holds no copies of the capacity planes
    stack: list[list] = []

    def explore(delta: int) -> None:
        # a state not met before: one decision, on its lowest unassigned vertex
        search.decisions += 1
        if search.decisions > max_nodes or (
            not search.decisions & 1023 and time.monotonic() > deadline
        ):
            raise _LimitExceeded
        un = full & ~search.assigned
        stack.append([(un & -un).bit_length() - 1, 0, len(search.trail), delta, []])

    explore(0)
    while stack:
        frame = stack[-1]
        search._unwind(frame[2])
        col = frame[1]
        if col == 2:
            stack.pop()
            node = tuple(frame[4])
            if node:
                memo[search._state()] = node
                if stack:
                    stack[-1][4].append((frame[3], node))
            continue
        frame[1] = col + 1
        before = search.red
        if not search._request([(frame[0], col)]):
            continue
        edge = (search.red ^ before, None)
        if search.assigned != full:
            node = memo.get(search._state())
            if node is None:
                explore(edge[0])
                continue
            edge = (edge[0], node)
        frame[4].append(edge)
        # emit the edge's colorings, a stored subtree replayed lazily: each
        # level of the replay stack is an iterator over one node's edges
        replay = [(iter((edge,)), before)]
        while replay:
            it, red = replay[-1]
            edge = next(it, None)
            if edge is None:
                replay.pop()
            elif edge[1] is None:
                emitted += 1
                if not emitted & 1023 and time.monotonic() > deadline:
                    raise _LimitExceeded
                yield red | edge[0]
            else:
                replay.append((iter(edge[1]), red | edge[0]))


def _stats(search: _Search | None, t0: float, lin: LinearVerdict | None = None
           ) -> SolveStats:
    millis = (time.perf_counter() - t0) * 1000.0
    if search is None:
        return _record(SolveStats, nodes=0, propagations=0, millis=millis, nullity=None,
                       kernel_candidates=0)
    return _record(
        SolveStats,
        nodes=search.decisions,
        propagations=search.assignments - search.decisions,
        millis=millis,
        nullity=lin.nullity if lin else None,
        kernel_candidates=lin.candidates if lin else 0,
    )


def _outcome(status: str, witness: Coloring | None, stats: SolveStats,
             reason: str = "search") -> SolveOutcome:
    return _record(SolveOutcome, status=status, witness=witness, stats=stats, reason=reason)


def solve(g: Graph, mode: Mode = "cnb", budget: Budget | None = None) -> SolveOutcome:
    """Decide whether g has a balanced coloring in the given mode.

    sat outcomes carry a witness that has already been re-verified; unsat is
    exhaustive; exceeding the node or wall-clock budget yields status timeout
    and never a partial witness. Deterministic for fixed inputs.

    A cnb tree that passes the certificates is decided without search by
    ``trees._tree_forcing`` (reason ``tree``, or ``tree:<text>`` for
    unsat, with 0 nodes and 0 propagations). A balanced tree has one
    coloring up to the swap, so its witness, with vertex 0 red, is the one
    the search would find.

    When the node budget exceeds _SEARCH_ALLOWANCE and g has at most
    _LINEAR_MAX_ORDER vertices, the search pauses twice for the linear
    stage. At decision _RANK_PAUSE, M's reduced echelon form modulo p =
    2^31 - 1 is computed, once per solve: nullity 0 is unsat (reason
    ``rank``), and nullity 1 is decided by the kernel sign search (reason
    ``kernel``). A larger nullity resumes the search exactly where it
    stopped. At decision _SEARCH_ALLOWANCE the same echelon form decides
    any nullity up to _KERNEL_MAX_NULLITY by the sign search; a larger one
    resumes the search with the budget that remains. A kernel witness has
    vertex 0 red.

    The first pause changes no status and no witness, only the reason and
    the counters, for any prime p > n + 1. The mod-p nullity is at least
    the rational nullity, so at nullity at most 1 the balanced colorings,
    as +-1 vectors in the rational kernel, are at most one pair c, -c. The
    search fixes vertex 0 red, so any witness it would find later is the
    one of c and -c with vertex 0 red, which is the kernel's witness; and
    if the kernel has none, the search has none to find.
    """
    mode = check_mode(mode)
    if budget is None:
        budget = _DEFAULT_BUDGET
    t0 = time.perf_counter()
    # the first generic certificate, if one holds, answers
    for theorem, why in _certificates(g, mode):
        reason = f"forced-classes:{why}" if theorem == "leaf-bound" else f"prefilter:{why}"
        return _outcome("unsat", None, _stats(None, t0), reason)
    forced = _tree_forcing(g) if mode == "cnb" else None
    if forced is not None:
        red, why = forced
        if red is None:
            return _outcome("unsat", None, _stats(None, t0), f"tree:{why}")
        witness = checked_output(g, Coloring(g.n, red), mode, "tree witness")
        return _outcome("sat", witness, _stats(None, t0), "tree")
    search = _Search(g, mode)
    if g.n and not search._request([(0, 1)]):
        return _outcome("unsat", None, _stats(search, t0))
    deadline = time.monotonic() + budget.max_millis / 1000.0
    linear = budget.max_nodes > _SEARCH_ALLOWANCE and g.n <= _LINEAR_MAX_ORDER
    pauses = (min(_RANK_PAUSE, _SEARCH_ALLOWANCE), _SEARCH_ALLOWANCE) if linear else ()
    runs = search.full_assignments(deadline, budget.max_nodes, pauses)
    lin = form = None
    try:
        red = next(runs, None)
        while red == -1:
            if form is None:
                # imported here, on first use: few solves get this far, and
                # every module imported at start-up adds to each CLI launch
                from . import linalg

                form = linalg.echelon(search.rows, g.n)
            # before the allowance only nullity <= 1, where the kernel's
            # witness is the one the search would find
            cap = _KERNEL_MAX_NULLITY if search.decisions >= _SEARCH_ALLOWANCE else 1
            lin = linalg.kernel_verdict(g, mode, cap, deadline, form)
            if lin.status != "deferred":
                break
            red = next(runs, None)
    except _LimitExceeded:
        return _outcome("timeout", None, _stats(search, t0, lin), "budget")
    if lin is None or lin.status == "deferred":
        if red is None:
            return _outcome("unsat", None, _stats(search, t0, lin))
        witness = checked_output(g, Coloring(g.n, red), mode, "search witness")
        return _outcome("sat", witness, _stats(search, t0, lin))
    if lin.status == "timeout":
        return _outcome("timeout", None, _stats(search, t0, lin), "budget")
    reason = "rank" if lin.nullity == 0 else "kernel"
    if lin.status == "unsat":
        return _outcome("unsat", None, _stats(search, t0, lin), reason)
    # the kernel fixes its first free coordinate red, solve fixes vertex 0
    red = lin.red if lin.red & 1 else lin.red ^ ((1 << g.n) - 1)
    witness = checked_output(g, Coloring(g.n, red), mode, "kernel witness")
    return _outcome("sat", witness, _stats(search, t0, lin), reason)


def enumerate_colorings(
    g: Graph, mode: Mode = "cnb", cap: int | None = None
) -> EnumerationOutcome:
    """All balanced colorings of g in lexicographic R/B-text order.

    Both members of every color-swap pair are present (no symmetry breaking,
    so counts are raw). The search has solve's default budget, read at call
    time. A state met again is replayed from a memo, so the node budget
    counts only the decisions of explored states, and ``stats.nodes`` only
    those states; the deadline is also checked every 1,024 colorings, since
    a replay can emit many without a decision. ``capped`` marks a
    lexicographic prefix: the cap was reached or the budget ran out. Every
    returned coloring is re-verified.
    """
    mode = check_mode(mode)
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive (or None for no cap)")
    t0 = time.perf_counter()
    if next(_certificates(g, mode), None) is not None:
        return EnumerationOutcome((), False, _stats(None, t0))
    search = _Search(g, mode)
    deadline = time.monotonic() + DEFAULT_MAX_MILLIS / 1000.0
    runs = _colorings(search, deadline, DEFAULT_MAX_NODES, {})
    masks: list[int] = []
    try:
        for red in itertools.islice(runs, cap):
            masks.append(red)
    except _LimitExceeded:
        capped = True
    else:
        capped = cap is not None and len(masks) >= cap
    # checked_output's test, each distinct row and its size built once
    rows = {row: row.bit_count() for row in _balance_rows(g, mode)}.items()
    if any(2 * (r & m).bit_count() != k for m in masks for r, k in rows):
        raise RuntimeError(f"internal error: enumerated coloring failed {mode} verification")
    if max(masks, default=0) >> g.n:  # a bit past the last vertex passes the test above
        raise RuntimeError("internal error: enumerated coloring has bits beyond the last vertex")
    colorings = tuple(Coloring._trusted(g.n, m) for m in masks)
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
