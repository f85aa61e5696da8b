"""Exact linear certificates for balanced colorings.

Write a coloring as c in {+1, -1}^n (red +1, blue -1). Row v of M c, with
M = A + I for closed neighborhoods (cnb) and M = A for open ones (nb), is
the red-minus-blue count of v's neighborhood, so c is balanced exactly when
M c = 0.

``kernel_verdict`` brings M to reduced row echelon form modulo the
Mersenne prime p = 2^31 - 1: a forward elimination over 64-bit slots (one
fold per row update), then a back-substitution over the free columns only,
which writes each pivot coordinate of a kernel vector as a fixed linear
form in the free ones. A search over the signs of the free coordinates
checks each pivot row as soon as all of its free variables are set.

Soundness of the mod-p stage. Let c in {+1, -1}^n satisfy M c = 0 over the
integers. Then M c = 0 mod p, so c lies in the mod-p kernel, and c is the
kernel vector that the echelon form assigns to c's own free coordinates,
which are +-1. So every rational +-1 kernel vector is a mod-p kernel vector
with +-1 free coordinates, and the sign search, which tries every +-1
assignment of the free coordinates until one's pivot coordinates come out
as +-1 mod p, meets it unless it stops earlier. Hence:

- mod-p nullity 0 (the rational nullity is at most the mod-p nullity)
  leaves only the zero kernel vector: no balanced coloring exists;
- when no sign assignment survives, no balanced coloring exists.

Fixing the first free coordinate to +1 loses nothing, since c and -c are
balanced together. The first vector the search meets is a +-1 vector with
M c = 0 mod p; every entry of M c lies in [-(n + 1), n + 1] and n + 1 < p,
so M c = 0 over the integers too. It answers after one exact check, and a
failed check raises RuntimeError. Both arguments hold for any prime above
n + 1.

Exactness. Up to order 22 the mod-p nullity is the rational one: by
Hadamard's bound a nonzero minor of a 0/1 matrix of order r <= 22 is at
most (r + 1)^((r + 1) / 2) / 2^r < 2^31 - 1. Above that a rank drop mod p
can make the stage less decisive, never wrong.
"""

from __future__ import annotations

import math
import operator
import sys
import time
from dataclasses import dataclass
from itertools import compress
from typing import Literal, Sequence

from .coloring import _BIT_VALUES, Coloring, Mode, _balance_rows, check_mode, checked_output
from .graphs import Graph, spread

P = (1 << 31) - 1


# ---------------------------------------------------------------------------
# Reduced echelon form mod p and the sign search over its kernel
# ---------------------------------------------------------------------------


# Rows are packed one entry per _W-bit slot of a Python int, so one big-int
# operation updates a whole row. Entries stay below 2^33. The pivot row,
# scaled by its inverse (below 2^64) and folded twice, is below 2^32; a row
# update x + (P - f) * tail then stays below 2^63 + 2^33, and one _fold
# (2^31 = 1 mod P) brings a slot back under 2^32 + 4 + 2^31 < 2^33, never
# carrying into the next slot.
_W = 64
_SLOT = (1 << _W) - 1
_KW = 96  # slot width of the back-substitution's kernel vectors: n < 2^32
_KW_SLOT = (1 << _KW) - 1


def _packed(row: int, n: int) -> int:
    """The 0/1 row as slots: bit j of row becomes slot j, through one
    little-endian byte string with bit j at byte j * _W / 8."""
    digits = bin(row)[:1:-1].encode().translate(_BIT_VALUES)  # bit 0 first
    buf = bytearray(_W // 8 * n)
    buf[: _W // 8 * len(digits) : _W // 8] = digits
    return int.from_bytes(buf, "little")


def _fold(x: int, low: int, high: int) -> int:
    """Each slot of x (below 2^64) as its bits 0..30 plus its bits 31..63, the
    same value mod P; low and high select bits 0..30 and 0..32 of every slot."""
    return (x & low) + ((x >> 31) & high)


def echelon(rows: Sequence[int], n: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Reduced row echelon form mod P of the 0/1 matrix whose row i has
    entry j equal to bit j of rows[i]: the pivot columns, the free columns,
    and for pivot k the coefficients forms[k][t] (reduced mod P) with
    x[pivots[k]] = -sum over t of forms[k][t] * x[free[t]] on the kernel.

    A forward pass eliminates each pivot column from the rows still
    waiting only, and keeps the normalized pivot row's tail, its slots for
    the later columns. Rows drop one slot per column, so slot 0 is always
    the current column. The reduced form is needed only at the free
    columns, so a back-substitution from the last pivot to the first builds
    the kernel vectors that are 1 at one free column and 0 at the others:
    pivot k's coordinate in vector t is minus the dot product of its tail
    with the vector's later coordinates, and forms[k][t] is that product.
    The reduced form is unique, so any choice of pivot rows gives the same
    output as Gauss-Jordan elimination."""
    ones = spread((1 << n) - 1, _W)
    low, high = ones * P, ones * ((1 << 33) - 1)
    m = [_packed(r, n) for r in rows if r]  # the waiting rows
    pivots: list[int] = []
    free: list[int] = []
    tails: list[int] = []
    for col in range(n):
        hit = next((i for i, x in enumerate(m) if (x & _SLOT) % P), -1)
        if hit < 0:
            free.append(col)
            m = [x >> _W for x in m]
            continue
        prow = m.pop(hit)
        inv = pow((prow & _SLOT) % P, -1, P)
        tail = _fold(_fold(prow * inv, low, high), low, high) >> _W
        waiting = []
        for x in m:
            f = (x & _SLOT) % P
            x = _fold((x >> _W) + (P - f) * tail, low, high) if f else x >> _W
            if x:  # a zero row can never pivot
                waiting.append(x)
        m = waiting
        pivots.append(col)
        tails.append(tail)
    forms: list[list[int]] = [[] for _ in pivots]
    if not free:
        return pivots, free, forms
    # kernel[j]: coordinate j of every kernel vector, vector t in the _KW-bit
    # slot t. Pivot entries are kept in 1..P, so a dot product with a tail
    # (entries below 2^33) sums n terms below 2^64 in each slot.
    kernel = [0] * n
    for t, j in enumerate(free):
        kernel[j] = 1 << _KW * t
    shifts = range(0, _KW * len(free), _KW)
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        tail = memoryview(tails[k].to_bytes(8 * (n - col - 1), sys.byteorder)).cast("Q")
        if sys.byteorder == "big":
            tail = tail[::-1]  # slot 0, column col + 1, first
        dot = sum(map(operator.mul, filter(None, tail), compress(kernel[col + 1:], tail)))
        forms[k] = [((dot >> s) & _KW_SLOT) % P for s in shifts]
        kernel[col] = sum((P - a) << s for a, s in zip(forms[k], shifts))
    return pivots, free, forms


@dataclass(frozen=True)
class LinearVerdict:
    """What the linear stage decided about one graph and mode.

    status: "sat" (``red`` is the sign search's first +-1 kernel vector, its
    first free coordinate red; checked exactly, a failure raising
    RuntimeError), "unsat" (certified by the rank when nullity is 0, by the
    exhausted sign search otherwise), "deferred" (nullity above the cap;
    nothing was searched) or "timeout" (the deadline passed during the sign
    search). ``candidates`` counts the sign search's choices.
    """

    status: Literal["sat", "unsat", "deferred", "timeout"]
    nullity: int
    candidates: int = 0
    red: int | None = None


def kernel_verdict(
    g: Graph, mode: Mode, max_nullity: int | None = None, deadline: float = math.inf,
    form: tuple[list[int], list[int], list[list[int]]] | None = None,
) -> LinearVerdict:
    """Decide g in the given mode from the reduced mod-P echelon form of its
    balance matrix: unsat at nullity 0, otherwise (when the nullity is at
    most max_nullity, or always when it is None) by the sign search over
    the kernel, whose first +-1 vector answers sat after one exact check
    (a failed check raises RuntimeError). ``deadline`` is a time.monotonic()
    value, read every 1024 sign choices. ``form`` is that balance matrix's
    ``echelon`` when the caller already has it; otherwise it is computed
    here."""
    check_mode(mode)
    n = g.n
    if n == 0:  # the empty coloring
        return LinearVerdict("sat", 0, 0, 0)
    pivots, free, forms = form if form is not None else echelon(_balance_rows(g, mode), n)
    nullity = n - len(pivots)
    if nullity == 0:
        return LinearVerdict("unsat", 0)
    if max_nullity is not None and nullity > max_nullity:
        return LinearVerdict("deferred", nullity)
    # touch[t]: (row, coefficient) pairs of free coordinate t; due[t]: rows
    # whose last nonzero coefficient is at t
    touch: list[list[tuple[int, int]]] = [[] for _ in free]
    due: list[list[int]] = [[] for _ in free]
    for r, w in enumerate(forms):
        last = -1
        for t, a in enumerate(w):
            if a:
                touch[t].append((r, a))
                last = t
        if last < 0:  # this pivot coordinate is 0 in every kernel vector
            return LinearVerdict("unsat", nullity)
        due[last].append(r)
    # A choice: free coordinate t, its sign, and the red mask and partial
    # sums acc[r] = sum of forms[r][t'] * c[free[t']] over t' < t. Pivot r's
    # coordinate, -acc[r] once its last free variable is set, is checked
    # then. Depth first, the first free coordinate +1, +1 before -1.
    stack = [(0, 1, 0, [0] * len(forms))]
    choices = 0
    while stack:
        t, s, red, acc = stack.pop()
        choices += 1
        if not choices & 1023 and time.monotonic() > deadline:
            return LinearVerdict("timeout", nullity, choices)
        acc = acc[:]
        if s > 0:
            red |= 1 << free[t]
        for r, a in touch[t]:
            acc[r] = (acc[r] + s * a) % P
        if any(acc[r] != 1 and acc[r] != P - 1 for r in due[t]):
            continue
        if t + 1 < nullity:  # -1 goes below +1, so +1 is tried first
            stack.append((t + 1, -1, red, acc))
            stack.append((t + 1, 1, red, acc))
            continue
        for r, j in enumerate(pivots):
            if acc[r] == P - 1:  # pivot coordinate -acc[r] = +1
                red |= 1 << j
        checked_output(g, Coloring(n, red), mode, "kernel vector")
        return LinearVerdict("sat", nullity, choices, red)
    return LinearVerdict("unsat", nullity, choices)
