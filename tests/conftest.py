"""Shared fixtures and independent reference oracles.

The reference implementations here deliberately avoid the library's bitset
paths: balance is recomputed from dict-of-set adjacency so that library and
oracle can only agree by both being right.
"""

from __future__ import annotations

import functools
import random
from itertools import combinations

import pytest

from balanced_coloring import Graph
from balanced_coloring.graph6 import Graph6Error


def ref_neighbor_sets(g: Graph) -> dict[int, set[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def ref_balanced(g: Graph, red_mask: int, mode: str) -> bool:
    """Set-based rebuild of the balance condition."""
    nbrs = ref_neighbor_sets(g)
    reds = {v for v in range(g.n) if (red_mask >> v) & 1}
    for v in range(g.n):
        hood = set(nbrs[v])
        if mode == "cnb":
            hood.add(v)
        r = len(hood & reds)
        if 2 * r != len(hood):
            return False
    return True


@functools.cache
def _red_sets(n: int) -> tuple[frozenset[int], ...]:
    return tuple(frozenset(v for v in range(n) if (m >> v) & 1) for m in range(1 << n))


def brute_force_masks(g: Graph, mode: str) -> list[int]:
    """All balanced colorings by exhausting the 2^n assignments (the test
    of ref_balanced, with the neighborhoods built once per graph)."""
    nbrs = ref_neighbor_sets(g)
    hoods = [nbrs[v] | {v} if mode == "cnb" else nbrs[v] for v in range(g.n)]
    return [
        m for m, reds in enumerate(_red_sets(g.n))
        if all(2 * len(hood & reds) == len(hood) for hood in hoods)
    ]


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


# graph6 reference: one loop iteration per upper-triangle bit, no binascii.
# The library's codec must give the same strings, graphs and errors.
_G6_OFFSET = 63
_G6_MAX_ORDER = 1 << 18


def ref_graph6_encode(g: Graph) -> str:
    n = g.n
    if n >= _G6_MAX_ORDER:
        raise ValueError(f"graph6 support here stops below {_G6_MAX_ORDER} vertices")
    if n <= 62:
        out = [chr(n + _G6_OFFSET)]
    else:
        out = [
            chr(126),
            chr(((n >> 12) & 63) + _G6_OFFSET),
            chr(((n >> 6) & 63) + _G6_OFFSET),
            chr((n & 63) + _G6_OFFSET),
        ]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + _G6_OFFSET))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + _G6_OFFSET))
    return "".join(out)


def ref_graph6_decode(text: str | bytes) -> Graph:
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    for off, byte in enumerate(data):
        if not _G6_OFFSET <= byte <= 126:
            raise Graph6Error(
                "non-printable-byte", off, f"byte value {byte} outside 63..126"
            )
    if not data:
        raise Graph6Error("malformed-header", 0, "empty input")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error(
                "malformed-header", 1, f"orders of {_G6_MAX_ORDER} or more unsupported"
            )
        if len(data) < 4:
            raise Graph6Error("malformed-header", len(data), "size header cut short")
        n = (
            ((data[1] - _G6_OFFSET) << 12)
            | ((data[2] - _G6_OFFSET) << 6)
            | (data[3] - _G6_OFFSET)
        )
        if n <= 62:
            raise Graph6Error(
                "malformed-header", 0, f"order {n} must use the one-byte header"
            )
        body_start = 4
    else:
        n = data[0] - _G6_OFFSET
        body_start = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - body_start < nbytes:
        raise Graph6Error(
            "truncated-body",
            len(data),
            f"need {nbytes} body bytes for order {n}, got {len(data) - body_start}",
        )
    if len(data) - body_start > nbytes:
        raise Graph6Error(
            "trailing-data", body_start + nbytes, "extra bytes after the bit body"
        )
    rows = [0] * n
    bit = 0
    j = 1
    i = 0
    for pos in range(body_start, len(data)):
        value = data[pos] - _G6_OFFSET
        for k in range(5, -1, -1):
            if bit == nbits:
                break
            if (value >> k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
            i += 1
            if i == j:
                j += 1
                i = 0
    pad = nbytes * 6 - nbits
    if pad and (data[-1] - _G6_OFFSET) & ((1 << pad) - 1):
        raise Graph6Error("nonzero-padding", len(data) - 1, "padding bits must be zero")
    return Graph(n, tuple(rows))


# H6: the unique 6-vertex balanced tree, labeled z1=0, z2=1, v=2, x=3,
# w1=4, w2=5 (one 4-vertex addition to the edge 0-1 at vertex 0).
H6_EDGES = [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5)]

# H7: 3-vertex addition to the edgeless graph on {0,1,2,3} colored RRBB;
# u=4 joins all four anchors, a1=5 joins 0 and 2, a2=6 joins 1 and 3.
H7_EDGES = [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 2), (6, 1), (6, 3)]
H7_COLORING = "RRBBBRR"


@pytest.fixture
def h6() -> Graph:
    return Graph.from_edges(6, H6_EDGES)


@pytest.fixture
def h7() -> Graph:
    return Graph.from_edges(7, H7_EDGES)
