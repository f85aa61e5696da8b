"""Seeded input generators for the benchmark, standard library only.

Graphs are (n, rows) pairs with rows as int bitsets, the same layout the
package uses, and leave this module as graph6 text. Nothing here imports
the package, so the inputs of a seed do not change when the code under
test changes.
"""

from __future__ import annotations

import random
from itertools import combinations

# ---------------------------------------------------------------------------
# graph6 encoding and small graph helpers
# ---------------------------------------------------------------------------


def g6_encode(n: int, rows: list[int]) -> str:
    """graph6 text for a graph on 0..n-1 (n < 2**18)."""
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = [chr(126)] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    acc = nbits = 0
    for j in range(1, n):
        col = rows[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)


def from_edges(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edges_of(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, row in enumerate(rows) for v in range(u + 1, len(rows))
            if (row >> v) & 1]


def relabel(rows: list[int], rng: random.Random) -> list[int]:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return from_edges(len(rows), ((perm[u], perm[v]) for u, v in edges_of(rows)))


def union(parts: list[list[int]]) -> list[int]:
    """Disjoint union; later parts are shifted past earlier ones."""
    rows: list[int] = []
    for part in parts:
        shift = len(rows)
        rows.extend(row << shift for row in part)
    return rows


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def prufer_tree(n: int, rng: random.Random) -> list[int]:
    """Uniform random labeled tree on n >= 2 vertices (Prufer decoding)."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = degree.index(1)
        edges.append((leaf, s))
        degree[leaf] = 0
        degree[s] -= 1
    u, v = (i for i in range(n) if degree[i] == 1)
    edges.append((u, v))
    return from_edges(n, edges)


def grown_tree(steps: int, rng: random.Random) -> list[int]:
    """Closed-balanced tree: one edge plus `steps` random 4-vertex additions
    (anchor z gains v and x, v gains w1 and w2), randomly relabeled."""
    edges = [(0, 1)]
    n = 2
    for _ in range(steps):
        z = rng.randrange(n)
        v, x, w1, w2 = n, n + 1, n + 2, n + 3
        edges += [(z, v), (z, x), (v, w1), (v, w2)]
        n += 4
    return relabel(from_edges(n, edges), rng)


# ---------------------------------------------------------------------------
# Regular graphs by double-edge swaps
# ---------------------------------------------------------------------------


def _swap_edges(edges: list[tuple[int, int]], rng: random.Random, rounds: int,
                ok=lambda a, b: True) -> list[tuple[int, int]]:
    """Degree-preserving randomization: replace edges ab, cd by ad, cb when
    that creates no loop or repeated edge and `ok` accepts both new pairs."""
    present = {frozenset(e) for e in edges}
    m = len(edges)
    for _ in range(rounds * m):
        i, j = rng.randrange(m), rng.randrange(m)
        (a, b), (c, d) = edges[i], edges[j]
        if len({a, b, c, d}) < 4 or not (ok(a, d) and ok(c, b)):
            continue
        e1, e2 = frozenset((a, d)), frozenset((c, b))
        if e1 in present or e2 in present:
            continue
        present -= {frozenset((a, b)), frozenset((c, d))}
        present |= {e1, e2}
        edges[i], edges[j] = (a, d), (c, b)
    return edges


def regular(n: int, d: int, rng: random.Random) -> list[int]:
    """Random d-regular graph on n vertices: a circulant of degree d
    scrambled by double-edge swaps (n*d even, d < n)."""
    lengths = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in lengths})
    return from_edges(n, _swap_edges(edges, rng, 10))


def bipartite_regular(m: int, b: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random b-regular bipartite edges between 0..m-1 and m..2m-1."""
    edges = [(i, m + (i + k) % m) for i in range(m) for k in range(b)]
    return _swap_edges(edges, rng, 10, ok=lambda u, v: (u < m) != (v < m))


def planted(n: int, d: int, mode: str, rng: random.Random) -> list[int]:
    """A d-regular graph with a planted balanced coloring, relabeled.

    Red block 0..n/2-1 and blue block n/2..n-1 are each r-regular and are
    joined by a b-regular bipartite graph. Closed balance needs 1 + r = b,
    so d = 2b - 1 is odd; open balance needs r = b, so d = 2b is even.
    """
    h = n // 2
    b = (d + 1) // 2 if mode == "cnb" else d // 2
    r = d - b
    red = regular(h, r, rng) if r else [0] * h
    blue = regular(h, r, rng) if r else [0] * h
    rows = union([red, blue])
    for u, v in bipartite_regular(h, b, rng):
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return relabel(rows, rng)


# ---------------------------------------------------------------------------
# Family sweeps (parameters only; the program builds the graphs)
# ---------------------------------------------------------------------------


def circulant_sets(n: int) -> list[tuple[int, ...]]:
    """Every non-empty connection set in 1..n//2."""
    pool = range(1, n // 2 + 1)
    return [c for k in range(1, len(pool) + 1) for c in combinations(pool, k)]


def random_circulant_set(n: int, k: int, rng: random.Random, mode: str) -> tuple[int, ...]:
    """A random connection set of k lengths below n/2 whose degree parity
    suits the mode (plus the half length for cnb, none for nb), so the
    verdict is not a parity rejection."""
    below = list(range(1, (n - 1) // 2 + 1))
    lengths = rng.sample(below, k)
    if mode == "cnb":
        lengths.append(n // 2)
    return tuple(sorted(lengths))
