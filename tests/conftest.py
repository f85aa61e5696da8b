"""Shared fixtures and independent reference oracles.

The reference implementations here deliberately avoid the library's bitset
paths: balance is recomputed from dict-of-set adjacency so that library and
oracle can only agree by both being right.
"""

from __future__ import annotations

import binascii
import functools
import random
import time
from fractions import Fraction
from itertools import combinations, product
from typing import Iterator, Sequence

import pytest

from balanced_coloring import CirculantSpec, Graph
from balanced_coloring.coloring import (
    BalanceReport,
    Coloring,
    ForcedConstraints,
    IdentityViolationError,
    InvalidColoringError,
    Mode,
    SizeMismatchError,
    _balance_rows,
    _certificates,
    _twin_groups,
    check_mode,
    first_unbalanced,
    leaf_overload,
    residuals,
)
from balanced_coloring.graph6 import Graph6Error
from balanced_coloring.graphs import _bfs_layers, bits, is_tree
from balanced_coloring.solver import _LimitExceeded
from balanced_coloring.trees import (
    AdditionStep, NotATreeError, TreeBuildScript, random_labeled_tree, replay,
)


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


def ref_family_graph(kind: str, params: tuple) -> Graph:
    """A family member from its documented edge list through
    ``Graph.from_edges``, one edge at a time. circulant (n, lengths):
    i ~ i +- d mod n. cycle (n): i ~ i + 1 mod n. gp (n, d): the outer
    cycle, spokes i - n+i and inner n+i ~ n + (i +- d mod n). prism (n):
    gp with inner step 1. wheel (n): hub 0 joined to the cycle on 1..n.
    hypercube (dim): labels at Hamming distance 1."""
    if kind == "circulant":
        n, lengths = params
        edges = [(i, (i + s * d) % n) for d in lengths for s in (1, -1) for i in range(n)]
        return Graph.from_edges(n, edges)
    if kind == "cycle":
        (n,) = params
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind in ("gp", "prism"):
        n, d = params if kind == "gp" else (params[0], 1)
        edges = []
        for i in range(n):
            edges += [(i, (i + 1) % n), (i, n + i)]
            edges += [(n + i, n + (i + d) % n), (n + i, n + (i - d) % n)]
        return Graph.from_edges(2 * n, edges)
    if kind == "wheel":
        (n,) = params
        rim = range(1, n + 1)
        return Graph.from_edges(n + 1, [(0, i) for i in rim] + [(i, i % n + 1) for i in rim])
    if kind == "hypercube":
        (dim,) = params
        edges = [(v, v ^ 1 << b) for v in range(1 << dim) for b in range(dim)]
        return Graph.from_edges(1 << dim, edges)
    raise ValueError(f"no reference for {kind!r}")


def cayley(orders: Sequence[int], S: Sequence[tuple[int, ...]]) -> Graph:
    """Cay(Z_n1 x ... x Z_nk, S), each element numbered in mixed radix with
    the first coordinate most significant, the numbering of
    ``graphs.cartesian``; S must be closed under negation and miss 0."""
    elements = list(product(*(range(m) for m in orders)))
    index = {x: i for i, x in enumerate(elements)}
    edges = [
        (index[x], index[tuple((a + b) % m for a, b, m in zip(x, s, orders))])
        for x in elements for s in S
    ]
    return Graph.from_edges(len(elements), edges)


def character_rule(orders: Sequence[int], S: Sequence[tuple[int, ...]], mode: Mode) -> bool:
    """Whether [cnb] + sum over s in S of chi(s) = 0 for some character chi
    of order 2^j >= 2 of Z_n1 x ... x Z_nk: constructions._two_adic_rule on
    an abelian group. With 2^(e_i) the 2-part of n_i, 2^J the largest of
    them and zeta a primitive 2^J-th root of unity, such characters are
    chi_a(x) = zeta^(sum of a_i x_i 2^(J - e_i)), a_i mod 2^(e_i), not all
    0. The sum is tested in Z[zeta] exactly: modulo Phi_(2^J) = x^H + 1,
    H = 2^(J-1), the exponent e < 2^J folds to e mod H with sign
    (-1)^(e // H), and the sum is 0 exactly when the folded terms cancel."""
    twos = [m & -m for m in orders]
    top = max(twos)
    for a in product(*(range(t) for t in twos)):
        if not any(a):
            continue
        folded = [0] * (top // 2)
        folded[0] += mode == "cnb"
        for s in S:
            e = sum(ai * si * (top // t) for ai, si, t in zip(a, s, twos)) % top
            folded[e % (top // 2)] += -1 if 2 * e >= top else 1
        if not any(folded):
            return True
    return False


def ref_circulant_routes(spec: CirculantSpec, mode: Mode) -> list[tuple[str, int]]:
    """The circulant routes that apply, as (name, red mask), from the
    length-class arithmetic they were first written in. Degree parity
    first (cnb needs the half length, nb its absence). "alternating" (n
    even, nb or n = 2 mod 4): the lengths below n/2 split evenly by parity.
    "half-period" (4 | n): those lengths other than n/4 are closed under
    d -> n/2 - d. "mod4-blocks" (cnb, 4 | n): with s1 and s2 the lengths
    below n/2 that are 0 and 2 mod 4, s2 = s1 + 1 at n = 0 mod 8 and
    s2 = s1 at n = 4 mod 8."""
    n, lengths = spec.n, set(spec.lengths)
    if (mode == "cnb") != (n % 2 == 0 and n // 2 in lengths):
        return []
    below = [d for d in lengths if 2 * d != n]
    routes = []
    evens = sum(d % 2 == 0 for d in below)
    if n % 2 == 0 and 2 * evens == len(below) and (mode == "nb" or n % 4 == 2):
        routes.append(("alternating", sum(1 << i for i in range(n) if i % 2)))
    if n % 4 == 0:
        core = {d for d in below if 4 * d != n}
        if all(n // 2 - d in core for d in core):
            mask = sum(1 << i for i in range(n) if (i % 2 == 1) != (i < n // 2))
            routes.append(("half-period", mask))
    if mode == "cnb" and n % 4 == 0:
        s1, s2 = sum(d % 4 == 0 for d in below), sum(d % 4 == 2 for d in below)
        if s2 - s1 == (n % 8 == 0):
            routes.append(("mod4-blocks", sum(1 << i for i in range(n) if i % 4 < 2)))
    return routes


def ref_symbol_remainder(spec: CirculantSpec, mode: Mode, h: int) -> list[int]:
    """The remainder of the symbol f(x) = [cnb] + sum over lengths d of
    (x^d + x^(n-d)), a length n/2 counted once, modulo x^h + 1, by long
    division on its dense coefficient list."""
    n = spec.n
    f = [0] * n
    f[0] += mode == "cnb"
    for d in spec.lengths:
        for e in {d, n - d}:
            f[e] += 1
    for k in range(n - 1, h - 1, -1):
        f[k - h] -= f[k]
        f[k] = 0
    return f[:h]


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


# The string-joining encoder the library used before it built the body as
# one int; ``encode`` must give byte-identical strings.
_G6_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(_G6_OFFSET, 127)),
)


def ref_encode(g: Graph) -> str:
    """Encode a graph as its canonical graph6 string."""
    n = g.n
    if n >= _G6_MAX_ORDER:
        raise ValueError(f"graph6 support here stops below {_G6_MAX_ORDER} vertices")
    if n <= 62:
        header = bytes((n + _G6_OFFSET,))
    else:
        header = bytes((
            126,
            ((n >> 12) & 63) + _G6_OFFSET,
            ((n >> 6) & 63) + _G6_OFFSET,
            (n & 63) + _G6_OFFSET,
        ))
    adj = g.adj
    # column j is bits x(0, j) .. x(j-1, j): the low j bits of row j written
    # backwards, read from bin() under a sentinel bit j that [:2:-1] drops
    bits = "".join(
        [bin((adj[j] & ((1 << j) - 1)) | (1 << j))[:2:-1] for j in range(1, n)]
    )
    nbits = len(bits)
    width = -(-nbits // 24) * 24  # whole base64 quanta of 3 bytes
    packed = (int(bits or "0", 2) << (width - nbits)).to_bytes(width // 8, "big")
    body = binascii.b2a_base64(packed, newline=False).translate(_G6_TO_GRAPH6)
    return (header + body[: -(-nbits // 6)]).decode("ascii")


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


# The multi-pass balance report and identity audit the library used before
# it read each row once; ``report`` and ``check_identities`` must give equal
# results and raise the same errors, with the same messages, in the same
# order.
def ref_report(g: Graph, c: Coloring) -> BalanceReport:
    if g.n != c.n:
        raise SizeMismatchError(f"graph has {g.n} vertices, coloring has {c.n}")
    red = c.bits
    full = (1 << g.n) - 1
    blue = full ^ red
    rr = sum((g.adj[v] & red).bit_count() for v in bits(red)) // 2
    bb = sum((g.adj[v] & blue).bit_count() for v in bits(blue)) // 2
    rb = g.edge_count - rr - bb
    red_deg = sum(g.adj[v].bit_count() for v in bits(red))
    blue_deg = sum(g.adj[v].bit_count() for v in bits(blue))
    return BalanceReport(
        red_count=c.red_count,
        blue_count=c.blue_count,
        rr=rr,
        bb=bb,
        rb=rb,
        red_degree_sum=red_deg,
        blue_degree_sum=blue_deg,
        closed_residuals=residuals(g, c, "cnb"),
        open_residuals=residuals(g, c, "nb"),
    )


def ref_check_identities(
    g: Graph, c: Coloring, mode: Mode, strict: bool = False
) -> list[tuple[str, bool | None]]:
    v = first_unbalanced(g, c, mode)
    if v is not None:
        raise InvalidColoringError(
            f"coloring must be {mode}-valid; neighborhood of vertex {v} is unbalanced"
        )
    rep = ref_report(g, c)
    n = g.n
    degs = g.degrees()
    m = sum(degs) // 2
    r = max(degs, default=0) if len(set(degs)) <= 1 else None
    results: list[tuple[str, bool | None]] = []
    if mode == "cnb":
        results.append((
            "degree-identity",
            rep.red_count + rep.red_degree_sum == rep.blue_count + rep.blue_degree_sum,
        ))
        if rep.red_count == rep.blue_count:
            results.append(("rr-eq-bb-when-balanced", rep.rr == rep.bb))
        else:
            results.append(("rr-eq-bb-when-balanced", None))
        results.append(("vertex-count-parity", n % 4 == 0 if m % 2 == 0 else n % 4 == 2))
        red_deg3 = sum(1 for v in bits(c.bits) if degs[v] % 4 == 3)
        blue_deg3 = sum(1 for v in range(n) if not (c.bits >> v) & 1 and degs[v] % 4 == 3)
        deg1 = sum(1 for d in degs if d % 4 == 1)
        results.append((
            "mod4-degree-counts",
            red_deg3 % 2 == 0 and blue_deg3 % 2 == 0 and deg1 % 2 == 0,
        ))
        if r is not None:
            ok = (
                2 * rep.red_count == n
                and 2 * rep.blue_count == n
                and 4 * rep.rb == (r + 1) * n
                and 8 * rep.rr == (r - 1) * n
                and 8 * rep.bb == (r - 1) * n
            )
            results.append(("regular-edge-counts", ok))
            results.append(("regular-order-residue", n % 4 == 0 or r % 4 == 1))
        else:
            results.append(("regular-edge-counts", None))
            results.append(("regular-order-residue", None))
    else:
        results.append(("degree-sums-equal", rep.red_degree_sum == rep.blue_degree_sum))
        results.append(("rr-eq-bb", rep.rr == rep.bb))
        if r is not None and r > 0:
            ok = (
                2 * rep.red_count == n
                and 4 * rep.rb == r * n
                and 8 * rep.rr == r * n
                and 8 * rep.bb == r * n
            )
            results.append(("regular-edge-counts", ok))
        else:
            results.append(("regular-edge-counts", None))
    if strict:
        for name, holds in results:
            if holds is False:
                raise IdentityViolationError(
                    f"identity {name} failed on a verified {mode} coloring"
                )
    return results


def outcome(f, *args) -> tuple:
    """f(*args) as ("ok", result) or ("raised", exception type, message)."""
    try:
        return ("ok", f(*args))
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return ("raised", type(exc), str(exc))


# Linear-stage references: a plain Gauss-Jordan over lists of Python ints
# mod p, with no packing and no delayed reduction, and the rank over the
# rationals. The library's reduced echelon form must give the
# same pivots, free columns and forms.
def ref_reduced_echelon(
    rows: Sequence[int], n: int, p: int
) -> tuple[list[int], list[int], list[list[int]]]:
    """Pivot columns, free columns, and for pivot k the coefficients
    w[k][t] of the reduced row echelon form mod p, so that x[pivots[k]] =
    -sum over t of w[k][t] * x[free[t]] on the kernel."""
    m = [[(r >> j) & 1 for j in range(n)] for r in rows]
    pivots: list[int] = []
    for col in range(n):
        hit = next((i for i in range(len(pivots), len(m)) if m[i][col] % p), None)
        if hit is None:
            continue
        k = len(pivots)
        m[k], m[hit] = m[hit], m[k]
        inv = pow(m[k][col], -1, p)
        m[k] = [a * inv % p for a in m[k]]
        for i in range(len(m)):
            f = m[i][col]
            if i != k and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[k])]
        pivots.append(col)
    free = [j for j in range(n) if j not in pivots]
    return pivots, free, [[m[k][j] for j in free] for k in range(len(pivots))]


def ref_rational_rank(rows: Sequence[int], n: int) -> int:
    """Rank over the rationals, by Gaussian elimination with Fraction
    multipliers (kept as ints while they are whole, which is most of the
    time on small 0/1 matrices)."""
    m = [[(r >> j) & 1 for j in range(n)] for r in rows]
    rank = 0
    for col in range(n):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        piv = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = Fraction(m[i][col], piv[col])
                if f.denominator == 1:
                    f = f.numerator
                m[i] = [a - f * b for a, b in zip(m[i], piv)]
        rank += 1
    return rank


# Forced-constraint reference: leaf_force as it was while _Search still
# applied the twin and leaf rules itself, its body kept verbatim (lists
# built pair by pair, the record through the dataclass constructor). The
# library's leaf_force must equal it field for field.
def ref_leaf_force(g: Graph, mode: Mode) -> ForcedConstraints:
    check_mode(mode)
    same = [
        (a, b) for members in _twin_groups(_balance_rows(g, mode))
        for a, b in zip(members, members[1:])
    ]
    opposite = []
    infeasible = None
    if mode == "cnb":
        degs = g.degrees()
        for v in range(g.n):
            if degs[v] == 1:
                nbr = g.adj[v].bit_length() - 1
                opposite.append((v, nbr))
        infeasible = leaf_overload(g, degs)
    return ForcedConstraints(tuple(same), tuple(opposite), infeasible)


def leafy_graphs(seed: int, count: int) -> list[Graph]:
    """Seeded graphs with many leaves, where the cnb leaf rule and twin
    groups of leaves shape the search's classes: a labeled tree of order
    2-16 with up to three extra edges, beside up to two K2 components and
    up to two stars of 1-5 leaves, the vertices relabeled at random."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = random_labeled_tree(rng.randint(2, 16), rng)
        n = t.n
        edges = set(t.edges())
        for _ in range(rng.randint(0, 3)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        for _ in range(rng.randint(0, 2)):
            edges.add((n, n + 1))
            n += 2
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, 5)
            edges.update((n, n + i) for i in range(1, k + 1))
            n += k + 1
        label = list(range(n))
        rng.shuffle(label)
        out.append(Graph.from_edges(n, [(label[u], label[v]) for u, v in edges]))
    return out


# Search reference: the counter-list search core the bit-sliced one in
# solver._Search replaced (a signed red-minus-blue count and a free-slot
# count per row, a rescan of every vertex per pick). Patched in for
# solver._Search, it must give the same verdicts, witnesses, counters and
# enumeration order.
class RefSearch:
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

    def _state(self) -> tuple[int, ...]:
        # the signed counts fix the red capacities, given the assigned mask
        return (self.assigned, *self.cur)

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



# Tree peel reference: the recognizer that ran one BFS over the live tree per
# peel step, after a separate BFS for the tree test. The library's peel
# reads kept BFS layers instead and must give the same scripts and errors.
def _ref_far_end(adj: Sequence[int], start: int) -> int:
    """The lowest vertex of the last BFS layer from start: one end of a
    longest path of the tree holding start."""
    *_, last = _bfs_layers(adj, start)
    return (last & -last).bit_length() - 1


def ref_decompose(t: Graph) -> TreeBuildScript | None:
    if not is_tree(t):
        raise NotATreeError(f"input with {t.n} vertices, {t.edge_count} edges")
    if next(_certificates(t, "cnb"), None) is not None:
        return None
    adj = list(t.adj)
    alive = (1 << t.n) - 1
    steps: list[AdditionStep] = []
    while alive.bit_count() > 2:
        a = _ref_far_end(adj, (alive & -alive).bit_length() - 1)
        v2 = adj[a].bit_length() - 1  # a is a leaf
        v3 = next((u for u in bits(adj[v2]) if adj[u].bit_count() > 1), None)
        if v3 is None or adj[v2].bit_count() != 3:
            return None
        x = next((u for u in bits(adj[v3]) if adj[u].bit_count() == 1), None)
        if x is None:
            return None
        w1, w2 = bits(adj[v2] & ~(1 << v3))
        steps.append(AdditionStep(z=v3, v=v2, x=x, w1=w1, w2=w2))
        # only v2 and x touch a survivor, and that survivor is v3
        gone = 1 << v2 | 1 << x | 1 << w1 | 1 << w2
        adj[v3] &= ~gone
        alive &= ~gone
    return TreeBuildScript(steps=tuple(reversed(steps)), base=tuple(bits(alive)))


def grown_tree(steps: int, rng: random.Random) -> Graph:
    """A closed-balanced tree: one edge and `steps` 4-vertex additions at
    random anchors, randomly labeled, built by one replay (so in linear time,
    unlike repeated ``four_vertex_addition`` calls that verify each step)."""
    n = 2 + 4 * steps
    label = list(range(n))
    rng.shuffle(label)
    script = TreeBuildScript(
        steps=tuple(
            AdditionStep(label[rng.randrange(2 + 4 * i)], *label[2 + 4 * i : 6 + 4 * i])
            for i in range(steps)
        ),
        base=(label[0], label[1]),
    )
    return replay(script)[0]


def low_x_star_tree(k: int) -> Graph:
    """k 4-vertex additions all anchored at the center k of the edge k-(k+1),
    with the leaves x taken from the center numbered 0..k-1: the BFS start
    (the lowest live vertex) is that peel step's x at every step."""
    steps = tuple(
        AdditionStep(z=k, v=k + 2 + 3 * i, x=i, w1=k + 3 + 3 * i, w2=k + 4 + 3 * i)
        for i in range(k)
    )
    return replay(TreeBuildScript(steps=steps, base=(k, k + 1)))[0]

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
