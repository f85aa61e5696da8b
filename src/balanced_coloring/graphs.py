"""Immutable bitset graphs: standard families, operators, and metrics.

Vertices are the dense integers 0..n-1 and every builder documents its
numbering, so constructive colorers can address vertices arithmetically
(parity patterns, residues mod 4). Adjacency rows are Python ints used as
bitsets: the verification and search code is dominated by popcounts over
neighborhoods, and ``int.bit_count`` is the cheapest primitive for that.
The four standard products share one kernel and number vertex (i, j) as
i * h.n + j; complete bipartite graphs and stars are joins of edgeless ones.

The vertex-transitive families are built a whole row at a time. Row i of a
circulant (and of a cycle) is row 0 rotated up by i. A hypercube doubles:
Q_(b+1) is two copies of Q_b joined by the matching v ~ v + 2^b. A
generalized Petersen graph or a prism is two rotated cycles, the outer on
0..n-1 and the inner on n..2n-1, plus the matching i ~ n + i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence


# graph6's limit; build_family refuses members this large before building them
MAX_ORDER = 1 << 18


class FamilyParameterError(ValueError):
    """Parameters outside a graph family's domain."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitset adjacency rows.

    Instances are immutable; operators return new graphs. Equality is labeled
    equality (same order, same rows), never isomorphism.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        for v, row in enumerate(self.adj):
            if row >> self.n:
                raise ValueError(f"row {v} has bits beyond vertex {self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            rest = row
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> Graph:
        """A graph from rows that are in range, loop-free and symmetric by
        construction, skipping the checks of ``__post_init__``. The
        package's builders and operators use it, and so does graph6
        decoding once it has screened every byte; ``Graph`` itself always
        checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._trusted(n, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def closed_row(self, v: int) -> int:
        """Bitset of the closed neighborhood N[v]."""
        return self.adj[v] | (1 << v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v, sorted lexicographically."""
        for u in range(self.n):
            for off in bits(self.adj[u] >> (u + 1)):
                yield (u, u + 1 + off)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={list(self.edges())})"


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise FamilyParameterError("order must be non-negative")
    return Graph._trusted(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise FamilyParameterError("order must be non-negative")
    full = (1 << n) - 1
    return Graph._trusted(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise FamilyParameterError("path needs at least one vertex")
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise FamilyParameterError("cycle needs at least three vertices")
    return Graph._trusted(n, tuple(_cycle_rows(n)))


def star(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves 1..leaves."""
    if leaves < 0:
        raise FamilyParameterError("leaf count must be non-negative")
    return complete_bipartite(1, leaves)


def wheel(n: int) -> Graph:
    """Wheel: hub 0 joined to the cycle on 1..n."""
    if n < 3:
        raise FamilyParameterError("wheel rim needs at least three vertices")
    return join(complete(1), cycle(n))


def complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite graph with sides 0..m-1 and m..m+n-1."""
    if m < 0 or n < 0:
        raise FamilyParameterError("side sizes must be non-negative")
    return join(empty_graph(m), empty_graph(n))


def circulant(n: int, lengths: Iterable[int]) -> Graph:
    """Circulant on 0..n-1: i is adjacent to i +- d mod n for each length d."""
    spec = CirculantSpec(n, tuple(lengths))
    return spec.build()


def gen_petersen(n: int, d: int) -> Graph:
    """Generalized Petersen graph on 2n vertices.

    Vertices 0..n-1 form the outer cycle, vertex n+i is the inner partner of
    i; inner edges join n+i to n+((i+d) mod n), spokes join i to n+i.
    """
    if n < 3:
        raise FamilyParameterError("outer cycle needs at least three vertices")
    if not 1 <= d <= (n - 1) // 2:
        raise FamilyParameterError(f"inner step must lie in 1..{(n - 1) // 2}")
    return _two_cycles(_cycle_rows(n), _rotations(n, 1 << d | 1 << n - d))


def hypercube(dim: int) -> Graph:
    """Hypercube whose vertices are dim-bit labels, edges at Hamming distance 1."""
    if dim < 0:
        raise FamilyParameterError("dimension must be non-negative")
    rows = [0]
    for b in range(dim):
        h = 1 << b
        low = [r | 1 << v + h for v, r in enumerate(rows)]
        rows = low + [r << h | 1 << v for v, r in enumerate(rows)]
    return Graph._trusted(1 << dim, tuple(rows))


def prism(n: int) -> Graph:
    """Prism over the n-cycle: two copies of C_n (0..n-1 and n..2n-1) plus a
    perfect matching i to n+i. Equals cartesian(K2, C_n) under its numbering."""
    if n < 3:
        raise FamilyParameterError("prism needs a cycle of length at least three")
    rim = _cycle_rows(n)
    return _two_cycles(rim, rim)


def _rotations(n: int, row0: int) -> list[int]:
    """Rows 0..n-1 of a circulant on 0..n-1 whose row 0 is row0: row i is
    row0 rotated up by i, one shift and at most one wrap per row. (A wide
    shift of row0 | row0 << n would pass every row through 2n bits.)"""
    rows = []
    r = row0
    for _ in range(n):
        rows.append(r)
        r <<= 1
        if r >> n:
            r ^= 1 << n | 1
    return rows


def _cycle_rows(n: int) -> list[int]:
    """Rows of the cycle 0-1-...-(n-1)-0."""
    return _rotations(n, 0b10 | 1 << n - 1)


def _two_cycles(outer: list[int], inner: list[int]) -> Graph:
    """The circulant rows ``outer`` on 0..n-1 and ``inner`` moved to
    n..2n-1, joined by the matching i ~ n + i."""
    n = len(outer)
    rows = [o | 1 << n + i for i, o in enumerate(outer)]
    rows += [r << n | 1 << i for i, r in enumerate(inner)]
    return Graph._trusted(2 * n, tuple(rows))


# name: (arity, order of the member, builder); the order is computed from
# the parameters alone, so an oversized member is refused before it exists
_FAMILIES: dict[str, tuple[int, Callable[..., int], Callable[..., Graph]]] = {
    "empty": (1, lambda n: n, lambda n: empty_graph(n)),
    "complete": (1, lambda n: n, lambda n: complete(n)),
    "path": (1, lambda n: n, lambda n: path(n)),
    "cycle": (1, lambda n: n, lambda n: cycle(n)),
    "star": (1, lambda m: m + 1, lambda m: star(m)),
    "wheel": (1, lambda n: n + 1, lambda n: wheel(n)),
    "complete-bipartite": (2, lambda m, n: m + n, lambda m, n: complete_bipartite(m, n)),
    "circulant": (2, lambda n, _: n, lambda n, lengths: circulant(n, lengths)),
    "gen-petersen": (2, lambda n, _: 2 * n, lambda n, d: gen_petersen(n, d)),
    "hypercube": (
        1, lambda dim: 1 << max(0, min(dim, MAX_ORDER.bit_length())),
        lambda dim: hypercube(dim),
    ),
    "prism": (1, lambda n: 2 * n, lambda n: prism(n)),
}
_FAMILIES["gp"] = _FAMILIES["gen-petersen"]


def _integer(value: object, what: str) -> int:
    """value itself when it is an int and not a bool: int() would coerce a
    float, string or bool into a different member than the one asked for."""
    if type(value) is not int:
        raise FamilyParameterError(f"{what} must be an integer, got {value!r}")
    return value


def build_family(kind: str, *params) -> Graph:
    """Build a named family member; raises FamilyParameterError on bad input.

    ``circulant`` takes (n, lengths) where lengths is an iterable of ints;
    all other families take plain integers. Integers are taken as given:
    a float, string or bool is refused, never coerced.
    """
    if kind not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise FamilyParameterError(f"unknown family {kind!r}; known: {known}")
    arity, order, builder = _FAMILIES[kind]
    if len(params) != arity:
        raise FamilyParameterError(f"family {kind!r} takes {arity} parameter(s)")
    # CirculantSpec checks a circulant's lengths
    for p in params[:1] if kind == "circulant" else params:
        _integer(p, f"{kind!r} parameter")
    try:
        if order(*params) >= MAX_ORDER:
            raise FamilyParameterError(
                f"{kind!r} member would have {MAX_ORDER} or more vertices; "
                f"orders stop below {MAX_ORDER}"
            )
        return builder(*params)
    except FamilyParameterError:
        raise
    except (TypeError, ValueError) as exc:
        raise FamilyParameterError(f"bad parameters for {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Parameterized family specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CirculantSpec:
    """Order n and a sorted set of connection lengths in 1..n//2. The order
    and every length must be ints (not bools); the lengths may come as any
    iterable."""

    n: int
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if _integer(self.n, "circulant order") < 1:
            raise FamilyParameterError("circulant order must be positive")
        norm = tuple(sorted({_integer(d, "connection length") for d in self.lengths}))
        object.__setattr__(self, "lengths", norm)
        if not norm:
            raise FamilyParameterError("connection set must be non-empty")
        if norm[0] < 1 or norm[-1] > self.n // 2:
            raise FamilyParameterError(
                f"connection lengths must lie in 1..{self.n // 2}"
            )

    @property
    def degree(self) -> int:
        half = self.n % 2 == 0 and self.n // 2 in self.lengths
        return 2 * len(self.lengths) - (1 if half else 0)

    @property
    def gcd_step(self) -> int:
        """gcd of the connection lengths together with n."""
        return math.gcd(self.n, *self.lengths)

    def build(self) -> Graph:
        n = self.n
        row0 = 0
        for d in self.lengths:
            row0 |= 1 << d | 1 << n - d
        return Graph._trusted(n, tuple(_rotations(n, row0)))


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._trusted(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Block-diagonal union; h's vertices are shifted by g.n."""
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph._trusted(g.n + h.n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two parts."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.adj]
    rows += [(row << g.n) | gmask for row in h.adj]
    return Graph._trusted(g.n + h.n, tuple(rows))


def spread(mask: int, width: int) -> int:
    """Bit k * width for each bit k of mask. Multiplying a row of at most
    width bits by it ORs one copy of the row into each chosen block."""
    return sum(1 << (k * width) for k in bits(mask))


def _product(g: Graph, h: Graph, inner: Sequence[int], across: Sequence[int]) -> Graph:
    """The product kernel; vertex (i, j) is encoded as i * h.n + j. It takes
    row inner[j] inside layer i and row across[j] in every layer adjacent to
    i in g (bitsets over h)."""
    m = h.n
    rows = []
    for i, grow in enumerate(g.adj):
        layers = spread(grow, m)
        rows.extend((inner[j] << (i * m)) | across[j] * layers for j in range(m))
    return Graph._trusted(g.n * m, tuple(rows))


def cartesian(g: Graph, h: Graph) -> Graph:
    """Cartesian product: (i, j) ~ (k, l) iff i = k and j ~ l, or i ~ k and j = l."""
    return _product(g, h, h.adj, [1 << j for j in range(h.n)])


def strong(g: Graph, h: Graph) -> Graph:
    """Strong product: the cartesian edges plus (i, j) ~ (k, l) for i ~ k and j ~ l."""
    return _product(g, h, h.adj, [row | 1 << j for j, row in enumerate(h.adj)])


def lexicographic(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: (i, j) ~ (k, l) iff i ~ k, or i = k and j ~ l."""
    return _product(g, h, h.adj, [(1 << h.n) - 1] * h.n)


def direct(g: Graph, h: Graph) -> Graph:
    """Direct (tensor) product: (i, j) ~ (k, l) iff i ~ k and j ~ l."""
    return _product(g, h, (0,) * h.n, h.adj)


_PRODUCTS = {
    "cartesian": cartesian,
    "strong": strong,
    "lexicographic": lexicographic,
    "direct": direct,
}


def product(kind: str, g: Graph, h: Graph) -> Graph:
    try:
        op = _PRODUCTS[kind]
    except KeyError:
        raise ValueError(f"unknown product kind {kind!r}") from None
    return op(g, h)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphMetrics:
    degrees: tuple[int, ...]
    max_degree: int
    diameter: float  # math.inf when disconnected
    is_connected: bool
    is_tree: bool
    components: tuple[tuple[int, ...], ...]


def _bfs_layers(adj: Sequence[int], start: int) -> list[int]:
    """The breadth-first layers from start as disjoint vertex masks: layer
    k holds the vertices at distance k. Their sum is start's component,
    and their count less one is start's eccentricity."""
    layers = []
    seen = layer = 1 << start
    while layer:
        layers.append(layer)
        nxt = 0
        while layer:
            low = layer & -layer
            nxt |= adj[low.bit_length() - 1]
            layer ^= low
        layer = nxt & ~seen
        seen |= layer
    return layers


def metrics(g: Graph) -> GraphMetrics:
    """Degrees, max degree, diameter, connectivity, tree test, components.

    The diameter of a disconnected graph is reported as ``math.inf`` so that
    census code never has to branch on exceptions; a graph with at most one
    vertex has diameter 0.
    """
    degs = g.degrees()
    maxdeg = max(degs, default=0)
    components: list[tuple[int, ...]] = []
    seen = 0
    for v in range(g.n):
        if (seen >> v) & 1:
            continue
        mask = sum(_bfs_layers(g.adj, v))
        seen |= mask
        components.append(tuple(bits(mask)))
    connected = len(components) <= 1
    if not connected:
        diameter: float = math.inf
    elif g.n <= 1:
        diameter = 0
    else:
        diameter = max(len(_bfs_layers(g.adj, v)) for v in range(g.n)) - 1
    is_tree = connected and g.n >= 1 and g.edge_count == g.n - 1
    return GraphMetrics(
        degrees=degs,
        max_degree=maxdeg,
        diameter=diameter,
        is_connected=connected,
        is_tree=is_tree,
        components=tuple(components),
    )


def _tree_layers(adj: Sequence[int], edges: int) -> list[int] | None:
    """The BFS layers from vertex 0 of the graph with rows adj and that
    many edges when it is a tree (n - 1 edges, and the layers reach every
    vertex), else None."""
    layers = _bfs_layers(adj, 0) if edges == len(adj) - 1 else None
    return layers if layers and sum(layers) == (1 << len(adj)) - 1 else None


def is_tree(g: Graph) -> bool:
    return _tree_layers(g.adj, g.edge_count) is not None


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on n vertices, for small-scale censuses."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        yield Graph._trusted(n, tuple(rows))
