"""Tree machinery: the two vertex-addition operations, the constructive
recognizer for closed-balanced trees, script replay, the forcing pass that
``solve`` decides cnb trees with, and labeled-tree generation through
Prufer sequences.

A closed-balanced tree is exactly one built from a single edge by repeated
4-vertex additions, so recognition peels those additions off an end of a
longest path, read from BFS layers kept across the steps, and records them;
replaying the recorded script reconstructs the tree with its original
labels and a valid coloring. The forcing pass needs no script: rooted at
vertex 0, each vertex's closed-neighborhood equation fixes whether it
shares its parent's color, so one pass up the BFS layers decides the tree
and one pass down writes its coloring.

The peel, the forcing pass and replay walk vertex masks bitwise (the
lowest bit is ``m & -m``, its vertex ``bit_length() - 1``), and the peel
keeps a mask of the remaining leaves, so a step scans no neighbor list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Iterator, Sequence

from .coloring import (
    Coloring, InvalidColoringError, _degree_parity, _record, checked_output, leaf_overload,
    require_valid,
)
from .graphs import MAX_ORDER, Graph, _bfs_layers, _tree_layers


class NotATreeError(ValueError):
    """The input graph is not a tree."""


class MalformedScriptError(ValueError):
    """A build script that cannot be replayed."""


class ColorPatternError(InvalidColoringError):
    """Anchor vertices do not show the color pattern an addition needs."""


# ---------------------------------------------------------------------------
# Vertex additions
# ---------------------------------------------------------------------------


def four_vertex_addition(g: Graph, c: Coloring, z: int) -> tuple[Graph, Coloring]:
    """Graft the 4-vertex gadget onto anchor z, preserving closed balance.

    New vertices are appended as v = n, x = n+1, w1 = n+2, w2 = n+3 with
    edges z-v, z-x, v-w1, v-w2; v takes z's color and the other three take
    the opposite color. The output is re-verified.
    """
    require_valid(g, c, "cnb", "input coloring")
    if not 0 <= z < g.n:
        raise ValueError(f"anchor {z} outside 0..{g.n - 1}")
    n = g.n
    rows = list(g.adj) + [0, 0, 0, 0]
    red = _graft(rows, c.bits, z, n, n + 1, n + 2, n + 3)
    out = Graph._trusted(n + 4, tuple(rows))
    return out, checked_output(out, Coloring(n + 4, red), "cnb", "4-vertex addition")


def three_vertex_addition(
    g: Graph, c: Coloring, w: int, x: int, y: int, z: int
) -> tuple[Graph, Coloring]:
    """Graft the 3-vertex gadget onto {w, x, y, z}, preserving open balance.

    Requires w, x one color and y, z the other. New vertices are u = n
    (adjacent to all four anchors, colored blue), a1 = n+1 (adjacent to w
    and y) and a2 = n+2 (adjacent to x and z), both red.
    """
    require_valid(g, c, "nb", "input coloring")
    anchors = (w, x, y, z)
    if len(set(anchors)) != 4 or not all(0 <= a < g.n for a in anchors):
        raise ValueError("anchors must be four distinct vertices of the graph")
    if not (c.is_red(w) == c.is_red(x) and c.is_red(y) == c.is_red(z)):
        raise ColorPatternError("need w, x one color and y, z one color")
    if c.is_red(w) == c.is_red(y):
        raise ColorPatternError("the pairs {w, x} and {y, z} must differ in color")
    n = g.n
    u, a1, a2 = n, n + 1, n + 2
    rows = list(g.adj) + [0, 0, 0]
    for a, b in ((u, w), (u, x), (u, y), (u, z), (a1, w), (a1, y), (a2, x), (a2, z)):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    out = Graph._trusted(n + 3, tuple(rows))
    col = Coloring(n + 3, c.bits | (1 << a1) | (1 << a2))
    return out, checked_output(out, col, "nb", "3-vertex addition")


# ---------------------------------------------------------------------------
# Build scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditionStep:
    """One 4-vertex addition: anchor z gains neighbors v and x, and v gains
    leaves w1 and w2."""

    z: int
    v: int
    x: int
    w1: int
    w2: int


@dataclass(frozen=True)
class TreeBuildScript:
    """Certificate that a tree is closed-balanced: an initial edge plus the
    ordered 4-vertex additions that rebuild the tree label-for-label."""

    steps: tuple[AdditionStep, ...]
    base: tuple[int, int] = (0, 1)

    def as_dict(self) -> dict:
        return {
            "base": list(self.base),
            "steps": [
                {"z": s.z, "v": s.v, "x": s.x, "w1": s.w1, "w2": s.w2}
                for s in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> TreeBuildScript:
        if not isinstance(data, dict):
            raise MalformedScriptError(
                f"script must be a JSON object, got {type(data).__name__}"
            )
        try:
            base = tuple(_vertex_id(b) for b in data.get("base", (0, 1)))
            steps = tuple(
                AdditionStep(*(_vertex_id(s[k]) for k in ("z", "v", "x", "w1", "w2")))
                for s in data["steps"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedScriptError(f"bad script payload: {exc}") from exc
        if len(base) != 2:
            raise MalformedScriptError("base must list exactly two vertices")
        return cls(steps=steps, base=base)


def _vertex_id(value: object) -> int:
    """A script's vertex id as given: a JSON integer, never a bool, float or
    string that int() would coerce into another tree."""
    if type(value) is not int:
        raise TypeError(f"vertex id {value!r} is not an integer")
    return value


def _graft(rows: list[int], red: int, z: int, v: int, x: int, w1: int, w2: int) -> int:
    """Add a step's edges z-v, z-x, v-w1 and v-w2 to rows, and return the
    red mask with the new vertices colored: v takes z's color, and x, w1
    and w2 take the opposite one."""
    rows[z] |= 1 << v | 1 << x
    rows[v] |= 1 << z | 1 << w1 | 1 << w2
    rows[x] |= 1 << z
    rows[w1] |= 1 << v
    rows[w2] |= 1 << v
    if red >> z & 1:
        return red | 1 << v
    return red | 1 << x | 1 << w1 | 1 << w2


def replay(script: TreeBuildScript) -> tuple[Graph, Coloring]:
    """Rebuild the tree a script describes, with its coloring.

    The base edge gets red on its lower vertex; each step then colors its
    new vertices by the addition rule. Every id must lie in 0..n-1 and each
    step's new vertices must be fresh, so the n ids cover 0..n-1 exactly;
    anything structurally inconsistent raises MalformedScriptError, and so
    does a script for MAX_ORDER or more vertices, before any step.
    """
    n = 2 + 4 * len(script.steps)
    if n >= MAX_ORDER:
        raise MalformedScriptError(f"a script must build fewer than {MAX_ORDER} vertices")
    a, b = script.base
    if a == b or not (0 <= a < n and 0 <= b < n):
        raise MalformedScriptError(f"base must be two distinct vertices in 0..{n - 1}")
    rows = [0] * n
    rows[a], rows[b] = 1 << b, 1 << a
    red = 1 << min(a, b)
    seen = 1 << a | 1 << b
    for idx, s in enumerate(script.steps):
        z, v, x, w1, w2 = s.z, s.v, s.x, s.w1, s.w2
        # a negative id makes the OR negative
        if (z | v | x | w1 | w2) < 0 or max(z, v, x, w1, w2) >= n:
            raise MalformedScriptError(f"step {idx}: vertex id outside 0..{n - 1}")
        fresh = 1 << v | 1 << x | 1 << w1 | 1 << w2
        if fresh.bit_count() != 4 or fresh & seen:
            raise MalformedScriptError(f"step {idx}: new vertices must be fresh")
        if not seen >> z & 1:
            raise MalformedScriptError(f"step {idx}: anchor {z} not present yet")
        seen |= fresh
        red = _graft(rows, red, z, v, x, w1, w2)
    g = Graph._trusted(n, tuple(rows))
    return g, checked_output(g, Coloring(n, red), "cnb", "replayed script")


# ---------------------------------------------------------------------------
# Recognition: the peel and the forcing pass
# ---------------------------------------------------------------------------


def decompose_cnbc_tree(t: Graph) -> TreeBuildScript | None:
    """Recognize a closed-balanced tree and emit its build script, or None.

    Rejections: the first of solve's certificates (``_certificates``: for
    a tree, an even-degree vertex or an order not 2 mod 4, then a vertex
    carrying more than (deg+1)/2 leaves), from the degree pass that also
    counts the tree test's edges; then any peel step failing. The tree
    test's BFS layers from vertex 0 serve each step until that start is
    peeled (peeling keeps distances), then a BFS runs from the lowest live
    vertex. A step's a, the lowest live vertex of the deepest live layer,
    ends a longest path, so its neighbor v2 has at most one non-leaf
    neighbor v3 (none: a star is left). The step checks that v2 has degree
    3, removes v2, its two leaves and the lowest leaf of v3 (from the mask
    of live leaves, which only v3 can join), and records the addition;
    only an edge may be left. Raises NotATreeError on a non-tree.
    """
    adj = list(t.adj)
    n = t.n
    degs = [row.bit_count() for row in adj]
    layers = _tree_layers(adj, sum(degs) >> 1)
    if layers is None:
        raise NotATreeError(f"input with {n} vertices, {sum(degs) >> 1} edges")
    # _certificates' chain in cnb: an odd order, the degree parities, the leaf bound
    if n % 2 or _degree_parity(n, degs, "cnb") or leaf_overload(t, degs):
        return None
    leaves = sum(1 << v for v, d in enumerate(degs) if d == 1)
    alive = (1 << n) - 1
    steps: list[AdditionStep] = []
    for _ in range(n >> 2):  # n is 2 mod 4: the steps leave an edge
        if not layers[0] & alive:
            layers = _bfs_layers(adj, (alive & -alive).bit_length() - 1)
        while not layers[-1] & alive:
            layers.pop()
        m = layers[-1] & alive
        v2 = adj[(m & -m).bit_length() - 1].bit_length() - 1  # a, m's lowest bit, is a leaf
        row = adj[v2]
        hub = row & ~leaves
        if not hub or row.bit_count() != 3:
            return None
        hub &= -hub
        v3 = hub.bit_length() - 1
        xs = adj[v3] & leaves
        if not xs:
            return None
        xs &= -xs
        pair = row ^ hub
        w = pair & -pair
        steps.append(_record(AdditionStep, z=v3, v=v2, x=xs.bit_length() - 1,
                             w1=w.bit_length() - 1, w2=(pair ^ w).bit_length() - 1))
        # only v2 and x touch a survivor, and that survivor is v3
        gone = 1 << v2 | xs | pair
        alive &= ~gone
        leaves &= ~gone
        row = adj[v3] = adj[v3] & ~gone
        if not row & (row - 1):
            leaves |= hub
    low = alive & -alive
    return _record(TreeBuildScript, steps=tuple(reversed(steps)),
                   base=(low.bit_length() - 1, (alive ^ low).bit_length() - 1))


def _tree_forcing(t: Graph) -> tuple[int | None, str] | None:
    """Decide a tree in cnb by forcing, rooted at vertex 0: None when t is
    not a tree, else (red mask with vertex 0 red, "") or (None, why).

    Needs every degree odd (solve's prefilter). Vertex v with degree d
    needs (d+1)/2 - 1 neighbors of its own color. Going up from the deepest
    BFS layer, the children of v have already said whether they share v's
    color, so v's equation leaves exactly one unknown: whether v shares its
    parent's color, which must come out 0 or 1. The root's equation has no
    unknown left and is a check. Each equation is read once, so a balanced
    coloring exists exactly when every step passes, and it is unique up to
    swapping the colors; one pass down then writes it.
    """
    adj = t.adj
    layers = _tree_layers(adj, t.edge_count)
    if layers is None:
        return None
    share = 0  # the vertices that take their parent's color
    for layer in reversed(layers):
        while layer:
            low = layer & -layer
            layer ^= low
            row = adj[low.bit_length() - 1]
            want = (row.bit_count() - 1) >> 1  # (d+1)/2 - 1, rounded down
            have = (row & share).bit_count()  # only children are in share
            if want - have == 1 and low != 1:
                share |= low
            elif want != have:
                v = low.bit_length() - 1
                parent = ", and its parent at most one" if v else ""
                return None, (f"vertex {v} needs {want} of its neighbors in its color; "
                              f"its children give {have}{parent}")
    red = 1
    for above, layer in zip(layers, layers[1:]):
        up, below_red = red & above, 0
        while up:
            low = up & -up
            below_red |= adj[low.bit_length() - 1]
            up ^= low
        red |= layer & ~(below_red ^ share)
    return red, ""


# ---------------------------------------------------------------------------
# Labeled tree generation (Prufer sequences)
# ---------------------------------------------------------------------------


def prufer_decode(seq: Sequence[int]) -> Graph:
    """Tree on len(seq) + 2 vertices from a Prufer sequence."""
    n = len(seq) + 2
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} outside 0..{n - 1}")
        degree[s] += 1
    rows = [0] * n
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        rows[leaf] |= 1 << s
        rows[s] |= 1 << leaf
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    rows[leaf] |= 1 << (n - 1)
    rows[n - 1] |= 1 << leaf
    return Graph._trusted(n, tuple(rows))


def labeled_trees(n: int) -> Iterator[Graph]:
    """All n**(n-2) labeled trees on n vertices; exhaustive generation is
    only sensible for small n (the census work keeps n <= 9)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        yield Graph(1, (0,))
        return
    for seq in _iproduct(range(n), repeat=n - 2):
        yield prufer_decode(seq)


def random_labeled_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labeled tree via a uniform random Prufer sequence."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return Graph(1, (0,))
    return prufer_decode([rng.randrange(n) for _ in range(n - 2)])
