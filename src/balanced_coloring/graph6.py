"""graph6 codec and a plain edge-list text format.

graph6 layout: a size header (n + 63 as one byte for n < 63, otherwise the
byte 126 followed by three base-64 digits, supporting n < 2**18), then the
upper triangle of the adjacency matrix in column-major order, bit x(i, j)
for j = 1..n-1 and i = 0..j-1, packed six bits per byte with 63 added to
every byte so the result stays printable ASCII.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph

_OFFSET = 63
_MAX_ORDER = 1 << 18
_HEADER_PREFIX = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; carries an error kind and a byte offset."""

    def __init__(self, kind: str, offset: int, message: str):
        super().__init__(f"{kind} at byte {offset}: {message}")
        self.kind = kind
        self.offset = offset


def encode(g: Graph) -> str:
    """Encode a graph as its canonical graph6 string."""
    n = g.n
    if n >= _MAX_ORDER:
        raise ValueError(f"graph6 support here stops below {_MAX_ORDER} vertices")
    if n <= 62:
        out = [chr(n + _OFFSET)]
    else:
        out = [
            chr(126),
            chr(((n >> 12) & 63) + _OFFSET),
            chr(((n >> 6) & 63) + _OFFSET),
            chr((n & 63) + _OFFSET),
        ]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + _OFFSET))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + _OFFSET))
    return "".join(out)


def decode(text: str | bytes) -> Graph:
    """Decode one graph6 string; raises Graph6Error with a byte offset."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    for off, byte in enumerate(data):
        if not _OFFSET <= byte <= 126:
            raise Graph6Error(
                "non-printable-byte", off, f"byte value {byte} outside 63..126"
            )
    if not data:
        raise Graph6Error("malformed-header", 0, "empty input")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error(
                "malformed-header", 1, f"orders of {_MAX_ORDER} or more unsupported"
            )
        if len(data) < 4:
            raise Graph6Error("malformed-header", len(data), "size header cut short")
        n = (
            ((data[1] - _OFFSET) << 12)
            | ((data[2] - _OFFSET) << 6)
            | (data[3] - _OFFSET)
        )
        if n <= 62:
            raise Graph6Error(
                "malformed-header", 0, f"order {n} must use the one-byte header"
            )
        body_start = 4
    else:
        n = data[0] - _OFFSET
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
        value = data[pos] - _OFFSET
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
    if pad and (data[-1] - _OFFSET) & ((1 << pad) - 1):
        raise Graph6Error("nonzero-padding", len(data) - 1, "padding bits must be zero")
    return Graph(n, tuple(rows))


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Decode a stream of graph6 lines, skipping blanks and the optional
    '>>graph6<<' file header."""
    for line in lines:
        s = line.strip()
        if s.startswith(_HEADER_PREFIX):
            s = s[len(_HEADER_PREFIX):].strip()
        if not s:
            continue
        yield decode(s)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v", 0-based.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad header line: {exc}") from exc
    if n >= _MAX_ORDER:  # graph6's limit, checked before rows are allocated
        raise ValueError(f"order {n} unsupported: inputs stop below {_MAX_ORDER} vertices")
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1} lines")
    edges = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ValueError(f"bad edge list: {exc}") from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
