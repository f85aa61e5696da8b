"""graph6 codec and a plain edge-list text format.

graph6 layout: a size header (n + 63 as one byte for n < 63, otherwise the
byte 126 followed by three base-64 digits, supporting n < 2**18), then the
upper triangle of the adjacency matrix in column-major order, bit x(i, j)
for j = 1..n-1 and i = 0..j-1, packed six bits per byte with 63 added to
every byte so the result stays printable ASCII.

That packing is base64 with its 64 digits spelled as the bytes 63..126, so
the C ``binascii`` codec packs and unpacks the body; the Python code around
it steps once per column and once per edge, never once per bit.
"""

from __future__ import annotations

import binascii
from typing import Iterable, Iterator

from .graphs import Graph

_OFFSET = 63
_MAX_ORDER = 1 << 18
_HEADER_PREFIX = ">>graph6<<"
# a graph6 digit is a base64 digit spelled with the bytes 63..126 in order
_GRAPH6_DIGITS = bytes(range(_OFFSET, 127))
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_GRAPH6 = bytes.maketrans(_BASE64_DIGITS, _GRAPH6_DIGITS)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6_DIGITS, _BASE64_DIGITS)


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
        header = bytes((n + _OFFSET,))
    else:
        header = bytes((
            126,
            ((n >> 12) & 63) + _OFFSET,
            ((n >> 6) & 63) + _OFFSET,
            (n & 63) + _OFFSET,
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
    body = binascii.b2a_base64(packed, newline=False).translate(_TO_GRAPH6)
    return (header + body[: -(-nbits // 6)]).decode("ascii")


def decode(text: str | bytes) -> Graph:
    """Decode one graph6 string; raises Graph6Error with a byte offset."""
    data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    bad = data.translate(None, _GRAPH6_DIGITS)
    if bad:
        off = data.index(bad[0])  # the first bad byte is the first of its value
        raise Graph6Error(
            "non-printable-byte", off, f"byte value {bad[0]} outside 63..126"
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
    pad = nbytes * 6 - nbits
    if pad and (data[-1] - _OFFSET) & ((1 << pad) - 1):
        raise Graph6Error("nonzero-padding", len(data) - 1, "padding bits must be zero")
    # "A" is the base64 zero digit; a2b_base64 wants whole 4-digit quanta
    digits = data[body_start:].translate(_FROM_GRAPH6) + b"A" * (-nbytes % 4)
    packed = binascii.a2b_base64(digits)
    # backwards is the body's nbits bits reversed, read from bin() under a
    # sentinel byte: column j, body bits x(0, j) .. x(j-1, j) from bit
    # j(j-1)/2 on, is the slice that ends nbits - j(j-1)/2 and reads as row
    # j's neighbors below j
    backwards = bin(int.from_bytes(b"\x01" + packed, "big"))[nbits + 2 : 2 : -1]
    rows = [0] * n
    end = nbits
    for j in range(1, n):
        rows[j] = col = int(backwards[end - j : end], 2)
        end -= j
        bit_j = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit_j
            col ^= low
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
