"""graph6 codec and edge-list format, cross-checked against networkx."""

import random

import networkx as nx
import pytest

import balanced_coloring as bc
from balanced_coloring import graph6 as g6

from conftest import random_graph


def nx_encode(g: bc.Graph) -> str:
    G = nx.empty_graph(g.n)
    G.add_edges_from(g.edges())
    return nx.to_graph6_bytes(G, header=False).decode().strip()


def test_fixed_vector_star():
    # 'D?{': five vertices, the four upper-triangle bits of column 4 set
    g = g6.decode("D?{")
    assert list(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert g6.encode(g) == "D?{"
    assert nx_encode(g) == "D?{"


def test_empty_graph_header_only():
    assert g6.encode(bc.empty_graph(0)) == "?"
    assert g6.decode("?") == bc.empty_graph(0)


def test_known_small_encodings_match_reference():
    for g in [
        bc.complete(4),
        bc.cycle(5),
        bc.path(6),
        bc.empty_graph(3),
        bc.gen_petersen(5, 2),
        bc.circulant(12, (1, 5, 6)),
    ]:
        assert g6.encode(g) == nx_encode(g)


def test_long_header_orders():
    for n in (63, 100, 1000):
        g = bc.empty_graph(n)
        enc = g6.encode(g)
        assert enc[0] == "~"
        assert g6.decode(enc) == g
        assert enc == nx_encode(g)


def test_round_trip_thousand_per_size():
    rng = random.Random(2024)
    for n in range(1, 31):
        for _ in range(1000):
            g = random_graph(rng, n, rng.random())
            assert g6.decode(g6.encode(g)) == g


def test_reference_agreement_random():
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(0, 40), rng.random())
        assert g6.encode(g) == nx_encode(g)
        assert g6.decode(nx_encode(g)) == g


@pytest.mark.parametrize(
    "payload,kind",
    [
        (b"", "malformed-header"),
        (b"D?", "truncated-body"),
        (b"D?{{", "trailing-data"),
        (bytes([30, 63]), "non-printable-byte"),
        (b"D?" + bytes([200]), "non-printable-byte"),
        (b"~?", "malformed-header"),
        (b"~~", "malformed-header"),
        (b"~??D", "malformed-header"),  # long form used for a small order
    ],
)
def test_decode_error_kinds(payload, kind):
    with pytest.raises(g6.Graph6Error) as exc:
        g6.decode(payload)
    assert exc.value.kind == kind
    assert isinstance(exc.value.offset, int)


def test_nonzero_padding_rejected():
    # K2 is 'A_' (one bit + five zero pads); dirty pads must not decode
    assert g6.encode(bc.complete(2)) == "A_"
    with pytest.raises(g6.Graph6Error) as exc:
        g6.decode("A`")
    assert exc.value.kind == "nonzero-padding"


def test_decode_is_total_on_random_bytes():
    # every input either raises Graph6Error or decodes to a graph whose
    # canonical encoding is exactly the input
    rng = random.Random(31337)
    for _ in range(20_000):
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 12)))
        try:
            g = g6.decode(payload)
        except g6.Graph6Error:
            continue
        assert g6.encode(g).encode("ascii") == payload


def test_iter_graph6_skips_header_and_blanks():
    text = ">>graph6<<A_\n\nD?{\n"
    graphs = list(g6.iter_graph6(text.splitlines()))
    assert [g.n for g in graphs] == [2, 5]


class TestEdgeList:
    def test_round_trip(self):
        g = bc.gen_petersen(6, 2)
        assert g6.parse_edge_list(g6.format_edge_list(g)) == g

    def test_format(self):
        text = g6.format_edge_list(bc.path(3))
        assert text == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "text",
        ["", "3\n", "2 1\n", "2 1\n0 1\n1 0\n", "2 1\n0 2\n", "2 1\nx y\n"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            g6.parse_edge_list(text)

    def test_order_limit_is_graph6s(self):
        # rejected from the header alone, before any rows are allocated
        with pytest.raises(ValueError, match="order"):
            g6.parse_edge_list(f"{1 << 18} 0\n")
        assert g6.parse_edge_list("5 0\n") == bc.empty_graph(5)
