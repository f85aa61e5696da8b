"""graph6 codec and edge-list format, cross-checked against networkx."""

import random
from itertools import combinations

import networkx as nx
import pytest

import balanced_coloring as bc
from balanced_coloring import graph6 as g6

from conftest import random_graph, ref_graph6_decode, ref_graph6_encode


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
    rng = random.Random(300)
    for g in [
        bc.empty_graph(63),
        bc.empty_graph(100),
        bc.empty_graph(1000),
        bc.hypercube(10),
        bc.circulant(256, (1, 9, 49, 128)),
        random_graph(rng, 300, 0.3),
    ]:
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


ERROR_CASES = [
    (b"", "malformed-header", 0),
    (b"D?", "truncated-body", 2),
    (b"D?{{", "trailing-data", 3),
    (bytes([30, 63]), "non-printable-byte", 0),
    (b"D?" + bytes([200]), "non-printable-byte", 2),
    (b"~?", "malformed-header", 2),
    (b"~~", "malformed-header", 1),
    (b"~??D", "malformed-header", 0),  # long form used for a small order
]


# a case is named by payload and kind; the offset is what it must report
@pytest.mark.parametrize(
    "payload,kind,offset",
    ERROR_CASES,
    ids=[f"{payload.decode('latin-1')}-{kind}" for payload, kind, _ in ERROR_CASES],
)
def test_decode_error_kinds(payload, kind, offset):
    with pytest.raises(g6.Graph6Error) as exc:
        g6.decode(payload)
    assert exc.value.kind == kind
    assert exc.value.offset == offset


def test_nonzero_padding_rejected():
    # K2 is 'A_' (one bit + five zero pads); dirty pads must not decode
    assert g6.encode(bc.complete(2)) == "A_"
    with pytest.raises(g6.Graph6Error) as exc:
        g6.decode("A`")
    assert exc.value.kind == "nonzero-padding"


def random_payloads(seed: int, low: int, high: int):
    """20,000 seeded byte strings of length 0..11 with bytes in low..high-1."""
    rng = random.Random(seed)
    for _ in range(20_000):
        yield bytes(rng.randrange(low, high) for _ in range(rng.randrange(0, 12)))


def test_decode_is_total_on_random_bytes():
    # every input either raises Graph6Error or decodes to a graph whose
    # canonical encoding is exactly the input
    for payload in random_payloads(31337, 0, 256):
        try:
            g = g6.decode(payload)
        except g6.Graph6Error:
            continue
        assert g6.encode(g).encode("ascii") == payload


def decode_outcome(decode, payload):
    try:
        return decode(payload)
    except g6.Graph6Error as exc:
        return (exc.kind, exc.offset, str(exc))


class TestAgainstReference:
    """The binascii codec against the per-bit reference in conftest."""

    def check(self, g: bc.Graph) -> str:
        enc = g6.encode(g)
        assert enc == ref_graph6_encode(g)
        assert g6.decode(enc) == g == ref_graph6_decode(enc)
        return enc

    def test_every_graph_to_order_6(self):
        count = 0
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
                self.check(bc.Graph.from_edges(n, edges))
                count += 1
        assert count == 1 + 1 + 2 + 8 + 64 + 1024 + 32768

    def test_header_switch_and_every_padding(self):
        rng = random.Random(6163)
        orders = [*range(61, 66), *range(126, 131), 258]
        for n in orders:
            for p in (0.0, 0.5, 1.0):
                enc = self.check(random_graph(rng, n, p))
                assert (enc[0] == "~") == (n >= 63)
        # every pad width an order can leave (0, 2, 3, 5 bits) and every
        # body length mod 4, the unit of a base64 quantum, is covered
        nbits = [n * (n - 1) // 2 for n in orders]
        assert {-b % 6 for b in nbits} == {-(n * (n - 1) // 2) % 6 for n in range(12)}
        assert {-(-b // 6) % 4 for b in nbits} == {0, 1, 2, 3}

    @pytest.mark.parametrize("low,high", [(0, 256), (60, 128)])
    def test_random_payloads_same_graph_or_error(self, low, high):
        # (0, 256) are the payloads of test_decode_is_total_on_random_bytes;
        # (60, 128) are mostly printable and reach the body checks
        for payload in random_payloads(31337, low, high):
            assert decode_outcome(g6.decode, payload) == decode_outcome(
                ref_graph6_decode, payload
            )


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
