"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is exhaustive-by-construction and takes a few
minutes, dominated by the labeled-tree sweep.
"""

import functools
import random
import time
from collections import Counter

import networkx as nx
import pytest

import balanced_coloring as bc
from balanced_coloring import Coloring, graph6 as g6

_AUDITS: Counter = Counter()


def _audit(g, c, mode):
    """Zero-tolerance identity check on a valid coloring (criteria 6 and 7)."""
    bc.check_identities(g, c, mode, strict=True)
    _AUDITS[mode] += 1


def criterion(k, name):
    """Print one pass/fail line per criterion, whatever pytest shows."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(
                    f"ACCEPTANCE criterion {k} ({name}): FAIL "
                    f"[{time.perf_counter() - t0:.1f}s]"
                )
                raise
            print(
                f"ACCEPTANCE criterion {k} ({name}): PASS "
                f"[{time.perf_counter() - t0:.1f}s]"
            )

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# Shared instance sets (computed once, reused by criteria 6 and 7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_cases():
    out = []
    for n in range(4, 25, 2):
        for d in range(1, n // 2):
            g = bc.circulant(n, (d, n // 2))
            out.append((n, d, g, bc.characterize_cubic_circulant(n, d), bc.solve(g, "cnb")))
    return out


@pytest.fixture(scope="module")
def quintic_cases():
    out = []
    for n in (6, 10, 14, 18, 22):
        for d1 in range(1, n // 2):
            for d2 in range(d1 + 1, n // 2):
                g = bc.circulant(n, (d1, d2, n // 2))
                out.append((n, d1, d2, g, bc.solve(g, "cnb")))
    return out


@pytest.fixture(scope="module")
def gp_cases():
    out = []
    for n in range(3, 13):
        for d in range(1, (n - 1) // 2 + 1):
            g = bc.gen_petersen(n, d)
            out.append((n, d, g, bc.characterize_gp(n, d), bc.solve(g, "cnb")))
    return out


# ---------------------------------------------------------------------------
# Criterion 1: complement duality, exhaustive to order six
# ---------------------------------------------------------------------------


@criterion(1, "complement duality")
def test_criterion_1_complement_duality():
    t0 = time.perf_counter()
    pairs = 0
    for n in range(0, 7):
        balanced = [m for m in range(1 << n) if m.bit_count() * 2 == n]
        if not balanced:
            continue
        for g in bc.all_labeled_graphs(n):
            comp = bc.complement(g)
            for mask in balanced:
                c = Coloring(n, mask)
                nb_ok = bc.verify_nb(g, c)
                cnb_ok = bc.verify_cnb(comp, c)
                assert nb_ok == cnb_ok, (n, list(g.edges()), mask)
                pairs += 1
                if nb_ok:
                    _audit(g, c, "nb")
                    _audit(comp, c, "cnb")
    assert pairs == sum(
        (1 << (n * (n - 1) // 2)) * len([m for m in range(1 << n) if m.bit_count() * 2 == n])
        for n in range(0, 7)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, "criterion 1 must finish inside five minutes"


# ---------------------------------------------------------------------------
# Criterion 2: tree characterization
# ---------------------------------------------------------------------------


def _red_at_0(c):
    """The replayed coloring, swapped if need be so that vertex 0 is red as
    in solve's witness: a closed-balanced tree has one coloring up to swap,
    so the peel and solve's forcing pass must meet on it."""
    return c if c.is_red(0) else c.flip()


@criterion(2, "tree characterization")
def test_criterion_2_tree_characterization():
    t0 = time.perf_counter()
    accepted_by_order = Counter()
    degseqs_at_6 = set()
    for n in range(1, 10):
        for t in bc.labeled_trees(n):
            script = bc.decompose_cnbc_tree(t)
            out = bc.solve(t, "cnb")
            assert (script is not None) == (out.status == "sat"), (n, list(t.edges()))
            if script is not None:
                accepted_by_order[n] += 1
                if n == 6:
                    degseqs_at_6.add(tuple(sorted(t.degrees())))
                g2, c2 = bc.replay(script)
                assert g2 == t
                _audit(t, c2, "cnb")
                assert out.witness == _red_at_0(c2)
    # exactly one accepted shape at order six: four leaves on two adjacent
    # degree-3 centers, with 6!/|Aut| = 90 labelings
    assert accepted_by_order[6] == 90
    assert degseqs_at_6 == {(1, 1, 1, 1, 3, 3)}
    assert accepted_by_order[2] == 1
    for n in (1, 3, 4, 5, 7, 8, 9):
        assert accepted_by_order[n] == 0
    rng = random.Random(20260810)
    for n in (10, 14, 18):
        for _ in range(10_000):
            t = bc.random_labeled_tree(n, rng)
            script = bc.decompose_cnbc_tree(t)
            out = bc.solve(t, "cnb")
            assert (script is not None) == (out.status == "sat")
            if script is not None:
                g2, c2 = bc.replay(script)
                assert g2 == t
                _audit(t, c2, "cnb")
                assert out.witness == _red_at_0(c2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, "criterion 2 must finish inside ten minutes"


# ---------------------------------------------------------------------------
# Criteria 3-5: circulant and generalized Petersen characterizations
# ---------------------------------------------------------------------------


@criterion(3, "cubic circulants")
def test_criterion_3_cubic_circulants(cubic_cases):
    t0 = time.perf_counter()
    for n, d, g, verdict, outcome in cubic_cases:
        assert verdict.value in ("yes", "no"), (n, d)
        assert (verdict.value == "yes") == (outcome.status == "sat"), (n, d)
        if verdict.witness is not None:
            assert bc.verify_cnb(g, verdict.witness)
            _audit(g, verdict.witness, "cnb")
        if outcome.witness is not None:
            _audit(g, outcome.witness, "cnb")
    assert len(cubic_cases) == sum(n // 2 - 1 for n in range(4, 25, 2))
    assert time.perf_counter() - t0 < 300


@criterion(4, "quintic circulants at order 2 mod 4")
def test_criterion_4_quintic_circulants(quintic_cases):
    t0 = time.perf_counter()
    for n, d1, d2, g, outcome in quintic_cases:
        parity_yes = (d1 % 2) != (d2 % 2)
        assert (outcome.status == "sat") == parity_yes, (n, d1, d2)
        verdict = bc.characterize_quintic_circulant(n, d1, d2)
        assert (verdict.value == "yes") == parity_yes
        if verdict.witness is not None:
            assert bc.verify_cnb(g, verdict.witness)
            _audit(g, verdict.witness, "cnb")
        if outcome.witness is not None:
            _audit(g, outcome.witness, "cnb")
    assert time.perf_counter() - t0 < 600


@criterion(5, "generalized Petersen graphs")
def test_criterion_5_generalized_petersen(gp_cases):
    t0 = time.perf_counter()
    for n, d, g, verdict, outcome in gp_cases:
        assert (verdict.value == "yes") == (outcome.status == "sat"), (n, d)
        if verdict.value == "yes":
            col = bc.color_gp(n, d)
            assert bc.verify_cnb(g, col)
            _audit(g, col, "cnb")
        if outcome.witness is not None:
            _audit(g, outcome.witness, "cnb")
    assert time.perf_counter() - t0 < 900


# ---------------------------------------------------------------------------
# Criterion 6: regular-graph edge counts, zero tolerance
# ---------------------------------------------------------------------------


@criterion(6, "regular-graph edge counts")
def test_criterion_6_regular_counts(cubic_cases, quintic_cases, gp_cases):
    t0 = time.perf_counter()
    checked = 0

    def check_cnb(g, c, r):
        rep = bc.report(g, c)
        assert rep.red_count == rep.blue_count == g.n // 2
        assert 4 * rep.rb == (r + 1) * g.n
        assert 8 * rep.rr == (r - 1) * g.n
        assert 8 * rep.bb == (r - 1) * g.n

    for n, d, g, verdict, outcome in cubic_cases:
        for c in (verdict.witness, outcome.witness):
            if c is not None:
                check_cnb(g, c, 3)
                checked += 1
    for n, d1, d2, g, outcome in quintic_cases:
        if outcome.witness is not None:
            check_cnb(g, outcome.witness, 5)
            checked += 1
    for n, d, g, verdict, outcome in gp_cases:
        if outcome.witness is not None:
            check_cnb(g, outcome.witness, 3)
            checked += 1

    def check_nb(g, c, r):
        rep = bc.report(g, c)
        assert rep.red_count == rep.blue_count == g.n // 2
        assert 4 * rep.rb == r * g.n
        assert 8 * rep.rr == r * g.n
        assert 8 * rep.bb == r * g.n

    for n in (4, 8, 12, 16):
        g = bc.cycle(n)
        out = bc.solve(g, "nb")
        assert out.status == "sat"
        check_nb(g, out.witness, 2)
        checked += 1
    for dim in (2, 4, 6, 8, 10):
        g, c = bc.color_hypercube(dim)
        check_nb(g, c, dim)
        checked += 1
    for n, lengths in ((12, (2, 3, 4)), (14, (2, 3, 4, 5)), (16, (1, 3, 5, 7))):
        spec = bc.CirculantSpec(n, lengths)
        col = bc.color_circulant(spec, "nb")
        assert col is not None
        check_nb(spec.build(), col, spec.degree)
        checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# Criterion 7: counting theorems on every valid coloring in sight
# ---------------------------------------------------------------------------


@criterion(7, "counting theorems")
def test_criterion_7_counting_theorems():
    t0 = time.perf_counter()
    # criteria 1-5 audit their colorings as they go (zero tolerance enforced
    # by strict identity checks); this sweep adds every coloring of every
    # graph of order at most five, valid or not, filtering to the valid ones
    audited = 0
    for n in range(0, 6):
        for g in bc.all_labeled_graphs(n):
            for mask in range(1 << n):
                c = Coloring(n, mask)
                if bc.verify_cnb(g, c):
                    bc.check_identities(g, c, "cnb", strict=True)
                    audited += 1
                if bc.verify_nb(g, c):
                    bc.check_identities(g, c, "nb", strict=True)
                    audited += 1
    # order six, closed mode only (the mod-4 and parity theorems live there)
    for g in bc.all_labeled_graphs(6):
        for c in bc.enumerate_colorings(g, "cnb").colorings:
            bc.check_identities(g, c, "cnb", strict=True)
            audited += 1
    assert audited > 500
    assert _AUDITS["cnb"] + _AUDITS["nb"] > 0, "criteria 1-5 fed the shared audit"


# ---------------------------------------------------------------------------
# Criterion 8: product colorings
# ---------------------------------------------------------------------------


@criterion(8, "product colorings")
def test_criterion_8_products():
    t0 = time.perf_counter()
    verified = 0
    k2, rb = bc.complete(2), Coloring.from_text("RB")

    # prisms over cycles of length 0 mod 4 via the cartesian rule
    for n in (4, 8, 12):
        ch = bc.solve(bc.cycle(n), "nb").witness
        col = bc.color_cartesian(k2, rb, bc.cycle(n), ch)
        assert bc.verify_cnb(bc.prism(n), col)
        _audit(bc.prism(n), col, "cnb")
        verified += 1

    # assorted cartesian pairs (closed-balanced x open-balanced)
    k4col = Coloring.from_text("RBRB")
    c8nb = Coloring.from_text("RRBBRRBB")
    pairs = [
        (bc.complete(4), k4col, bc.cycle(8), c8nb),
        (bc.complete(4), k4col, bc.cycle(4), Coloring.from_text("RRBB")),
        (bc.gen_petersen(8, 3), bc.color_gp(8, 3), bc.cycle(4), Coloring.from_text("RRBB")),
        (bc.complete(2), rb, bc.empty_graph(3), Coloring.from_text("BBB")),
        (bc.complete(6), Coloring.from_text("RRRBBB"), bc.hypercube(2), bc.color_hypercube(2)[1]),
    ]
    for g, cg, h, ch in pairs:
        col = bc.color_cartesian(g, cg, h, ch)
        assert bc.verify_cnb(bc.cartesian(g, h), col)
        _audit(bc.cartesian(g, h), col, "cnb")
        verified += 1

    # hypercube tower, with the stated speed bound on the top floor
    for dim in range(1, 10):
        g, col = bc.color_hypercube(dim)
        assert bc.verify(g, col, "cnb" if dim % 2 else "nb")
        verified += 1
    t_q10 = time.perf_counter()
    g10, c10 = bc.color_hypercube(10)
    assert bc.verify_nb(g10, c10)
    assert g10.n == 1024
    q10_elapsed = time.perf_counter() - t_q10
    assert q10_elapsed < 1.0, f"Q10 verification took {q10_elapsed:.2f}s"
    _audit(g10, c10, "nb")
    verified += 1

    # layers over an arbitrary second factor: every graph on at most five
    # vertices rides along via the strong product
    for n in range(0, 6):
        for h in bc.all_labeled_graphs(n):
            col = bc.color_strong(k2, rb, h)
            assert bc.verify_cnb(bc.strong(k2, h), col)
            verified += 1

    # joins and lexicographic products
    c4nb = Coloring.from_text("RRBB")
    join_cases = [
        (bc.complete(2), rb, bc.complete(2), rb, "cnb"),
        (bc.complete(4), k4col, bc.complete(2), rb, "cnb"),
        (bc.cycle(4), c4nb, bc.cycle(4), c4nb, "nb"),
        (bc.cycle(8), c8nb, bc.cycle(4), c4nb, "nb"),
        (bc.complete(4), k4col, bc.complete(4), k4col, "cnb"),
    ]
    for g, cg, h, ch, mode in join_cases:
        col = bc.color_join(g, cg, h, ch, mode)
        assert bc.verify(bc.join(g, h), col, mode)
        _audit(bc.join(g, h), col, mode)
        verified += 1
    lex_cases = [
        (bc.path(3), bc.complete(2), rb),
        (bc.cycle(5), bc.complete(2), rb),
        (bc.complete(4), bc.complete(4), k4col),
        (bc.star(3), bc.complete(2), rb),
    ]
    for g, h, ch in lex_cases:
        col = bc.color_lexicographic(g, h, ch)
        assert bc.verify_cnb(bc.lexicographic(g, h), col)
        verified += 1

    # duplicated layers: closed balance downgrades to open across a rung
    for g, cg in [
        (bc.complete(2), rb),
        (bc.complete(4), k4col),
        (bc.gen_petersen(8, 3), bc.color_gp(8, 3)),
        (bc.Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5)]),
         Coloring.from_text("BRBRRR")),
    ]:
        col = bc.color_box_k2(g, cg)
        assert bc.verify_nb(bc.cartesian(g, bc.complete(2)), col)
        _audit(bc.cartesian(g, bc.complete(2)), col, "nb")
        verified += 1

    assert verified >= 20


# ---------------------------------------------------------------------------
# Criterion 9: negative and positive anchors, each within a second
# ---------------------------------------------------------------------------


@criterion(9, "anchor instances")
def test_criterion_9_anchors():
    t0 = time.perf_counter()
    anchors = [
        (bc.star(4), "cnb", "unsat"),
        (bc.star(4), "nb", "unsat"),
        (bc.wheel(5), "cnb", "unsat"),
        (bc.cartesian(bc.complete(4), bc.complete(4)), "nb", "unsat"),
        (bc.gen_petersen(10, 2), "cnb", "unsat"),
        (bc.path(6), "cnb", "unsat"),
        (bc.wheel(3), "cnb", "sat"),
        (bc.complete(2), "cnb", "sat"),
        (bc.complete(4), "cnb", "sat"),
        (bc.complete(6), "cnb", "sat"),
        (bc.complete(8), "cnb", "sat"),
        (bc.cycle(8), "nb", "sat"),
        (bc.Graph.from_edges(
            7, [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 2), (6, 1), (6, 3)]
        ), "nb", "sat"),
    ]
    for g, mode, expect in anchors:
        out = bc.solve(g, mode)
        assert out.status == expect, (mode, expect, out.status)
        assert out.stats.millis < 1000.0
        if out.witness is not None:
            _audit(g, out.witness, mode)


# ---------------------------------------------------------------------------
# Criterion 10: prism enumeration completeness
# ---------------------------------------------------------------------------


@criterion(10, "prism enumeration completeness")
def test_criterion_10_prism_completeness():
    t0 = time.perf_counter()
    for n in (4, 6, 8, 12):
        enum = bc.enumerate_colorings(bc.prism(n), "cnb")
        assert not enum.capped
        got = {c.to_text() for c in enum.colorings}
        constructed = {c.to_text() for c in bc.prism_colorings(n)}
        assert got == constructed, f"prism over C_{n}"
        expected_count = 6 if n % 4 == 0 else 2
        assert len(got) == expected_count
        for c in enum.colorings:
            _audit(bc.prism(n), c, "cnb")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300


# ---------------------------------------------------------------------------
# Criterion 11: graph6 codec
# ---------------------------------------------------------------------------


@criterion(11, "graph6 codec")
def test_criterion_11_graph6_codec():
    t0 = time.perf_counter()
    rng = random.Random(608)
    for _ in range(10_000):
        n = rng.randrange(0, 63)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        g = bc.Graph(n, tuple(rows))
        enc = g6.encode(g)
        assert g6.decode(enc) == g
    # fixed vectors against the published format via a reference codec
    fixtures = [
        bc.empty_graph(0), bc.complete(2), bc.complete(4), bc.cycle(5),
        bc.path(6), bc.star(4), bc.gen_petersen(5, 2), bc.circulant(12, (1, 5, 6)),
        bc.hypercube(4), bc.empty_graph(63),
    ]
    for g in fixtures:
        G = nx.empty_graph(g.n)
        G.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert g6.encode(g) == ref
        assert g6.decode(ref) == g
    assert g6.decode("D?{") == bc.Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert g6.encode(g6.decode("D?{")) == "D?{"
