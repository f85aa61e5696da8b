"""Exact search: soundness, completeness against brute force, determinism,
enumeration order, budgets, and the census stream."""

import ast
import dataclasses
import functools
import itertools
import math
import pathlib
import pickle
import random
import tracemalloc

import pytest

import balanced_coloring as bc
from balanced_coloring import Budget, Coloring, solver
from balanced_coloring.coloring import _certificates, leaf_overload

from conftest import H7_COLORING, RefSearch, brute_force_masks, leafy_graphs, random_graph


class TestAnchors:
    def test_unsat_anchors(self):
        assert bc.solve(bc.star(4), "cnb").status == "unsat"
        assert bc.solve(bc.star(4), "nb").status == "unsat"
        assert bc.solve(bc.wheel(5), "cnb").status == "unsat"
        assert bc.solve(bc.path(6), "cnb").status == "unsat"
        assert bc.solve(bc.gen_petersen(10, 2), "cnb").status == "unsat"
        k4k4 = bc.cartesian(bc.complete(4), bc.complete(4))
        assert bc.solve(k4k4, "nb").status == "unsat"

    def test_sat_anchors(self, h7):
        assert bc.solve(bc.wheel(3), "cnb").status == "sat"
        for k in (1, 2, 3, 4):
            assert bc.solve(bc.complete(2 * k), "cnb").status == "sat"
        assert bc.solve(bc.cycle(8), "nb").status == "sat"
        out = bc.solve(h7, "nb")
        assert out.status == "sat"
        assert bc.verify_nb(h7, Coloring.from_text(H7_COLORING))

    def test_c8_nb_iff_mod4(self):
        for n in range(3, 13):
            want = "sat" if n % 4 == 0 else "unsat"
            assert bc.solve(bc.cycle(n), "nb").status == want

    def test_empty_and_tiny(self):
        assert bc.solve(bc.empty_graph(0), "cnb").status == "sat"
        assert bc.solve(bc.empty_graph(0), "cnb").witness.to_text() == ""
        assert bc.solve(bc.complete(1), "cnb").status == "unsat"
        assert bc.solve(bc.complete(1), "nb").status == "sat"


class TestCompleteness:
    def test_exhaustive_brute_force_small_random(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randrange(0, 9)
            g = random_graph(rng, n, rng.random())
            expect = brute_force_masks(g, "cnb")
            out = bc.solve(g, "cnb")
            assert (out.status == "sat") == bool(expect)
            if out.status == "sat":
                assert out.witness.bits in expect
            expect_nb = brute_force_masks(g, "nb")
            out_nb = bc.solve(g, "nb")
            assert (out_nb.status == "sat") == bool(expect_nb)

    def test_brute_force_mid_sizes(self):
        rng = random.Random(32)
        samples = [random_graph(rng, n, 0.4) for n in (10, 11, 12)]
        samples += [random_graph(rng, n, 0.3) for n in (13, 14, 15, 16)]
        samples += [bc.prism(6), bc.gen_petersen(7, 2), bc.circulant(12, (2, 3))]
        for g in samples:
            for mode in ("cnb", "nb"):
                expect = bool(brute_force_masks(g, mode))
                assert (bc.solve(g, mode).status == "sat") == expect

    def test_symmetry_reduction_is_sound(self):
        # compare against enumeration, which never breaks symmetry
        rng = random.Random(33)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 9), rng.random())
            for mode in ("cnb", "nb"):
                has = bool(bc.enumerate_colorings(g, mode).colorings)
                assert (bc.solve(g, mode).status == "sat") == has


class TestDeterminism:
    def test_repeated_runs_identical(self):
        g = bc.gen_petersen(8, 3)
        first = bc.solve(g, "cnb").witness.to_text()
        for _ in range(3):
            assert bc.solve(g, "cnb").witness.to_text() == first

    @pytest.mark.parametrize("g, mode, budget, expect", [
        (bc.gen_petersen(12, 5), "cnb", None,
         ("sat", "RRBBRRBBRRBBBBRRBBRRBBRR", 3, 32)),
        (bc.circulant(24, (1, 3, 5, 7, 9, 12)), "cnb", Budget(max_nodes=50),
         ("timeout", None, 51, 218)),
        (bc.cycle(12), "nb", None, ("sat", "RRBBRRBBRRBB", 1, 11)),
        (bc.prism(16), "cnb", None,
         ("sat", "RRBBRRBBRRBBRRBBBBRRBBRRBBRRBBRR", 1, 31)),
    ])
    def test_search_order_is_pinned(self, g, mode, budget, expect):
        # census output (witness, nodes, propagations) must repeat across
        # versions, so the search order is part of the contract
        out = bc.solve(g, mode, budget)
        text = out.witness.to_text() if out.witness else None
        assert (out.status, text, out.stats.nodes, out.stats.propagations) == expect


class TestEnumeration:
    def test_output_check_rejects_an_unbalanced_coloring(self, monkeypatch):
        # the rows are built once per enumeration, and every coloring is
        # still checked against every one of them
        real = solver._colorings

        def one_bad(*args):
            yield from real(*args)
            yield 0b0101  # C4 in nb: vertex 1 sees two red neighbors

        monkeypatch.setattr(solver, "_colorings", one_bad)
        with pytest.raises(RuntimeError, match="enumerated coloring failed nb verification"):
            bc.enumerate_colorings(bc.cycle(4), "nb")

    def test_output_check_rejects_a_bit_past_the_last_vertex(self, monkeypatch):
        # no balance row reaches bit 4, so only the range check can catch it
        real = solver._colorings

        def out_of_range(*args):
            yield from real(*args)
            yield 0b10011  # C4 in nb: 0b0011 is balanced

        monkeypatch.setattr(solver, "_colorings", out_of_range)
        with pytest.raises(RuntimeError, match="bits beyond the last vertex"):
            bc.enumerate_colorings(bc.cycle(4), "nb")

    @pytest.mark.parametrize("g, mode", [(bc.complete_bipartite(6, 6), "nb"),
                                         (bc.hypercube(4), "nb"), (bc.hypercube(5), "cnb")],
                             ids=["K6,6-nb", "Q4-nb", "Q5-cnb"])
    def test_colorings_equal_checked_ones(self, g, mode):
        out = bc.enumerate_colorings(g, mode).colorings
        checked = tuple(Coloring(g.n, c.bits) for c in out)
        assert out and out == checked
        assert [hash(c) for c in out] == [hash(c) for c in checked]

    def test_k2(self):
        out = bc.enumerate_colorings(bc.complete(2), "cnb")
        assert [c.to_text() for c in out.colorings] == ["BR", "RB"]
        assert not out.capped

    def test_h6_two_colorings(self, h6):
        out = bc.enumerate_colorings(h6, "cnb")
        texts = [c.to_text() for c in out.colorings]
        assert texts == ["BRBRRR", "RBRBBB"]
        for c in out.colorings:
            assert {c.red_count, c.blue_count} == {2, 4}

    def test_matches_brute_force_and_lex_order(self):
        rng = random.Random(41)
        for _ in range(80):
            g = random_graph(rng, rng.randrange(0, 8), rng.random())
            for mode in ("cnb", "nb"):
                expect = brute_force_masks(g, mode)
                got = bc.enumerate_colorings(g, mode).colorings
                assert sorted(c.bits for c in got) == sorted(expect)
                texts = [c.to_text() for c in got]
                assert texts == sorted(texts)

    def test_swap_pairing_even_counts(self):
        rng = random.Random(42)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 8), rng.random())
            out = bc.enumerate_colorings(g, "cnb")
            assert len(out.colorings) % 2 == 0
            masks = {c.bits for c in out.colorings}
            full = (1 << g.n) - 1
            assert all((m ^ full) in masks for m in masks)

    def test_lex_order_survives_twin_class_merging(self):
        # twin-heavy instances drive the forced-class machinery hard; the
        # output must still be the lexicographic brute-force list
        cases = [
            (bc.empty_graph(4), "nb"),
            (bc.complete_bipartite(2, 2), "cnb"),
            (bc.complete_bipartite(2, 4), "nb"),
            (bc.complete(4), "cnb"),
            (bc.disjoint_union(bc.complete(2), bc.complete(2)), "cnb"),
        ]
        for g, mode in cases:
            got = [c.to_text() for c in bc.enumerate_colorings(g, mode).colorings]
            expect = sorted(
                Coloring(g.n, m).to_text() for m in brute_force_masks(g, mode)
            )
            assert got == expect, (list(g.edges()), mode)

    def test_cap_gives_lexicographic_prefix(self):
        g = bc.prism(8)
        full = [c.to_text() for c in bc.enumerate_colorings(g, "cnb").colorings]
        capped = bc.enumerate_colorings(g, "cnb", cap=3)
        assert capped.capped
        assert [c.to_text() for c in capped.colorings] == full[:3]

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            bc.enumerate_colorings(bc.complete(2), "cnb", cap=0)

    def test_stats_count_decisions(self):
        out = bc.enumerate_colorings(bc.prism(8), "cnb")
        assert out.stats.nodes > 0

    def test_budget_gives_verified_prefix(self, monkeypatch):
        g = bc.hypercube(4)
        full = [c.to_text() for c in bc.enumerate_colorings(g, "nb").colorings]
        monkeypatch.setattr(solver, "DEFAULT_MAX_NODES", 10)
        out = bc.enumerate_colorings(g, "nb")
        texts = [c.to_text() for c in out.colorings]
        assert out.capped
        assert 0 < len(texts) < len(full) and texts == full[: len(texts)]
        assert all(bc.verify(g, c, "nb") for c in out.colorings)

    def test_prism_counts(self):
        assert len(bc.enumerate_colorings(bc.prism(6), "cnb").colorings) == 2
        # frozen by the 2^12 brute force below
        assert len(brute_force_masks(bc.prism(6), "cnb")) == 2


def _plain_dfs(search, full):
    """Every full assignment below the search's state: the lowest
    unassigned vertex, blue before red, each branch searched in full."""
    if search.assigned == full:
        yield search.red
        return
    un = full & ~search.assigned
    v = (un & -un).bit_length() - 1
    for col in (0, 1):
        mark = len(search.trail)
        if search._request([(v, col)]):
            yield from _plain_dfs(search, full)
        search._unwind(mark)


def plain_enumeration(g, mode):
    """The texts enumerate_colorings gives with no cap, by the certificates
    and a plain depth-first search over solver._Search, with no memo."""
    if next(_certificates(g, mode), None) is not None:
        return []
    masks = _plain_dfs(solver._Search(g, mode), (1 << g.n) - 1)
    return [Coloring(g.n, m).to_text() for m in masks]


class TestMemoizedEnumeration:
    """enumerate_colorings replays a state it has searched before instead of
    searching it again; texts and ``capped`` must be the plain search's."""

    @staticmethod
    def _check(cases):
        for g, mode in cases:
            full = plain_enumeration(g, mode)
            for cap in (1, 7, None):
                out = bc.enumerate_colorings(g, mode, cap)
                got = ([c.to_text() for c in out.colorings], out.capped)
                want = (full[:cap], cap is not None and len(full) >= cap)
                assert got == want, (g.n, list(g.edges()), mode, cap)

    def test_labeled_graphs_against_plain_search(self):
        self._check([(g, mode) for n in range(7) for g in bc.all_labeled_graphs(n)
                     for mode in ("cnb", "nb")])

    def test_families_against_plain_search(self):
        cases = [(bc.complete_bipartite(m, n), mode) for m in range(1, 7)
                 for n in range(1, 7) for mode in ("cnb", "nb")]
        cases += [(bc.hypercube(4), "nb"), (bc.hypercube(5), "cnb")]
        for n in range(3, 17):
            for k in range(1, n // 2 + 1):
                for lengths in itertools.combinations(range(1, n // 2 + 1), k):
                    cases += [(bc.circulant(n, lengths), mode) for mode in ("cnb", "nb")]
        self._check(cases)

    def test_k10_10_nb_in_few_nodes(self):
        # the plain search makes 63,503 decisions here, one per coloring
        # but the last; nearly every state it meets has been met before
        out = bc.enumerate_colorings(bc.complete_bipartite(10, 10), "nb")
        assert (len(out.colorings), out.capped) == (63504, False)
        assert out.stats.nodes <= 100

    def test_deadline_covers_replay(self, monkeypatch):
        # with 50 decisions the search never reaches a deadline check of
        # its own, so only the replay can stop it
        g = bc.complete_bipartite(10, 10)
        with monkeypatch.context() as m:
            m.setattr(solver, "DEFAULT_MAX_MILLIS", 0.0)
            out = bc.enumerate_colorings(g, "nb")
        texts = [c.to_text() for c in out.colorings]
        assert out.capped and 0 < len(texts) < 63504
        prefix = bc.enumerate_colorings(g, "nb", cap=len(texts))
        assert texts == [c.to_text() for c in prefix.colorings]
        assert all(bc.verify(g, c, "nb") for c in out.colorings)

    def test_dead_states_are_not_stored(self):
        # a seeded 11-regular graph of order 40 with no cnb coloring that
        # the certificates let through: no state has a completion
        g = _random_regular(40, 11, random.Random(4))
        assert next(_certificates(g, "cnb"), None) is None
        search = solver._Search(g, "cnb")
        memo = {}
        assert list(solver._colorings(search, math.inf, math.inf, memo)) == []
        assert search.decisions >= 10_000
        assert memo == {}


class TestBudgets:
    def test_node_budget_times_out(self):
        g = bc.circulant(24, (1, 3, 5, 7, 9, 12))
        out = bc.solve(g, "cnb", Budget(max_nodes=1, max_millis=60_000))
        assert out.status in ("timeout", "sat", "unsat")
        # only accept timeout if it genuinely could not finish in one node
        if out.status == "timeout":
            assert out.witness is None

    def test_wall_clock_budget(self):
        g = bc.circulant(30, (1, 2, 4, 7, 11, 15))
        out = bc.solve(g, "nb", Budget(max_nodes=10 ** 12, max_millis=0.0))
        assert out.status in ("timeout", "unsat", "sat")

    def test_budget_statuses_never_lie(self):
        # a hard-looking but solvable instance must not claim unsat on timeout
        g = bc.gen_petersen(12, 3)
        out = bc.solve(g, "cnb", Budget(max_nodes=2, max_millis=60_000))
        assert out.status in ("sat", "timeout")


def _union_of_copies(h, k):
    edges = [(u + i * h.n, v + i * h.n) for i in range(k) for u, v in h.edges()]
    return bc.Graph.from_edges(h.n * k, edges)


class TestDeepInputs:
    # one decision per component: far deeper than the interpreter's
    # recursion limit, so these need the explicit search stack

    @pytest.mark.parametrize("part, mode", [(bc.complete(2), "cnb"), (bc.cycle(4), "nb")])
    def test_many_components_solve(self, part, mode):
        g = _union_of_copies(part, 1200)
        out = bc.solve(g, mode)
        assert out.status == "sat"
        assert bc.verify(g, out.witness, mode)

    def test_enumeration_prefix(self):
        g = _union_of_copies(bc.complete(2), 1200)
        out = bc.enumerate_colorings(g, "cnb", cap=3)
        assert out.capped
        texts = [c.to_text() for c in out.colorings]
        assert len(texts) == 3 and texts == sorted(texts)
        assert all(bc.verify(g, c, "cnb") for c in out.colorings)

    @pytest.mark.parametrize("part, copies, mode", [
        (bc.cycle(4), 2500, "nb"), (bc.complete(2), 5000, "cnb"),
    ])
    def test_ten_thousand_vertices_in_seconds(self, part, copies, mode):
        # the counter-list search rescanned every vertex per pick and
        # needed 15-19 s here, with these same counts
        g = _union_of_copies(part, copies)
        out = bc.solve(g, mode, Budget(max_millis=5_000))
        assert (out.status, out.stats.nodes, out.stats.propagations) == ("sat", 4999, 5001)
        assert bc.verify(g, out.witness, mode)

    def test_search_memory_stays_small(self):
        # the trail undoes assignments one by one; state copied at every
        # decision would grow as order times depth
        g = _union_of_copies(bc.cycle(4), 1200)
        tracemalloc.start()
        try:
            assert bc.solve(g, "nb").status == "sat"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20


def _fit_parities(g, mode, rng):
    """g with a random matching of its wrong-parity vertices toggled, so
    that the prefilter's degree test passes (cnb needs an even order too)."""
    odd = mode == "cnb"
    bad = [v for v in range(g.n) if g.adj[v].bit_count() % 2 != odd]
    rng.shuffle(bad)
    rows = list(g.adj)
    for u, v in zip(bad[::2], bad[1::2]):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return bc.Graph(g.n, tuple(rows))


def _random_regular(n, d, rng):
    """A d-regular circulant scrambled by degree-preserving double-edge
    swaps (n * d even, d < n)."""
    lengths = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in lengths})
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, e) = edges[i], edges[j]
        ae, cb = tuple(sorted((a, e))), tuple(sorted((c, b)))
        if len({a, b, c, e}) < 4 or ae in present or cb in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {ae, cb}
        edges[i], edges[j] = ae, cb
    return bc.Graph.from_edges(n, edges)


def _solve_records(cases):
    """solve's as_dict for each (graph, mode, budget), without the time."""
    out = []
    for g, mode, budget in cases:
        rec = bc.solve(g, mode, budget).as_dict()
        del rec["millis"]
        out.append(rec)
    return out


def _regular_instance(i, rng):
    """The i-th of a seeded mix of regular graphs of order 24-40 and their
    mode (cnb for even i): for i % 4 < 2 one random regular graph, else one
    random regular block beside complete (cnb) or complete bipartite (nb)
    blocks of the same degree, whose kernel is large."""
    mode = ("cnb", "nb")[i % 2]
    d = rng.choice((5, 7, 9, 11) if mode == "cnb" else (6, 8, 10))
    if i % 4 < 2:
        return _random_regular(rng.choice((24, 28, 32, 36, 40)), d, rng), mode
    block = bc.complete(d + 1) if mode == "cnb" else bc.complete_bipartite(d, d)
    r = rng.choice([r for r in range(d + 1, d + 8) if r * d % 2 == 0])
    k = rng.randint(max(1, -(-(24 - r) // block.n)), (40 - r) // block.n)
    parts = [block] * k + [_random_regular(r, d, rng)]
    rng.shuffle(parts)
    return functools.reduce(bc.disjoint_union, parts), mode


class TestAgainstReferenceSearch:
    """The bit-sliced search core against the counter-list core it replaced
    (conftest.RefSearch): the same verdicts, witnesses, reasons, counters
    and enumeration order, case by case."""

    @staticmethod
    def _enumerations(cases):
        out = []
        for g, mode in cases:
            e = bc.enumerate_colorings(g, mode, cap=50)
            texts = [c.to_text() for c in e.colorings]
            out.append((texts, e.capped, e.stats.nodes, e.stats.propagations))
        return out

    @staticmethod
    def _compare(monkeypatch, run, cases):
        got = run(cases)
        with monkeypatch.context() as m:
            m.setattr(solver, "_Search", RefSearch)
            want = run(cases)
        for case, a, b in zip(cases, got, want):
            assert a == b, (case[0].n, list(case[0].edges()), case[1:])
        return got

    def test_labeled_graphs_solve(self, monkeypatch):
        cases = [(g, mode, None) for n in range(7) for g in bc.all_labeled_graphs(n)
                 for mode in ("cnb", "nb")]
        self._compare(monkeypatch, _solve_records, cases)

    def test_labeled_graphs_enumerate(self, monkeypatch):
        cases = [(g, mode) for n in range(6) for g in bc.all_labeled_graphs(n)
                 for mode in ("cnb", "nb")]
        self._compare(monkeypatch, self._enumerations, cases)

    def test_random_graphs_at_three_budgets(self, monkeypatch):
        rng = random.Random(91)
        cases = []
        for i in range(300):
            g = random_graph(rng, rng.randint(7, 40), rng.choice((0.15, 0.3, 0.5)))
            for mode in ("cnb", "nb"):
                h = _fit_parities(g, mode, rng) if i % 4 else g
                cases += [(h, mode, Budget(max_nodes=k)) for k in (10, 150, 1_000)]
        recs = self._compare(monkeypatch, _solve_records, cases)
        assert {r["status"] for r in recs} == {"sat", "unsat", "timeout"}

    def test_regular_graphs_through_the_linear_stage(self, monkeypatch):
        # 150 nodes: past the search allowance, so the search pauses for the
        # linear stage. Half the graphs are one random regular block beside
        # complete (cnb) or complete bipartite (nb) blocks of the same
        # degree, whose kernel is too large to search: there the search
        # resumes after the pause.
        rng = random.Random(92)
        cases = [(*_regular_instance(i, rng), Budget(max_nodes=150)) for i in range(40)]
        recs = self._compare(monkeypatch, _solve_records, cases)
        nullities = [r["nullity"] for r in recs if r["nullity"] is not None]
        assert min(nullities) <= 20 < max(nullities)


class TestClassesFromLeafForce:
    """_Search takes its classes from leaf_force's pairs; RefSearch keeps the
    twin-group walk and leaf join that it replaced. Each vertex must see the
    same class: the same members, in the same order, with the same
    parities relative to it."""

    @staticmethod
    def _classes(search):
        return [[(w, pw ^ search.par_of[v]) for w, pw in search.class_members[search.class_of[v]]]
                for v in range(search.n)]

    @pytest.mark.parametrize("mode", ["cnb", "nb"])
    def test_against_reference(self, mode):
        graphs = [g for n in range(7) for g in bc.all_labeled_graphs(n)]
        graphs += leafy_graphs(2802, 500)
        joined = 0
        for g in graphs:
            got = self._classes(solver._Search(g, mode))
            assert got == self._classes(RefSearch(g, mode)), (g.n, list(g.edges()), mode)
            joined += any(p for cls in got for _w, p in cls)
        # cnb joins leaves to their neighbors with the opposite color; nb never
        assert (joined > 1000) == (mode == "cnb")


class TestRankPause:
    """The schedule that decides nullity at most 1 at _RANK_PAUSE against
    the one that waits for _SEARCH_ALLOWANCE (the early pause moved onto
    the late one): the same statuses and witnesses, and a reason changes
    only from ``search`` to ``rank`` or ``kernel`` at nullity at most 1."""

    @staticmethod
    def _both(monkeypatch, cases):
        new = _solve_records(cases)
        with monkeypatch.context() as m:
            m.setattr(solver, "_RANK_PAUSE", solver._SEARCH_ALLOWANCE)
            old = _solve_records(cases)
        changed = 0
        for case, a, b in zip(cases, old, new):
            where = (case[0].n, list(case[0].edges()), case[1:])
            assert (a["status"], a["witness"]) == (b["status"], b["witness"]), where
            if a["reason"] != b["reason"]:
                assert a["reason"] == "search", where
                assert b["reason"] in ("rank", "kernel") and b["nullity"] <= 1, where
                changed += 1
        return new, changed

    def test_labeled_graphs(self, monkeypatch):
        cases = [(g, mode, None) for n in range(7) for g in bc.all_labeled_graphs(n)
                 for mode in ("cnb", "nb")]
        self._both(monkeypatch, cases)

    def test_random_regular_graphs_at_four_budgets(self, monkeypatch):
        rng = random.Random(93)
        cases = [(g, mode, Budget(max_nodes=k)) for i in range(40)
                 for g, mode in [_regular_instance(i, rng)] for k in (65, 100, 150, 1_000)]
        recs, changed = self._both(monkeypatch, cases)
        assert changed > 0
        # some graphs answer at the first pause, others resume past it
        assert {r["nodes"] for r in recs if r["reason"] in ("rank", "kernel")} >= {16, 64}

    # a planted 36-vertex 7-regular cnb graph: random regular red and blue
    # blocks joined by a random regular bipartite graph, relabeled
    PLANTED_36 = (
        "cI_aK?GCGW??_O_GaC??qGOEA??G@?AJ?@_CAaC_OOLQ@WCGD?CD@I?w?@b?XC?G?l?GCsOM?B?C?"
        "EB?Ya?@H?`_G?d_?c_a@EP??Obo?O"
    )

    def test_nullity_one_answers_at_the_rank_pause(self, monkeypatch):
        g = bc.decode(self.PLANTED_36)
        witness = "RBRBBRBBBRRBBBRRBRBRBBBRRBRRRBRBRBRR"
        out = bc.solve(g, "cnb")
        s = out.stats
        assert (out.status, out.reason, s.nodes, s.nullity, s.kernel_candidates) == \
            ("sat", "kernel", 16, 1, 1)
        assert out.witness.to_text() == witness
        monkeypatch.setattr(solver, "_RANK_PAUSE", solver._SEARCH_ALLOWANCE)
        out = bc.solve(g, "cnb")
        s = out.stats
        assert (out.status, out.reason, s.nodes, s.nullity, s.kernel_candidates) == \
            ("sat", "kernel", 64, 1, 1)
        assert out.witness.to_text() == witness


class TestCensus:
    def test_order_preserved_and_statuses(self):
        graphs = [bc.complete(2), bc.star(4), bc.cycle(8), bc.complete(1)]
        out = list(bc.census(graphs, "cnb"))
        assert [o.status for o in out] == ["sat", "unsat", "unsat", "unsat"]

    def test_empty_stream(self):
        assert list(bc.census([], "cnb")) == []

    def test_workers_match_serial(self):
        graphs = [bc.gen_petersen(n, d) for n in range(3, 9) for d in range(1, (n - 1) // 2 + 1)]
        serial = [(o.status, o.witness.to_text() if o.witness else None)
                  for o in bc.census(graphs, "cnb", workers=1)]
        parallel = [(o.status, o.witness.to_text() if o.witness else None)
                    for o in bc.census(graphs, "cnb", workers=3)]
        assert serial == parallel

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # a fake pool: the real one would fork every worker it is asked for
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: 3)
        graphs = [bc.complete(2), bc.star(4), bc.prism(8)]
        out = [o.status for o in bc.census(graphs, "cnb", workers=100_000)]
        assert asked == [3]
        assert out == [o.status for o in bc.census(graphs, "cnb")]

    def test_four_vertex_census(self):
        # labeled brute force confirms which 4-vertex graphs are colorable
        sat_graphs = []
        for g in bc.all_labeled_graphs(4):
            expect = bool(brute_force_masks(g, "cnb"))
            out = bc.solve(g, "cnb")
            assert (out.status == "sat") == expect
            if expect:
                sat_graphs.append(g)
        # exactly the perfect matchings (3 labelings) and K4 itself
        assert len(sat_graphs) == 4
        degseqs = {tuple(sorted(g.degrees())) for g in sat_graphs}
        assert degseqs == {(1, 1, 1, 1), (3, 3, 3, 3)}


def test_prefilter_reasons():
    assert bc.prefilter_reason(bc.complete(3), "cnb") is not None
    assert bc.prefilter_reason(bc.complete(4), "cnb") is None
    assert bc.prefilter_reason(bc.path(2), "nb") is not None
    assert bc.prefilter_reason(bc.cycle(4), "nb") is None
    # compatible parity combinations pass
    g = bc.disjoint_union(bc.complete(4), bc.complete(2))
    assert g.edge_count % 2 == 1 and g.n % 4 == 2
    assert bc.prefilter_reason(g, "cnb") is None
    h = bc.disjoint_union(bc.complete(4), bc.complete(4))
    assert h.edge_count % 2 == 0 and h.n % 4 == 0
    assert bc.prefilter_reason(h, "cnb") is None
    # triangle with a pendant on each corner: all odd degrees, but the
    # edge count is even while the order is 2 mod 4
    tri = bc.Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
    assert all(d % 2 == 1 for d in tri.degrees())
    assert tri.edge_count % 2 == 0 and tri.n % 4 == 2
    assert bc.prefilter_reason(tri, "cnb") is not None
    assert bc.solve(tri, "cnb").status == "unsat"


def _reference_reason(g, mode):
    """The reason solve should give when a generic certificate answers,
    chained here from the two public checks: the prefilter first, then in
    cnb the leaf bound; None when neither applies."""
    why = bc.prefilter_reason(g, mode)
    if why is not None:
        return f"prefilter:{why}"
    why = leaf_overload(g, g.degrees()) if mode == "cnb" else None
    return None if why is None else f"forced-classes:{why}"


class TestCertificateChain:
    def test_solve_reasons_match_the_reference_chain(self):
        answered = 0
        for n in range(7):
            for g in bc.all_labeled_graphs(n):
                for mode in ("cnb", "nb"):
                    want = _reference_reason(g, mode)
                    got = bc.solve(g, mode).reason
                    if want is None:
                        assert not got.startswith("prefilter:"), (g, mode)
                        assert not got.startswith("forced-classes:"), (g, mode)
                    else:
                        assert got == want, (g, mode)
                        answered += 1
        assert answered > 0

    def test_odd_cnb_order_needs_no_degrees(self, monkeypatch):
        def refuse(self):
            raise AssertionError("degrees computed")

        monkeypatch.setattr(bc.Graph, "degrees", refuse)
        out = bc.solve(bc.star(4), "cnb")
        assert (out.status, out.reason) == ("unsat", "prefilter:odd vertex count")
        assert bc.enumerate_colorings(bc.star(4), "cnb").colorings == ()
        assert bc.decompose_cnbc_tree(bc.path(7)) is None


def test_only_cli_and_init_import_solver():
    importers = set()
    for path in pathlib.Path(bc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                names = [base] + [f"{base}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "solver" for name in names):
                importers.add(path.name)
    assert importers == {"cli.py", "__init__.py"}


class TestTrustedRecords:
    """solve builds SolveStats and SolveOutcome past their __init__; each
    record must still equal, hash, print and pickle like the one the
    dataclass builds, and stay frozen (census --workers ships them between
    processes)."""

    CASES = {
        "certificate": (bc.star(5), "cnb", None, "unsat", "forced-classes:"),
        "tree-sat": (bc.path(2), "cnb", None, "sat", "tree"),
        "tree-unsat": (bc.decode("IO?eCoAG?"), "cnb", None, "unsat", "tree:"),
        "search-sat": (bc.cycle(8), "nb", None, "sat", "search"),
        "kernel": (bc.circulant(64, (1, 2, 6, 13, 26)), "nb", None, "sat", "kernel"),
        "timeout": (bc.circulant(24, (1, 3, 5, 7, 9, 12)), "cnb", Budget(max_nodes=50),
                    "timeout", "budget"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_records_match_dataclass_built_ones(self, case):
        g, mode, budget, status, reason = self.CASES[case]
        out = bc.solve(g, mode, budget)
        assert out.status == status and out.reason.startswith(reason)
        stats = bc.SolveStats(**{f.name: getattr(out.stats, f.name)
                                 for f in dataclasses.fields(bc.SolveStats)})
        ref = bc.SolveOutcome(out.status, out.witness, stats, out.reason)
        assert out == ref and out.stats == stats
        assert vars(out) == vars(ref) and vars(out.stats) == vars(stats)
        assert hash(out) == hash(ref) and repr(out) == repr(ref)
        assert out.as_dict() == ref.as_dict()
        back = pickle.loads(pickle.dumps(out))
        assert back == ref and back.as_dict() == ref.as_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.reason = "search"
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.stats.nodes = 1
