"""The exact linear stage: the reduced echelon form modulo 2^31 - 1, the
kernel sign search, and how solve uses them; checked against a plain
Gauss-Jordan reference, against the rational rank below the Hadamard
threshold, against the brute-force oracle, against each other, against
solve, and on circulants against the 2-adic rule."""

import itertools
import random
import time

import pytest

import balanced_coloring as bc
from balanced_coloring import Budget, Coloring, linalg, solver
from balanced_coloring.constructions import _two_adic_rule
from balanced_coloring.graphs import CirculantSpec

from conftest import brute_force_masks, random_graph, ref_rational_rank, ref_reduced_echelon


def _balance_rows(g, mode):
    return [a | (1 << v) for v, a in enumerate(g.adj)] if mode == "cnb" else list(g.adj)


def _echelon_nullity(g, mode):
    pivots, _free, _forms = linalg.echelon(_balance_rows(g, mode), g.n)
    return g.n - len(pivots)


def _labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield bc.Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _agrees_with_brute_force(g, mode):
    verdict = linalg.kernel_verdict(g, mode)
    masks = brute_force_masks(g, mode)
    assert verdict.status == ("sat" if masks else "unsat"), (g, mode, verdict)
    if masks:
        assert verdict.red in masks, (g, mode, verdict)


def _random_regular(n, d, rng):
    """A d-regular graph on n vertices (n * d even): the circulant with
    lengths 1..d/2 (plus n/2 for odd d) scrambled by double-edge swaps."""
    lengths = list(range(1, d // 2 + 1)) + ([n // 2] if d % 2 else [])
    edges = sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in lengths})
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, e) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = tuple(sorted((a, e))), tuple(sorted((c, b)))
        if a == e or c == b or new1 in present or new2 in present:
            continue
        present -= {edges[i], edges[j]}
        present |= {new1, new2}
        edges[i], edges[j] = new1, new2
    return bc.Graph.from_edges(n, edges)


class TestEchelon:
    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
    def test_seeded_random_matrices_to_order_64(self, density):
        # the dense order-64 matrices drive the one-fold slot bound hardest,
        # at the largest order solve runs the stage on
        rng = random.Random(int(density * 10))
        for n in range(1, 65):
            rows = [sum(1 << j for j in range(n) if rng.random() < density)
                    for _ in range(n)]
            assert linalg.echelon(rows, n) == ref_reduced_echelon(rows, n, linalg.P), n

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    def test_zero_identity_and_all_ones(self, n):
        for rows in ([0] * n, [1 << i for i in range(n)], [(1 << n) - 1] * n):
            assert linalg.echelon(rows, n) == ref_reduced_echelon(rows, n, linalg.P)

    @pytest.mark.parametrize("n", [1, 2, 9, 40, 64])
    def test_complete_and_empty_balance_matrices(self, n):
        for g in (bc.complete(n), bc.empty_graph(n)):
            for mode in ("cnb", "nb"):
                rows = _balance_rows(g, mode)
                assert linalg.echelon(rows, n) == ref_reduced_echelon(rows, n, linalg.P)

    @pytest.mark.parametrize("n", [24, 40, 64])
    def test_planted_nullity(self, n):
        # a seeded basis of n - nullity random rows, independent mod P at
        # these seeds, padded to n rows with copies of its rows and zero rows
        rng = random.Random(n)
        for nullity in sorted({0, 1, 2, 5, 10, 20, n // 2, n - 1, n}):
            basis = [rng.getrandbits(n) for _ in range(n - nullity)]
            rows = basis + [rng.choice(basis + [0]) for _ in range(nullity)]
            rng.shuffle(rows)
            form = linalg.echelon(rows, n)
            assert form == ref_reduced_echelon(rows, n, linalg.P), (n, nullity)
            assert len(form[1]) == nullity, (n, nullity)

    @pytest.mark.parametrize("n", [5, 24, 40, 64])
    def test_rectangular_with_duplicates(self, n):
        rng = random.Random(100 + n)
        for count in (1, n // 2, n - 1, n + 1, 2 * n):
            rows = [rng.getrandbits(n) for _ in range(min(count, n))]
            rows += [rng.choice(rows) for _ in range(count - len(rows))]
            rng.shuffle(rows)
            assert linalg.echelon(rows, n) == ref_reduced_echelon(rows, n, linalg.P), count

    @pytest.mark.parametrize("n", [5, 24, 40, 64])
    def test_zero_rows_and_leading_zero_columns(self, n):
        # the first `lead` columns are zero, so the first pivot comes late
        rng = random.Random(200 + n)
        for lead in (0, 1, n // 3, n - 1):
            rows = [rng.getrandbits(n - lead) << lead for _ in range(n - n // 4)]
            for _ in range(n // 4):
                rows.insert(rng.randrange(len(rows) + 1), 0)
            assert linalg.echelon(rows, n) == ref_reduced_echelon(rows, n, linalg.P), lead


class TestHadamardExactness:
    """A nonzero minor of a 0/1 matrix of order r is at most
    (r + 1)^((r + 1) / 2) / 2^r by Hadamard's bound, below 2^31 - 1 for
    r <= 22; so up to order 22 the mod-P nullity is the rational one."""

    @staticmethod
    def _exact(g, mode):
        rational = g.n - ref_rational_rank(_balance_rows(g, mode), g.n)
        assert _echelon_nullity(g, mode) == rational, (g, mode)

    @pytest.mark.parametrize("n", range(7))
    def test_every_labeled_graph_to_order_6(self, n):
        for g in _labeled_graphs(n):
            for mode in ("cnb", "nb"):
                self._exact(g, mode)

    def test_seeded_random_graphs_of_order_7_to_22(self):
        rng = random.Random(22)
        for n in range(7, 23):
            for _ in range(4):
                g = random_graph(rng, n, rng.random())
                for mode in ("cnb", "nb"):
                    self._exact(g, mode)


class TestKernelVerdict:
    @pytest.mark.parametrize("n", range(7))
    def test_every_labeled_graph_to_order_6(self, n):
        for g in _labeled_graphs(n):
            for mode in ("cnb", "nb"):
                _agrees_with_brute_force(g, mode)

    def test_seeded_random_graphs_to_order_16(self):
        rng = random.Random(61)
        for n in range(7, 17):
            for _ in range(5):
                g = random_graph(rng, n, rng.random())
                for mode in ("cnb", "nb"):
                    _agrees_with_brute_force(g, mode)

    def test_statuses(self):
        c23 = bc.circulant(23, tuple(range(1, 10)) + (11,))
        assert linalg.kernel_verdict(c23, "nb") == linalg.LinearVerdict("unsat", 0)
        # A = 0 on an edgeless graph: every vector is in the kernel
        empty = bc.empty_graph(12)
        assert linalg.kernel_verdict(empty, "nb", max_nullity=11).status == "deferred"
        out = linalg.kernel_verdict(empty, "nb", max_nullity=12)
        assert (out.status, out.nullity, out.red) == ("sat", 12, (1 << 12) - 1)
        assert linalg.kernel_verdict(bc.empty_graph(0), "cnb").status == "sat"


class TestCirculantNullity:
    """Circulant kernels against the 2-adic rule (constructions._two_adic_rule).
    When Phi_(2^j) divides the symbol, the block pattern of period 2^j is
    balanced and its shifts span 2^(j-1) dimensions of the kernel; when the
    rule answers no, no block pattern is balanced; and its verdict, alone
    and at the end of characterize_circulant's chain, agrees with solve."""

    @staticmethod
    def _blocks(n):
        h = 1
        while n % (2 * h) == 0:
            yield h, Coloring(n, sum(1 << i for i in range(n) if i % (2 * h) < h))
            h *= 2

    @pytest.mark.parametrize("n", range(1, 25))
    def test_every_circulant_to_order_24(self, n):
        pool = range(1, n // 2 + 1)
        for k in range(1, len(pool) + 1):
            for lengths in itertools.combinations(pool, k):
                spec = CirculantSpec(n, lengths)
                g = spec.build()
                for mode in ("cnb", "nb"):
                    rule = _two_adic_rule(spec, mode)
                    balanced = [(h, c) for h, c in self._blocks(n) if bc.verify(g, c, mode)]
                    if rule.value == "no":
                        assert not balanced, (n, lengths, mode)
                        continue
                    h, block = balanced[0]
                    assert rule.witness == block, (n, lengths, mode)
                    assert _echelon_nullity(g, mode) >= h, (n, lengths, mode)

    def test_sampled_circulants_to_order_64(self):
        rng = random.Random(64)
        for n in range(25, 65):
            pool = list(range(1, n // 2 + 1))
            for _ in range(4):
                lengths = tuple(sorted(rng.sample(pool, rng.randrange(1, len(pool) + 1))))
                self._agrees_with_solve(CirculantSpec(n, lengths))

    @pytest.mark.parametrize("n", range(1, 25))
    def test_spectrum_verdicts_agree_with_solve_to_24(self, n):
        pool = range(1, n // 2 + 1)
        for k in range(1, len(pool) + 1):
            for lengths in itertools.combinations(pool, k):
                self._agrees_with_solve(CirculantSpec(n, lengths))

    @staticmethod
    def _agrees_with_solve(spec):
        g = spec.build()
        for mode in ("cnb", "nb"):
            expected = {"sat": "yes", "unsat": "no"}[bc.solve(g, mode).status]
            verdict = bc.characterize_circulant(spec, mode)
            assert verdict.value == expected, (spec, mode, verdict)
            assert _two_adic_rule(spec, mode).value == expected, (spec, mode)
            if expected == "yes":
                assert bc.verify(g, verdict.witness, mode), (spec, mode)


class TestSolveStage:
    HARD = [(bc.circulant(23, tuple(range(1, 10)) + (11,)), "nb")]
    HARD += [(_random_regular(28, 23, random.Random(s)), "cnb") for s in range(5)]
    HARD += [(_random_regular(24, 19, random.Random(s)), "cnb") for s in range(5)]

    @pytest.mark.parametrize("g, mode", HARD)
    def test_hard_instances_decided_under_100_ms(self, g, mode):
        assert len({a.bit_count() for a in g.adj}) == 1  # regular
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            out = bc.solve(g, mode)
            best = min(best, time.perf_counter() - start)
        assert out.status in ("sat", "unsat")
        assert out.reason in ("search", "rank", "kernel")
        if out.status == "sat":
            assert bc.verify(g, out.witness, mode)
        assert best < 0.1, best

    def test_reasons(self):
        assert bc.solve(bc.star(4), "cnb").reason == "prefilter:odd vertex count"
        # K_{1,5} passes the prefilter; its center carries too many leaves
        assert bc.solve(bc.star(5), "cnb").reason == (
            "forced-classes:vertex 0 carries 5 leaves, more than (deg+1)/2 = 3"
        )
        out = bc.solve(bc.cycle(8), "nb")
        assert (out.reason, out.stats.nullity) == ("search", None)
        out = bc.solve(bc.circulant(23, tuple(range(1, 10)) + (11,)), "nb")
        assert (out.status, out.reason, out.stats.nullity) == ("unsat", "rank", 0)
        out = bc.solve(bc.circulant(24, (1, 3, 5, 7, 9, 12)), "cnb", Budget(max_nodes=50))
        assert (out.status, out.reason, out.stats.nullity) == ("timeout", "budget", None)

    def test_kernel_answers_after_the_allowance(self, monkeypatch):
        g = bc.cycle(8)  # nb: A has nullity 2 and the search needs a decision
        plain = bc.solve(g, "nb")
        monkeypatch.setattr(solver, "_SEARCH_ALLOWANCE", 1)
        out = bc.solve(g, "nb")
        assert (out.status, out.reason, out.stats.nullity) == ("sat", "kernel", 2)
        assert out.stats.kernel_candidates > 0
        assert out.witness.bits & 1 and bc.verify(g, out.witness, "nb")
        # above the nullity cap the search resumes where it paused
        monkeypatch.setattr(solver, "_KERNEL_MAX_NULLITY", 1)
        out = bc.solve(g, "nb")
        assert (out.status, out.reason, out.stats.nullity) == ("sat", "search", 2)
        assert out.witness == plain.witness and out.stats.nodes == plain.stats.nodes

    # a 48-vertex cnb graph whose search reaches the linear stage at nullity 13
    DENSE_48 = (
        "o??G?A???B??????G???g@?A???O???C???_??O?G?C?_?O??AB??OG??@?o?K???_?K?O_???A???"
        "H??_??G?GA?C??????GA?AAG???AO?O???B??a?GC???A???@?A??O_????_??GC__??cA???@?_???"
        "@?G?AG_?C?A@??_?C??G??_??O?A??A?"
    )

    def test_deadline_inside_the_kernel_search(self):
        # four K2 on vertices 0-7 beside the 48-vertex graph
        u = bc.complete(2)
        for part in [bc.complete(2)] * 3 + [bc.decode(self.DENSE_48)]:
            u = bc.disjoint_union(u, part)
        assert u.n == 56
        # the search checks its deadline every 1024 decisions and pauses
        # after 64, so the first check to see the deadline is the sign
        # search's, at its 1024th choice
        for budget, expect in (
            (Budget(max_millis=0.001), ("timeout", "budget", 64, 353, 13, 1024)),
            (None, ("unsat", "kernel", 64, 353, 13, 1535)),
        ):
            out = bc.solve(u, "cnb", budget)
            s = out.stats
            got = (out.status, out.reason, s.nodes, s.propagations, s.nullity,
                   s.kernel_candidates)
            assert got == expect

    def test_as_dict_appends_keys(self):
        d = bc.solve(bc.cycle(8), "nb").as_dict()
        assert list(d) == ["status", "witness", "nodes", "propagations", "millis",
                           "reason", "nullity", "kernel_candidates"]
