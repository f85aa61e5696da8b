"""Constructive colorers and characterizations against the exact solver."""

import itertools
import math
import random
import re
import tracemalloc

import pytest

import balanced_coloring as bc
from balanced_coloring import CirculantSpec, Coloring, constructions, linalg
from balanced_coloring.coloring import leaf_overload

from conftest import (
    brute_force_masks, cayley, character_rule, random_graph, ref_circulant_routes,
    ref_symbol_remainder,
)


class TestEmbeddings:
    def test_k1_gives_single_edge(self):
        host, col = bc.embed_in_cnbc(bc.complete(1))
        assert host == bc.complete(2)
        assert col.red_count == col.blue_count == 1

    def test_star_embeds_in_nbc_host(self):
        g = bc.star(4)
        host, col = bc.embed_in_nbc(g)
        assert host.n == 10
        assert bc.verify_nb(host, col)
        # induced copy on the first n vertices
        for u in range(g.n):
            for v in range(g.n):
                assert host.has_edge(u, v) == g.has_edge(u, v)

    def test_c3_embeds_in_cnbc_host(self):
        g = bc.cycle(3)
        host, col = bc.embed_in_cnbc(g)
        assert bc.verify_cnb(host, col)
        for u in range(g.n):
            for v in range(g.n):
                assert host.has_edge(u, v) == g.has_edge(u, v)

    def test_random_graphs_embed(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 7), rng.random())
            host, col = bc.embed_in_nbc(g)
            assert bc.verify_nb(host, col)
            host2, col2 = bc.embed_in_cnbc(g)
            assert bc.verify_cnb(host2, col2)


class TestComplementBridge:
    def test_c4_to_matching(self):
        g, c = bc.color_complement_bridge(bc.cycle(4), Coloring.from_text("RRBB"), "nb->cnb")
        assert g == bc.complement(bc.cycle(4))
        assert bc.verify_cnb(g, c)

    def test_circulant_complement_pair(self):
        src = bc.circulant(12, (2, 3, 4))
        nbcol = bc.color_circulant(CirculantSpec(12, (2, 3, 4)), "nb")
        assert nbcol is not None and bc.verify_nb(src, nbcol)
        g, c = bc.color_complement_bridge(src, nbcol, "nb->cnb")
        assert g == bc.circulant(12, (1, 5, 6))
        assert bc.verify_cnb(g, c)

    def test_rejects_unbalanced(self, h6, h7):
        with pytest.raises(bc.UnbalancedColoringError):
            bc.color_complement_bridge(h6, Coloring.from_text("BRBRRR"), "cnb->nb")
        # a 4/3 split is open-balanced but cannot cross to the complement
        with pytest.raises(bc.UnbalancedColoringError):
            bc.color_complement_bridge(h7, Coloring.from_text("RRBBBRR"), "nb->cnb")
        # and indeed the complement admits no closed-balanced coloring at all
        assert bc.solve(bc.complement(h7), "cnb").status == "unsat"

    def test_rejects_invalid_source(self):
        with pytest.raises(bc.InvalidColoringError):
            bc.color_complement_bridge(bc.cycle(4), Coloring.from_text("RBRB"), "nb->cnb")


class TestJoinAndLexicographic:
    def test_join_k2_k2(self):
        c = bc.color_join(bc.complete(2), Coloring.from_text("RB"),
                          bc.complete(2), Coloring.from_text("RB"), "cnb")
        assert c.to_text() == "RBRB"
        assert bc.verify_cnb(bc.complete(4), c)

    def test_join_rejects_unbalanced(self, h6):
        h6col = Coloring.from_text("BRBRRR")
        with pytest.raises(bc.UnbalancedColoringError):
            bc.color_join(bc.complete(2), Coloring.from_text("RB"), h6, h6col, "cnb")

    def test_join_nb_mode(self):
        c4 = bc.cycle(4)
        nb = Coloring.from_text("RRBB")
        c = bc.color_join(c4, nb, c4, nb, "nb")
        assert bc.verify_nb(bc.join(c4, c4), c)

    def test_lexicographic_p3_k2(self):
        c = bc.color_lexicographic(bc.path(3), bc.complete(2), Coloring.from_text("RB"))
        assert bc.verify_cnb(bc.lexicographic(bc.path(3), bc.complete(2)), c)

    def test_lexicographic_random_outer(self):
        rng = random.Random(19)
        for _ in range(15):
            g = random_graph(rng, rng.randrange(1, 6), rng.random())
            c = bc.color_lexicographic(g, bc.complete(4), Coloring.from_text("RBRB"))
            assert bc.verify_cnb(bc.lexicographic(g, bc.complete(4)), c)

    def test_lexicographic_rejects_unbalanced(self, h6):
        with pytest.raises(bc.UnbalancedColoringError):
            bc.color_lexicographic(bc.complete(2), h6, Coloring.from_text("BRBRRR"))


class TestCirculantRoutes:
    def test_figure_instances(self):
        routes14 = dict(bc.circulant_constructions(CirculantSpec(14, (1, 6, 7)), "cnb"))
        assert "alternating" in routes14
        routes12 = dict(bc.circulant_constructions(CirculantSpec(12, (1, 5, 6)), "cnb"))
        assert "half-period" in routes12
        routes16 = dict(bc.circulant_constructions(CirculantSpec(16, (2, 8)), "cnb"))
        assert "mod4-blocks" in routes16

    def test_precedence_order(self):
        # both half-period and mod4-blocks apply here; precedence picks first
        spec = CirculantSpec(12, (1, 5, 6))
        assert bc.color_circulant(spec, "cnb") == dict(
            bc.circulant_constructions(spec, "cnb")
        )["half-period"]

    def test_every_applicable_route_verifies(self):
        rng = random.Random(77)
        seen = set()
        for _ in range(400):
            n = rng.randrange(4, 21)
            pool = list(range(1, n // 2 + 1))
            lengths = tuple(sorted(rng.sample(pool, rng.randrange(1, len(pool) + 1))))
            spec = CirculantSpec(n, lengths)
            g = spec.build()
            for mode in ("cnb", "nb"):
                for name, col in bc.circulant_constructions(spec, mode):
                    seen.add((name, mode))
                    assert bc.verify(g, col, mode)
        assert ("alternating", "cnb") in seen
        assert ("half-period", "nb") in seen

    def test_not_covered_returns_none(self):
        assert bc.color_circulant(CirculantSpec(16, (1, 3, 8)), "cnb") is None

    def test_quintic_family_always_covered(self):
        # lengths {1, n/2 - 1, n/2} work for every even order
        for n in range(6, 25, 2):
            spec = CirculantSpec(n, (1, n // 2 - 1, n // 2))
            col = bc.color_circulant(spec, "cnb")
            assert col is not None
            assert bc.verify_cnb(spec.build(), col)

    def test_routes_against_length_class_arithmetic(self):
        # the fold tests at h = 1, n/2 and 2 give the names, order and bits
        # the routes' parity, residue-count and symmetric-core conditions did
        seen = set()
        for spec in _every_circulant(24):
            for mode in ("cnb", "nb"):
                routes = [(name, col.bits) for name, col in bc.circulant_constructions(spec, mode)]
                assert routes == ref_circulant_routes(spec, mode), (spec, mode)
                seen.update((name, mode) for name, _ in routes)
        assert seen == {("alternating", "cnb"), ("alternating", "nb"), ("half-period", "cnb"),
                        ("half-period", "nb"), ("mod4-blocks", "cnb")}

    def test_fold_test_against_long_division(self):
        # every h with 2h | n, not only powers of two
        divides = set()
        for spec in _every_circulant(24):
            for mode in ("cnb", "nb"):
                for h in range(1, spec.n // 2 + 1):
                    if spec.n % (2 * h) == 0:
                        rest = ref_symbol_remainder(spec, mode, h)
                        got = constructions._phi_divides(spec, mode, h)
                        assert got == (not any(rest)), (spec, mode, h, rest)
                        divides.add((got, h & (h - 1) == 0))
        assert divides == {(True, True), (True, False), (False, True), (False, False)}

    def test_periodic_bits_against_bit_by_bit(self):
        # every pattern the routes and the 2-adic rule pass in
        patterns = [(0, 1), (1, 1, 0, 0)]
        patterns += [(1,) * h + (0,) * h for h in (1, 2, 4, 8, 16)]
        patterns += [(a0, a1, 1 - a0, 1 - a1) for a0 in (0, 1) for a1 in (0, 1)]
        for pattern in patterns:
            for n in range(300):
                expect = sum(1 << i for i in range(n) if pattern[i % len(pattern)])
                assert constructions._periodic_bits(n, pattern) == expect, (n, pattern)


class TestCirculantReduce:
    def test_examples(self):
        t, red = bc.circulant_reduce(CirculantSpec(12, (4, 6)))
        assert t == 2 and red == CirculantSpec(6, (2, 3))
        t, red = bc.circulant_reduce(CirculantSpec(12, (1, 6)))
        assert t == 1 and red == CirculantSpec(12, (1, 6))
        t, red = bc.circulant_reduce(CirculantSpec(8, (2,)))
        assert t == 2 and red == CirculantSpec(4, (1,))

    def test_reduction_preserves_solver_verdict(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randrange(4, 19)
            pool = list(range(1, n // 2 + 1))
            spec = CirculantSpec(
                n, tuple(sorted(rng.sample(pool, rng.randrange(1, len(pool) + 1))))
            )
            t, red = bc.circulant_reduce(spec)
            for mode in ("cnb", "nb"):
                assert (
                    bc.solve(spec.build(), mode).status
                    == bc.solve(red.build(), mode).status
                )


class TestCubicCirculants:
    def test_examples(self):
        assert bc.characterize_cubic_circulant(12, 1).value == "yes"
        assert bc.characterize_cubic_circulant(12, 4).value == "no"
        assert bc.characterize_cubic_circulant(10, 1).value == "no"

    def test_witness_matches_alternating_figure(self):
        v = bc.characterize_cubic_circulant(12, 1)
        assert v.witness.to_text() == "BRBRBRBRBRBR"

    def test_param_domain(self):
        with pytest.raises(bc.FamilyParameterError):
            bc.characterize_cubic_circulant(9, 1)
        with pytest.raises(bc.FamilyParameterError):
            bc.characterize_cubic_circulant(12, 6)


class TestQuinticCirculants:
    def test_examples(self):
        assert bc.characterize_quintic_circulant(14, 1, 6).value == "yes"
        assert bc.characterize_quintic_circulant(14, 1, 3).value == "no"
        v = bc.characterize_quintic_circulant(12, 1, 5)
        assert v.value == "yes" and v.theorem == "half-period"
        v = bc.characterize_quintic_circulant(16, 1, 3)
        assert (v.value, v.theorem) == ("no", "circulant-2adic")

    def test_open_cases_are_decided_and_verify(self):
        for n in (8, 12, 16, 20, 24):
            for d1 in range(1, n // 2):
                for d2 in range(d1 + 1, n // 2):
                    v = bc.characterize_quintic_circulant(n, d1, d2)
                    assert v.value != "unknown", (n, d1, d2)
                    if v.value == "yes":
                        assert bc.verify_cnb(bc.circulant(n, (d1, d2, n // 2)), v.witness)

    def test_quintic_open_case_reaches_the_2adic_rule(self):
        # lengths {1, 3, 8} on 16 vertices: the paper's parity rule covers
        # only orders 2 mod 4, so this member passes on to the 2-adic rule;
        # the symbol 1 + x + x^3 + x^8 + x^13 + x^15 is -2 at -1, 2 at i,
        # and nonzero at the primitive 8th and 16th roots too
        v = bc.characterize_quintic_circulant(16, 1, 3)
        assert (v.value, v.theorem) == ("no", "circulant-2adic")
        assert "mod 2^a = 16" in v.reason and "odd number 1 of" in v.reason
        assert bc.solve(bc.circulant(16, (1, 3, 8)), "cnb").status == "unsat"

    def test_open_case_verdicts_agree_with_solve_to_32(self):
        # reduced orders 0 mod 4 skip the parity rule and go on to the routes
        # and then the 2-adic rule; each verdict agrees with solve
        theorems = set()
        for n in range(8, 33, 4):
            for d1 in range(1, n // 2):
                for d2 in range(d1 + 1, n // 2):
                    if n // math.gcd(n, d1, d2) % 4:
                        continue
                    v = bc.characterize_quintic_circulant(n, d1, d2)
                    theorems.add(v.theorem)
                    status = bc.solve(bc.circulant(n, (d1, d2, n // 2)), "cnb").status
                    assert status == ("sat" if v.value == "yes" else "unsat"), (n, d1, d2)
        assert "quintic-parity" not in theorems
        assert "circulant-2adic" in theorems

    def test_open_case_agrees_with_kernel_to_64(self):
        # linalg.kernel_verdict on the built member is an exact oracle
        for n in range(8, 65, 4):
            for d1 in range(1, n // 2):
                for d2 in range(d1 + 1, n // 2):
                    if n // math.gcd(n, d1, d2) % 4:
                        continue
                    v = bc.characterize_quintic_circulant(n, d1, d2)
                    kernel = linalg.kernel_verdict(bc.circulant(n, (d1, d2, n // 2)), "cnb")
                    assert kernel.status == ("sat" if v.value == "yes" else "unsat"), \
                        (n, d1, d2)

    def test_past_the_old_order_cap(self, monkeypatch):
        # 3 * 2^12 vertices; a "yes" needs Phi_(2^j) | f, here at j = 12:
        # d2 = 2^11 - d1 makes the symbol vanish at the primitive 2^12-th roots
        n = 3 << 12
        yes = bc.characterize_quintic_circulant(n, 1, 2047)
        assert (yes.value, yes.theorem) == ("yes", "circulant-2adic")
        assert bc.verify_cnb(bc.circulant(n, (1, 2047, n // 2)), yes.witness)

        def no_member(*args):
            raise AssertionError("a no needs no member")

        monkeypatch.setattr(constructions, "build_family", no_member)
        no = bc.characterize_quintic_circulant(n, 1, 3)
        assert (no.value, no.theorem) == ("no", "circulant-2adic")

    def test_no_near_the_bound_reads_only_the_lengths(self, monkeypatch):
        # 3 * 2^18 vertices: a "no" neither builds the member nor walks the
        # n/2 - 3 lengths it lacks
        def no_member(*args):
            raise AssertionError("a no needs no member")

        monkeypatch.setattr(constructions, "build_family", no_member)
        n = 3 << 18
        tracemalloc.start()
        try:
            verdict = bc.characterize_circulant(CirculantSpec(n, (1, 3, n // 2)), "cnb")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (verdict.value, verdict.theorem) == ("no", "circulant-2adic")
        assert peak < 1 << 20, peak

    def test_open_case_closed_form_at_j_equal_a(self):
        # Phi_(2^a) | f exactly when d2 = 2^(a-1) +- d1 (mod 2^a), and the
        # block pattern of period 2^a is balanced exactly then
        congruent = 0
        for n in range(4, 129, 4):
            p = n & -n
            block = Coloring(n, sum(1 << i for i in range(n) if i % p < p // 2))
            for d1 in range(1, n // 2):
                for d2 in range(d1 + 1, n // 2):
                    if math.gcd(n, d1, d2) > 1:
                        continue
                    g = bc.build_family("circulant", n, (d1, d2, n // 2))
                    holds = (d2 - d1) % p == p // 2 or (d2 + d1) % p == p // 2
                    assert bc.verify_cnb(g, block) == holds, (n, d1, d2)
                    congruent += holds
        assert congruent > 0


def _every_circulant(top):
    for n in range(1, top + 1):
        pool = range(1, n // 2 + 1)
        for k in range(1, len(pool) + 1):
            for lengths in itertools.combinations(pool, k):
                yield CirculantSpec(n, lengths)


class TestPaperNamesOnTheRule:
    """The 2-adic rule decides every circulant past degree parity; the
    paper's theorem names label its answers on the paper's families."""

    @pytest.fixture(scope="class")
    def verdicts(self):
        return [(spec, mode, bc.characterize_circulant(spec, mode))
                for spec in _every_circulant(24) for mode in ("cnb", "nb")]

    def test_names_label_exactly_the_papers_families(self, verdicts):
        named = set()
        for spec, mode, v in verdicts:
            n, lengths = spec.n, spec.lengths
            closed = mode == "cnb" and n % 2 == 0 and n // 2 in lengths
            cubic = closed and len(lengths) == 2
            quintic = closed and len(lengths) == 3 and n // spec.gcd_step % 4 == 2
            assert (v.theorem == "cubic-circulant") == cubic, (spec, mode, v)
            assert (v.theorem == "quintic-parity") == quintic, (spec, mode, v)
            named.add((v.theorem, v.value, spec.gcd_step > 1))
        for theorem in ("cubic-circulant", "quintic-parity"):
            for value in ("yes", "no"):
                assert (theorem, value, True) in named and (theorem, value, False) in named

    def test_rule_reasons_describe_their_witness(self, verdicts):
        phases = set()
        for spec, mode, v in verdicts:
            if v.value != "yes" or v.theorem not in (
                "circulant-2adic", "cubic-circulant", "quintic-parity"
            ):
                continue
            period, sign, h = re.search(r"i red iff i mod (\d+) (<|>=) (\d+)$", v.reason).groups()
            low = sign == "<"
            stated = sum(1 << i for i in range(spec.n) if (i % int(period) < int(h)) == low)
            assert v.witness.bits == stated, (spec, mode, v)
            phases.add((v.theorem, sign))
        assert phases == {("circulant-2adic", "<"), ("cubic-circulant", ">="),
                          ("quintic-parity", ">=")}

    @pytest.mark.parametrize("n, lengths, theorem, text", [
        (24, (2, 12), "cubic-circulant", "BBRR" * 6),
        (42, (3, 6, 21), "quintic-parity", "BR" * 21),
    ])
    def test_members_that_are_not_reduced(self, n, lengths, theorem, text):
        v = bc.characterize_circulant(CirculantSpec(n, lengths), "cnb")
        assert (v.value, v.theorem, v.witness.to_text()) == ("yes", theorem, text)
        assert bc.verify_cnb(bc.circulant(n, lengths), v.witness)


class TestCycleOnTheRule:
    """``cycle`` is the 2-adic rule on C_n(1), under the name cycle-mod4."""

    def test_cycles_to_64(self):
        for n in range(3, 65):
            for mode in ("cnb", "nb"):
                v = bc.characterize_family("cycle", (n,), mode)
                assert (v.value == "yes") == (mode == "nb" and n % 4 == 0), (n, mode, v)
                if mode == "cnb":
                    continue  # even degrees: the certificates answer first
                assert v.theorem == "cycle-mod4", (n, v)
                if v.value == "no":
                    assert v.witness is None
                    continue
                assert v.witness.to_text() == "RRBB" * (n // 4)
                period, sign, h = re.search(
                    r"i red iff i mod (\d+) (<|>=) (\d+)$", v.reason).groups()
                low = sign == "<"
                stated = sum(1 << i for i in range(n) if (i % int(period) < int(h)) == low)
                assert v.witness.bits == stated, (n, v)


class TestCharacterRule:
    """character_rule, the 2-adic rule on Z_n1 x ... x Z_nk, against solve
    on abelian Cayley graphs built from the same (orders, S)."""

    @staticmethod
    def _agrees(orders, S, modes=("cnb", "nb")):
        g = cayley(orders, S)
        for mode in modes:
            expected = bc.solve(g, mode).status == "sat"
            assert character_rule(orders, S, mode) == expected, (orders, S, mode)
        return g

    def test_circulants_against_the_2adic_rule(self):
        for spec in _every_circulant(16):
            S = sorted({(e,) for d in spec.lengths for e in (d, spec.n - d)})
            for mode in ("cnb", "nb"):
                rule = constructions._two_adic_rule(spec, mode)
                assert character_rule((spec.n,), S, mode) == (rule.value == "yes"), (spec, mode)

    def test_prisms(self):
        for n in range(3, 21):
            g = self._agrees((2, n), [(1, 0), (0, 1), (0, n - 1)])
            assert g == bc.prism(n)

    def test_hypercubes(self):
        for d in range(1, 8):
            units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
            assert self._agrees((2,) * d, units) == bc.hypercube(d)

    def test_tori(self):
        for a in range(3, 9):
            for b in range(a, 9):
                g = self._agrees((a, b), [(1, 0), (a - 1, 0), (0, 1), (0, b - 1)])
                assert g == bc.cartesian(bc.cycle(a), bc.cycle(b))

    def test_complete_bipartite_nb(self):
        for m in range(1, 7):
            g = self._agrees((2, m), [(1, x) for x in range(m)], ("nb",))
            assert g == bc.complete_bipartite(m, m)

    def test_random_cayley_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = rng.randrange(1, 13)
            b = rng.randrange(1, 24 // a + 1)
            others = [x for x in itertools.product(range(a), range(b)) if any(x)]
            if not others:
                continue
            picked = rng.sample(others, rng.randrange(1, len(others) + 1))
            S = sorted({y for x, z in picked for y in ((x, z), (-x % a, -z % b))})
            self._agrees((a, b), S)


class TestGeneralizedPetersen:
    def test_characterization_table(self):
        assert bc.characterize_gp(8, 3).value == "yes"
        assert bc.characterize_gp(5, 2).value == "no"
        assert bc.characterize_gp(10, 2).value == "no"

    def test_color_gp_matches_figure(self):
        col = bc.color_gp(8, 3)
        # outer cycle alternates, inner mirrors it
        assert col.to_text() == "BRBRBRBR" * 2
        assert bc.verify_cnb(bc.gen_petersen(8, 3), col)

    def test_color_gp_rejects_no_instance(self):
        with pytest.raises(bc.NotColorableError):
            bc.color_gp(10, 2)
        with pytest.raises(bc.NotColorableError):
            bc.color_gp(5, 2)

    def test_agrees_with_solver_to_n12(self):
        for n in range(3, 13):
            for d in range(1, (n - 1) // 2 + 1):
                verdict = bc.characterize_gp(n, d)
                status = bc.solve(bc.gen_petersen(n, d), "cnb").status
                assert (verdict.value == "yes") == (status == "sat")


class TestProductColorers:
    def test_prism_via_cartesian(self):
        k2, rb = bc.complete(2), Coloring.from_text("RB")
        c4nb = Coloring.from_text("RRBB")
        col = bc.color_cartesian(k2, rb, bc.cycle(4), c4nb)
        assert bc.verify_cnb(bc.prism(4), col)

    def test_cartesian_k4_c8(self):
        k4 = bc.complete(4)
        k4col = Coloring.from_text("RRBB")
        c8 = bc.cycle(8)
        c8nb = Coloring.from_text("RRBBRRBB")
        col = bc.color_cartesian(k4, k4col, c8, c8nb)
        assert bc.verify_cnb(bc.cartesian(k4, c8), col)

    def test_cartesian_with_edgeless_factor(self):
        k2, rb = bc.complete(2), Coloring.from_text("RB")
        e3 = bc.empty_graph(3)
        col = bc.color_cartesian(k2, rb, e3, Coloring.from_text("BBB"))
        assert bc.verify_cnb(bc.cartesian(k2, e3), col)

    def test_cartesian_layers_are_flips_of_base(self):
        # each fixed-second-coordinate layer carries the base coloring,
        # flipped exactly when the second coordinate is red
        k4, k4col = bc.complete(4), Coloring.from_text("RRBB")
        c8, c8nb = bc.cycle(8), Coloring.from_text("RRBBRRBB")
        col = bc.color_cartesian(k4, k4col, c8, c8nb)
        for j in range(8):
            layer = "".join(
                "R" if col.is_red(i * 8 + j) else "B" for i in range(4)
            )
            expect = k4col.flip() if c8nb.is_red(j) else k4col
            assert layer == expect.to_text()

    def test_box_k2(self, h6):
        assert bc.color_box_k2(bc.complete(2), Coloring.from_text("RB")).to_text() == "RRBB"
        h6col = Coloring.from_text("BRBRRR")
        col = bc.color_box_k2(h6, h6col)
        assert bc.verify_nb(bc.cartesian(h6, bc.complete(2)), col)

    def test_strong_examples(self):
        k2, rb = bc.complete(2), Coloring.from_text("RB")
        col = bc.color_strong(k2, rb, bc.star(3))
        assert bc.verify_cnb(bc.strong(k2, bc.star(3)), col)
        assert bc.color_strong(k2, rb, bc.complete(1)).to_text() == "RB"
        k4col = Coloring.from_text("RBRB")
        col = bc.color_strong(bc.complete(4), k4col, bc.cycle(5))
        assert bc.verify_cnb(bc.strong(bc.complete(4), bc.cycle(5)), col)

    def test_rejects_invalid_inputs(self):
        k2 = bc.complete(2)
        with pytest.raises(bc.InvalidColoringError):
            bc.color_box_k2(k2, Coloring.from_text("RR"))
        with pytest.raises(bc.InvalidColoringError):
            bc.color_cartesian(k2, Coloring.from_text("RB"),
                               bc.cycle(4), Coloring.from_text("RBRB"))


class TestHypercubes:
    def test_parity_chain(self):
        for k in range(0, 8):
            g, col = bc.color_hypercube(k)
            assert g == bc.hypercube(k)
            mode = "cnb" if k % 2 == 1 else "nb"
            assert bc.verify(g, col, mode)

    def test_parity_witness_bits(self):
        # vertex v is red iff the popcount of v >> dim//2 has the theorem's
        # parity, the rule the witness was once summed from vertex by vertex
        for dim in range(17):
            half, red = dim // 2, (dim // 2 + dim + 1) % 2
            want = sum(1 << v for v in range(1 << dim) if (v >> half).bit_count() % 2 == red)
            mode = "cnb" if dim % 2 else "nb"
            witness = constructions._family_rule("hypercube", (dim,), mode).witness
            assert (witness.n, witness.bits) == (1 << dim, want), dim

    @pytest.mark.parametrize("dim, text", enumerate([
        "B", "RB", "RRBB", "BBRRRRBB", "BBBBRRRRRRRRBBBB",
        "RRRRBBBBBBBBRRRRBBBBRRRRRRRRBBBB",
    ]))
    def test_colorings_pinned(self, dim, text):
        # the bits the iterated product construction gave
        assert bc.color_hypercube(dim)[1].to_text() == text


class TestPrismColorings:
    def test_odd_is_empty(self):
        assert bc.prism_colorings(5) == []

    def test_mod4_counts(self):
        assert len(bc.prism_colorings(6)) == 2
        assert len(bc.prism_colorings(8)) == 6

    def test_complete_against_enumeration(self):
        for n in (4, 6, 8, 10):
            expect = {c.to_text() for c in bc.enumerate_colorings(bc.prism(n), "cnb").colorings}
            got = {c.to_text() for c in bc.prism_colorings(n)}
            assert got == expect

    def test_brute_force_small(self):
        got = {c.bits for c in bc.prism_colorings(4)}
        assert got == set(brute_force_masks(bc.prism(4), "cnb"))


class TestSmallAnchors:
    def test_single_edge_is_smallest_closed_balanced_graph(self):
        # no graph on fewer vertices admits a closed-balanced coloring, and
        # on two vertices only the edge does
        for n in (0, 1, 2):
            for g in bc.all_labeled_graphs(n):
                sat = bc.solve(g, "cnb").status == "sat"
                assert sat == (g == bc.complete(2) or g.n == 0)

    def test_edgeless_pair_is_smallest_balanced_open_witness(self):
        # among orders 1 and 2, only the edgeless pair carries an
        # open-balanced coloring with equal color classes
        found = []
        for n in (1, 2):
            for g in bc.all_labeled_graphs(n):
                for mask in range(1 << n):
                    c = Coloring(n, mask)
                    if c.red_count == c.blue_count and bc.verify_nb(g, c):
                        found.append((g, mask))
        assert {g for g, _ in found} == {bc.empty_graph(2)}

    def test_wheel_closed_iff_rim_three(self):
        for n in range(3, 10):
            verdict = bc.characterize_family("wheel", (n,), "cnb")
            status = bc.solve(bc.wheel(n), "cnb").status
            assert (verdict.value == "yes") == (status == "sat") == (n == 3)

    def test_join_of_h6_with_edge_is_not_closed_balanced(self, h6):
        # two closed-balanced graphs whose join is not
        assert bc.solve(bc.complete(2), "cnb").status == "sat"
        assert bc.solve(h6, "cnb").status == "sat"
        assert bc.solve(bc.join(bc.complete(2), h6), "cnb").status == "unsat"

    def test_lexicographic_k2_h6_is_the_double_join_and_uncolorable(self, h6):
        prod = bc.lexicographic(bc.complete(2), h6)
        assert prod == bc.join(h6, h6)
        assert bc.solve(prod, "cnb").status == "unsat"

    def test_h7_complement_not_closed_balanced(self, h7):
        # open-balanced with a 4/3 split, but its complement has no
        # closed-balanced coloring (everything keeps even degree)
        assert bc.solve(h7, "nb").status == "sat"
        comp = bc.complement(h7)
        assert all(d % 2 == 0 for d in comp.degrees())
        assert bc.solve(comp, "cnb").status == "unsat"

    def test_cubic_figure_pair(self):
        # both cubic circulants of order 12 from the worked instances
        for d in (1, 5):
            v = bc.characterize_cubic_circulant(12, d)
            assert v.value == "yes"
            assert v.witness.to_text() == "BRBRBRBRBRBR"

    def test_two_cycle_circulant_open_balanced(self):
        # lengths {2} on eight vertices split into two 4-cycles
        spec = CirculantSpec(8, (2,))
        col = bc.color_circulant(spec, "nb")
        assert col is not None
        assert bc.verify_nb(spec.build(), col)
        t, reduced = bc.circulant_reduce(spec)
        assert (t, reduced.n, reduced.lengths) == (2, 4, (1,))


class TestCirculantCharacterize:
    def test_verdicts_agree_with_solver_exhaustive_small(self):
        for n in range(2, 15):
            half = n // 2
            for mask in range(1, 1 << half):
                lengths = tuple(d + 1 for d in range(half) if (mask >> d) & 1)
                spec = CirculantSpec(n, lengths)
                g = spec.build()
                for mode in ("cnb", "nb"):
                    verdict = bc.characterize_circulant(spec, mode)
                    status = bc.solve(g, mode).status
                    if verdict.value == "yes":
                        assert status == "sat", (n, lengths, mode)
                        assert verdict.witness is not None
                        assert bc.verify(g, verdict.witness, mode)
                    elif verdict.value == "no":
                        assert status == "unsat", (n, lengths, mode)

    def test_verdicts_agree_with_solver_sampled_to_24(self):
        # exhaustive up to order 14 above; seeded samples cover 15..24,
        # where the full subset lattice is too big for every-commit testing.
        # yes verdicts carry verified witnesses, so the solver only has to
        # confirm the no side
        rng = random.Random(2468)
        timeouts = 0
        for n in range(15, 25):
            half = n // 2
            pool = list(range(1, half + 1))
            for _ in range(40):
                lengths = tuple(sorted(rng.sample(pool, rng.randrange(1, half + 1))))
                spec = CirculantSpec(n, lengths)
                g = spec.build()
                for mode in ("cnb", "nb"):
                    verdict = bc.characterize_circulant(spec, mode)
                    if verdict.value == "yes":
                        assert verdict.witness is not None
                        assert bc.verify(g, verdict.witness, mode), (n, lengths, mode)
                    elif verdict.value == "no":
                        out = bc.solve(g, mode, bc.Budget(max_millis=5_000))
                        if out.status == "timeout":
                            timeouts += 1
                            continue
                        assert out.status == "unsat", (n, lengths, mode)
        assert timeouts <= 5

    def test_family_verdict_wrappers(self):
        assert bc.characterize_family("wheel", (3,), "cnb").value == "yes"
        assert bc.characterize_family("wheel", (5,), "cnb").value == "no"
        assert bc.characterize_family("complete-bipartite", (1, 1), "cnb").value == "yes"
        assert bc.characterize_family("complete-bipartite", (2, 2), "cnb").value == "no"
        assert bc.characterize_family("complete", (6,), "cnb").value == "yes"
        assert bc.characterize_family("complete", (5,), "cnb").value == "no"
        for n in range(3, 13):
            v = bc.characterize_family("cycle", (n,), "nb")
            assert (v.value == "yes") == (n % 4 == 0)
        assert bc.characterize_family("hypercube", (3,), "cnb").value == "yes"
        assert bc.characterize_family("hypercube", (4,), "cnb").value == "no"
        assert bc.characterize_family("prism", (6,), "cnb").value == "yes"
        assert bc.characterize_family("prism", (5,), "cnb").value == "no"
        assert bc.characterize_family("gp", (8, 3), "cnb").value == "yes"
        assert bc.characterize_family("star", (3,), "cnb").theorem == "leaf-bound"

    def test_family_verdict_witnesses_verify(self):
        cases = [
            ("wheel", (3,), "cnb"), ("complete", (8,), "cnb"),
            ("cycle", (8,), "nb"), ("hypercube", (5,), "cnb"),
            ("hypercube", (4,), "nb"), ("prism", (8,), "cnb"),
            ("gp", (10, 3), "cnb"), ("circulant", (12, (1, 5, 6)), "cnb"),
            ("empty", (4,), "nb"),
        ]
        for kind, params, mode in cases:
            v = bc.characterize_family(kind, params, mode)
            assert v.value == "yes"
            g = bc.build_family(kind, *params)
            assert bc.verify(g, v.witness, mode)


def _family_sweep():
    for n in range(11):
        yield "empty", (n,)
        yield "complete", (n,)
    for n in range(1, 11):
        yield "path", (n,)
    for kind in ("cycle", "wheel", "prism"):
        for n in range(3, 13):
            yield kind, (n,)
    for n in range(3, 14):
        yield "circulant", (n, tuple(range(1, n // 2 + 1)))  # complete
    for m in range(9):
        yield "star", (m,)
    for m in range(7):
        for n in range(7):
            yield "complete-bipartite", (m, n)
    for dim in range(5):
        yield "hypercube", (dim,)
    for kind in ("gp", "gen-petersen"):
        for n in range(3, 11):
            for d in range(1, (n - 1) // 2 + 1):
                yield kind, (n, d)


class TestFamilyPipeline:
    @pytest.mark.parametrize("kind, params, mode", [
        ("cycle", (1,), "cnb"), ("gp", (4, 5), "nb"), ("prism", (2,), "nb"),
        ("hypercube", (-1,), "nb"), ("wheel", (1,), "nb"), ("path", (0,), "cnb"),
        ("complete-bipartite", (-1, 3), "nb"), ("empty", (-1,), "cnb"),
        ("nonesuch", (3,), "cnb"), ("cycle", (3, 4), "nb"), ("hypercube", (31,), "cnb"),
    ])
    def test_members_that_do_not_exist_raise(self, kind, params, mode):
        # exactly what build_family refuses; hypercube 31 is refused by its
        # order before any row is allocated
        with pytest.raises(bc.FamilyParameterError):
            bc.characterize_family(kind, params, mode)

    @pytest.mark.parametrize("call", [
        lambda: bc.color_hypercube(18),
        lambda: bc.characterize_gp(1 << 17, 1),
        lambda: bc.color_gp(1 << 17, 1),
        lambda: bc.prism_colorings(1 << 17),
        lambda: bc.circulant_constructions(CirculantSpec(1 << 18, (1,)), "nb"),
    ])
    def test_entry_points_refuse_oversized_members(self, call):
        # each member has 2^18 vertices and is refused before its rows exist
        with pytest.raises(bc.FamilyParameterError, match="262144"):
            call()

    def test_circulant_no_past_the_bound_needs_no_member(self):
        verdict = bc.characterize_circulant(CirculantSpec(1 << 18, (1,)), "cnb")
        assert (verdict.value, verdict.theorem) == ("no", "degree-parity")

    def test_generic_certificates_answer_first(self):
        for kind, params in _family_sweep():
            g = bc.build_family(kind, *params)
            for mode in ("cnb", "nb"):
                verdict = bc.characterize_family(kind, params, mode)
                leaves = mode == "cnb" and leaf_overload(g, g.degrees())
                if leaves:
                    assert (verdict.value, verdict.theorem) == ("no", "leaf-bound")
                    assert verdict.reason == leaves
                elif bc.prefilter_reason(g, mode):
                    assert (verdict.value, verdict.theorem) == ("no", "degree-parity")
                else:
                    assert verdict.theorem not in ("leaf-bound", "degree-parity")


class TestFamilyVerdicts:
    def test_every_family_verdict_agrees_with_solver(self):
        checked = 0
        for kind, params in _family_sweep():
            g = bc.build_family(kind, *params)
            for mode in ("cnb", "nb"):
                verdict = bc.characterize_family(kind, params, mode)
                status = bc.solve(g, mode).status
                case = (kind, params, mode, verdict.theorem)
                if verdict.value == "yes":
                    assert status == "sat", case
                    assert verdict.witness is not None, case
                    assert bc.verify(g, verdict.witness, mode), case
                elif verdict.value == "no":
                    assert status == "unsat", case
                    assert verdict.witness is None, case
                checked += 1
        assert checked == 352

    def test_odd_complete_circulant_nb_is_2adic_no(self):
        # an odd order has a = 0: the one residue class mod 1 is every
        # vertex, an odd number of them, so no coloring sums to 0 on it
        for n in range(3, 14, 2):
            spec = bc.CirculantSpec(n, tuple(range(1, n // 2 + 1)))
            verdict = bc.characterize_circulant(spec, "nb")
            assert (verdict.value, verdict.theorem) == ("no", "circulant-2adic")
            assert f"mod 2^a = 1, and each class has an odd number {n} of" in verdict.reason

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: bc.characterize_family("cycle", (8.5,), "nb"), id="family-cycle"),
        pytest.param(lambda: bc.characterize_family("star", (True,), "cnb"), id="family-star"),
        pytest.param(lambda: bc.characterize_family("circulant", (12.7, (1, 6)), "cnb"),
                     id="family-circulant-order"),
        pytest.param(lambda: bc.characterize_family("circulant", (12, (1, "6")), "cnb"),
                     id="family-circulant-length"),
        pytest.param(lambda: bc.characterize_circulant(CirculantSpec(12.5, (1, 6)), "cnb"),
                     id="circulant-order"),
        pytest.param(lambda: bc.characterize_circulant(CirculantSpec(12, (1, 6.0)), "nb"),
                     id="circulant-length"),
        pytest.param(lambda: bc.characterize_quintic_circulant(16.0, 1, 3), id="quintic"),
        pytest.param(lambda: bc.characterize_quintic_circulant(16, "1", 3),
                     id="quintic-length"),
        pytest.param(lambda: bc.characterize_cubic_circulant("12", 1), id="cubic-order"),
        pytest.param(lambda: bc.characterize_cubic_circulant(12, None), id="cubic-length"),
        pytest.param(lambda: bc.characterize_gp(8, 3.0), id="gp"),
        pytest.param(lambda: bc.prism_colorings(8.0), id="prism"),
    ])
    def test_non_integer_parameters_are_refused(self, call):
        # int() would coerce these into another member than the one judged
        with pytest.raises(bc.FamilyParameterError, match="must be an integer"):
            call()
