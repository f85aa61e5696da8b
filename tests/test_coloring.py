"""Verification, balance reports, counting identities, forced constraints."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balanced_coloring as bc
from balanced_coloring import Coloring, Graph

from conftest import (
    brute_force_masks,
    outcome,
    random_graph,
    ref_balanced,
    ref_check_identities,
    ref_report,
)


@st.composite
def graph_and_coloring(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    emask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    edges = [pairs[i] for i in range(len(pairs)) if (emask >> i) & 1]
    cmask = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) if n else 0
    return Graph.from_edges(n, edges), Coloring(n, cmask)


class TestColoringType:
    def test_text_round_trip(self):
        c = Coloring.from_text("RBRB")
        assert c.to_text() == "RBRB"
        assert c.red_count == 2 and c.blue_count == 2
        assert c.is_red(0) and not c.is_red(1)
        assert c.red_vertices() == (0, 2)

    def test_rejects_bad_chars_and_bits(self):
        with pytest.raises(ValueError):
            Coloring.from_text("RBX")
        with pytest.raises(ValueError):
            Coloring(2, 0b100)
        with pytest.raises(ValueError):
            Coloring.from_red(2, [2])

    def test_flip(self):
        assert Coloring.from_text("RBB").flip().to_text() == "BRR"


class TestVerify:
    def test_k2_examples(self):
        k2 = bc.complete(2)
        assert bc.verify_cnb(k2, Coloring.from_text("RB"))
        assert not bc.verify_cnb(k2, Coloring.from_text("RR"))
        assert bc.residuals(k2, Coloring.from_text("RR"), "cnb") == (2, 2)

    def test_h6_canonical_coloring(self, h6):
        # z2, x, w1, w2 one color; z1, v the other
        assert bc.verify_cnb(h6, Coloring.from_text("BRBRRR"))
        assert bc.first_unbalanced(h6, Coloring.from_text("RRBRRR"), "cnb") == 0

    def test_nb_examples(self):
        assert bc.verify_nb(bc.empty_graph(2), Coloring.from_text("RR"))
        assert bc.verify_nb(bc.cycle(4), Coloring.from_text("RRBB"))
        # no coloring of the triangle balances open neighborhoods
        assert brute_force_masks(bc.cycle(3), "nb") == []
        for mask in range(8):
            assert not bc.verify_nb(bc.cycle(3), Coloring(3, mask))

    def test_size_mismatch(self):
        with pytest.raises(bc.SizeMismatchError):
            bc.verify_cnb(bc.complete(2), Coloring.from_text("RBB"))

    @given(graph_and_coloring())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_oracle(self, gc):
        g, c = gc
        assert bc.verify_cnb(g, c) == ref_balanced(g, c.bits, "cnb")
        assert bc.verify_nb(g, c) == ref_balanced(g, c.bits, "nb")

    @given(graph_and_coloring())
    @settings(max_examples=80, deadline=None)
    def test_color_swap_symmetry(self, gc):
        g, c = gc
        assert bc.verify_cnb(g, c) == bc.verify_cnb(g, c.flip())
        assert bc.verify_nb(g, c) == bc.verify_nb(g, c.flip())

    def test_valid_cnb_forces_odd_degrees_and_even_order(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(300):
            g = random_graph(rng, rng.randrange(1, 8))
            for mask in brute_force_masks(g, "cnb"):
                seen += 1
                assert g.n % 2 == 0
                assert all(d % 2 == 1 for d in g.degrees())
        assert seen  # the sweep saw at least one valid coloring

    def test_componentwise_equivalence(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, 4, 0.6)
            h = random_graph(rng, 4, 0.6)
            u = bc.disjoint_union(g, h)
            for mask in range(1 << 8):
                c = Coloring(8, mask)
                split = bc.verify_cnb(g, Coloring(4, mask & 0b1111)) and bc.verify_cnb(
                    h, Coloring(4, mask >> 4)
                )
                assert bc.verify_cnb(u, c) == split


class TestReport:
    def test_k2(self):
        rep = bc.report(bc.complete(2), Coloring.from_text("RB"))
        assert (rep.rr, rep.bb, rep.rb) == (0, 0, 1)
        assert rep.red_count == rep.blue_count == 1

    def test_h6_split(self, h6):
        rep = bc.report(h6, Coloring.from_text("BRBRRR"))
        assert {rep.red_count, rep.blue_count} == {2, 4}

    def test_cubic_counts(self):
        g = bc.gen_petersen(8, 3)
        wit = bc.solve(g, "cnb").witness
        rep = bc.report(g, wit)
        assert rep.rb == g.n
        assert rep.rr == rep.bb == g.n // 4

    @given(graph_and_coloring())
    @settings(max_examples=120, deadline=None)
    def test_edge_partition_and_handshake(self, gc):
        # these hold for every coloring, valid or not
        g, c = gc
        rep = bc.report(g, c)
        assert rep.rr + rep.bb + rep.rb == g.edge_count
        assert rep.red_degree_sum == 2 * rep.rr + rep.rb
        assert rep.blue_degree_sum == 2 * rep.bb + rep.rb
        assert rep.red_count + rep.blue_count == g.n

    def test_as_dict_schema(self):
        d = bc.report(bc.complete(2), Coloring.from_text("RB")).as_dict()
        assert set(d) == {
            "red_count", "blue_count", "rr", "bb", "rb",
            "red_degree_sum", "blue_degree_sum",
            "closed_residuals", "open_residuals",
        }


class TestIdentities:
    def test_w3_degree_identity(self):
        # the wheel with rim three is K4; any half/half split works
        g = bc.wheel(3)
        c = Coloring.from_text("RRBB")
        entries = dict(bc.check_identities(g, c, "cnb", strict=True))
        assert entries["degree-identity"] is True
        rep = bc.report(g, c)
        assert rep.red_count + rep.red_degree_sum == 2 + 6
        assert rep.blue_count + rep.blue_degree_sum == 2 + 6

    def test_cubic_rb_count(self):
        g = bc.circulant(8, (1, 4))
        wit = bc.solve(g, "cnb").witness
        entries = dict(bc.check_identities(g, wit, "cnb", strict=True))
        assert entries["regular-edge-counts"] is True
        assert bc.report(g, wit).rb == 8

    def test_nb_degree_sums(self):
        g = bc.cycle(4)
        c = Coloring.from_text("RRBB")
        entries = dict(bc.check_identities(g, c, "nb", strict=True))
        assert entries["degree-sums-equal"] is True
        rep = bc.report(g, c)
        assert rep.red_degree_sum == rep.blue_degree_sum == 4

    def test_irregular_marks_na(self, h6):
        entries = dict(bc.check_identities(h6, Coloring.from_text("BRBRRR"), "cnb"))
        assert entries["regular-edge-counts"] is None
        assert entries["rr-eq-bb-when-balanced"] is None  # 4/2 split

    def test_rejects_invalid_coloring(self):
        with pytest.raises(bc.InvalidColoringError):
            bc.check_identities(bc.complete(2), Coloring.from_text("RR"), "cnb")

    def test_every_valid_coloring_passes_strict(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(250):
            g = random_graph(rng, rng.randrange(1, 8))
            for mode in ("cnb", "nb"):
                for mask in brute_force_masks(g, mode):
                    bc.check_identities(g, Coloring(g.n, mask), mode, strict=True)
                    checked += 1
        assert checked > 100


class TestOnePassAgainstReference:
    """``report`` and ``check_identities`` read each row once; the multi-pass
    ``ref_report`` and ``ref_check_identities`` in conftest must give equal
    results, and the same exception type and message when one is raised."""

    def check(self, g: Graph, c: Coloring) -> None:
        assert outcome(bc.report, g, c) == outcome(ref_report, g, c)
        for mode in ("cnb", "nb"):
            for strict in (False, True):
                assert outcome(bc.check_identities, g, c, mode, strict) == outcome(
                    ref_check_identities, g, c, mode, strict
                )
            assert bc.report(g, c).first_violation(mode) == bc.first_unbalanced(g, c, mode)

    @pytest.mark.parametrize("n", range(6))
    def test_every_coloring_of_every_graph(self, n):
        valid = 0
        for g in bc.all_labeled_graphs(n):
            for mask in range(1 << n):
                self.check(g, Coloring(n, mask))
            valid += len(brute_force_masks(g, "cnb")) + len(brute_force_masks(g, "nb"))
        assert n < 2 or valid > 0

    def test_seeded_graphs_to_order_64(self):
        rng = random.Random(6464)
        for n in range(65):
            for p in (0.1, 0.5, 0.9):
                g = random_graph(rng, n, p)
                self.check(g, Coloring(n, rng.getrandbits(n)))

    def test_family_witnesses_to_order_64(self):
        # valid colorings of regular and irregular members, so the identity
        # checks run past the validity test
        members = [
            ("hypercube", (d,)) for d in range(7)
        ] + [("cycle", (n,)) for n in range(3, 65)] + [
            ("gp", (n, k)) for n in range(3, 33) for k in range(1, (n + 1) // 2)
        ] + [("circulant", (n, (1, n // 2))) for n in range(4, 65, 2)] + [
            ("complete-bipartite", (m, n)) for m in range(5) for n in range(5)
        ] + [("wheel", (3,)), ("empty", (6,)), ("complete", (8,))]
        witnessed = 0
        for kind, params in members:
            g = bc.build_family(kind, *params)
            for mode in ("cnb", "nb"):
                try:
                    witness = bc.characterize_family(kind, params, mode).witness
                except bc.FamilyParameterError:
                    continue
                if witness is not None:
                    self.check(g, witness)
                    witnessed += 1
        assert witnessed > 100

    def test_h6_and_irregular_colorings(self, h6):
        for mask in range(1 << h6.n):
            self.check(h6, Coloring(h6.n, mask))

    def test_which_check_fires_first(self):
        g = bc.cycle(4)
        bad = Coloring.from_text("RRRR")
        cases = [
            (g, Coloring(5, 0), "cnb"),  # size before mode
            (g, Coloring(5, 0), "xyz"),
            (g, bad, "xyz"),  # mode before balance
            (g, bad, "nb"),
            (g, Coloring.from_text("RRBB"), "cnb"),  # cnb fails at vertex 0
        ]
        for graph, c, mode in cases:
            got = outcome(bc.check_identities, graph, c, mode, True)
            assert got == outcome(ref_check_identities, graph, c, mode, True)
            assert got[0] == "raised"
        assert outcome(bc.report, g, Coloring(5, 0)) == outcome(ref_report, g, Coloring(5, 0))


class TestLeafForce:
    def test_star_infeasible(self):
        fc = bc.leaf_force(bc.star(3), "cnb")
        assert fc.infeasible is not None

    def test_bipartite_twin_classes(self):
        fc = bc.leaf_force(bc.complete_bipartite(2, 3), "cnb")
        groups = {frozenset(p) for p in fc.same}
        assert frozenset((0, 1)) in groups  # left side shares a neighborhood
        assert fc.infeasible is None

    def test_p3_forced(self):
        fc = bc.leaf_force(bc.path(3), "cnb")
        assert set(fc.opposite) == {(0, 1), (2, 1)}
        assert (0, 2) in fc.same  # equal open neighborhoods
        # the center also violates the leaf bound (2 leaves > 3/2), which is
        # consistent: no balanced coloring of a path on three vertices exists
        assert fc.infeasible is not None

    def test_leaf_constraints_on_feasible_tree(self, h6):
        fc = bc.leaf_force(h6, "cnb")
        assert fc.infeasible is None
        assert set(fc.opposite) == {(1, 0), (3, 0), (4, 2), (5, 2)}
        assert {frozenset(p) for p in fc.same} == {frozenset((1, 3)), frozenset((4, 5))}

    def test_nb_uses_closed_twins(self):
        # in K4 every closed neighborhood is the whole set
        fc = bc.leaf_force(bc.complete(4), "nb")
        classes = set(fc.same)
        assert len(classes) == 3  # chain through one group of four
        assert fc.opposite == ()
