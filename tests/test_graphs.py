"""Graph construction, operators, and metrics."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balanced_coloring as bc
from balanced_coloring import Coloring, Graph

from conftest import random_graph, ref_family_graph


@st.composite
def graphs_st(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1)) if pairs else 0
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return Graph.from_edges(n, edges)


class TestGraphType:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(1, (0b1,))

    def test_rejects_stray_bits(self):
        with pytest.raises(ValueError, match="beyond"):
            Graph(2, (0b100, 0b000))

    def test_from_edges_range_check(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_basic_accessors(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.degrees() == (1, 2, 1)
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)
        assert list(g.neighbors(1)) == [0, 2]
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.closed_row(0) == 0b011


class TestFamilies:
    def test_complete(self):
        k4 = bc.complete(4)
        assert k4.edge_count == 6
        assert all(d == 3 for d in k4.degrees())

    def test_cycle_path_star_wheel(self):
        assert bc.cycle(5).edge_count == 5
        assert bc.path(5).edge_count == 4
        assert bc.star(4).degrees() == (4, 1, 1, 1, 1)
        w3 = bc.wheel(3)
        assert w3 == bc.complete(4)

    def test_complete_bipartite(self):
        g = bc.complete_bipartite(2, 3)
        assert g.edge_count == 6
        assert g.degrees() == (3, 3, 2, 2, 2)

    def test_circulant_regularity(self):
        # degree 2|S|, minus one when the half length is present
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(3, 20)
            pool = list(range(1, n // 2 + 1))
            k = rng.randrange(1, len(pool) + 1)
            lengths = tuple(sorted(rng.sample(pool, k)))
            spec = bc.CirculantSpec(n, lengths)
            g = bc.circulant(n, lengths)
            want = 2 * len(lengths) - (1 if (n % 2 == 0 and n // 2 in lengths) else 0)
            assert all(d == want for d in g.degrees())
            assert spec.degree == want  # derived quantity matches the build

    def test_circulant_fig_instance(self):
        g = bc.circulant(12, (1, 5, 6))
        assert g.n == 12
        assert all(d == 5 for d in g.degrees())

    def test_circulant_rejects_bad_lengths(self):
        with pytest.raises(bc.FamilyParameterError):
            bc.circulant(8, (5,))
        with pytest.raises(bc.FamilyParameterError):
            bc.circulant(8, ())

    def test_gen_petersen_matches_definitional_edge_list(self):
        # independent reconstruction straight from the definition
        n, d = 8, 3
        expect = set()
        for i in range(n):
            expect.add(frozenset((i, (i + 1) % n)))
            expect.add(frozenset((i, n + i)))
            expect.add(frozenset((n + i, n + (i + d) % n)))
        g = bc.gen_petersen(n, d)
        assert {frozenset(e) for e in g.edges()} == expect
        assert g.n == 16 and all(deg == 3 for deg in g.degrees())

    def test_gen_petersen_param_domain(self):
        with pytest.raises(bc.FamilyParameterError):
            bc.gen_petersen(8, 4)
        bc.gen_petersen(8, 3)

    def test_hypercube(self):
        assert bc.hypercube(1) == bc.complete(2)
        q3 = bc.hypercube(3)
        assert q3.n == 8 and q3.edge_count == 12
        for u, v in q3.edges():
            assert bin(u ^ v).count("1") == 1

    def test_prism_is_two_cycles_plus_matching(self):
        y5 = bc.prism(5)
        assert y5.n == 10 and y5.edge_count == 15
        for i in range(5):
            assert y5.has_edge(i, 5 + i)
            assert y5.has_edge(i, (i + 1) % 5)
            assert y5.has_edge(5 + i, 5 + (i + 1) % 5)

    def test_build_family_dispatch(self):
        assert bc.build_family("gp", 8, 3) == bc.gen_petersen(8, 3)
        assert bc.build_family("circulant", 12, (1, 6)) == bc.circulant(12, (1, 6))
        with pytest.raises(bc.FamilyParameterError):
            bc.build_family("nonesuch", 3)
        with pytest.raises(bc.FamilyParameterError):
            bc.build_family("cycle", 3, 4)

    @pytest.mark.parametrize("kind, params", [
        ("empty", (1 << 18,)), ("complete", (1 << 18,)), ("path", (1 << 18,)),
        ("cycle", (1 << 18,)), ("star", ((1 << 18) - 1,)), ("wheel", ((1 << 18) - 1,)),
        ("complete-bipartite", (1 << 17, 1 << 17)), ("circulant", (1 << 18, (1,))),
        ("gp", (1 << 17, 1)), ("hypercube", (18,)), ("hypercube", (10 ** 9,)),
        ("prism", (1 << 17,)),
    ])
    def test_build_family_refuses_graph6_sized_members(self, kind, params):
        # each would have 2^18 vertices or more; none may be allocated
        with pytest.raises(bc.FamilyParameterError, match="262144"):
            bc.build_family(kind, *params)

    @pytest.mark.parametrize("kind, params", [
        ("cycle", (8.5,)), ("cycle", ("8",)), ("cycle", (8.0,)), ("star", (2.9,)),
        ("path", (True,)), ("complete-bipartite", (2, 2.0)), ("gp", (8, "3")),
        ("hypercube", (3.0,)), ("prism", (False,)), ("circulant", (12.7, (1, 6))),
        ("circulant", (12, (1.0, 6))), ("circulant", (12, ("1", True))),
        ("circulant", (12, "16")),
    ])
    def test_build_family_refuses_non_integers(self, kind, params):
        # int() would build another member than the one asked for
        with pytest.raises(bc.FamilyParameterError, match="must be an integer"):
            bc.build_family(kind, *params)

    @pytest.mark.parametrize("make", [bc.CirculantSpec, bc.circulant])
    @pytest.mark.parametrize("n, lengths", [
        (12.5, (1, 6)), ("12", (1, 6)), (True, (1,)), (12, ("1", True)), (12, (1, 6.0)),
        (12, (True,)),
    ])
    def test_circulant_refuses_non_integers(self, make, n, lengths):
        with pytest.raises(bc.FamilyParameterError, match="must be an integer"):
            make(n, lengths)

    def test_circulant_lengths_may_be_any_iterable(self):
        spec = bc.CirculantSpec(12, iter([6, 1, 1]))
        assert spec.lengths == (1, 6)


class TestBuildersAgainstDefinitions:
    """The row builders (rotations of row 0, hypercube doubling, two
    rotated cycles plus a matching) against each family's edge list."""

    def test_every_small_circulant(self):
        count = 0
        for n in range(2, 25):
            pool = range(1, n // 2 + 1)
            for k in range(1, len(pool) + 1):
                for lengths in combinations(pool, k):
                    want = ref_family_graph("circulant", (n, lengths))
                    assert bc.circulant(n, lengths) == want
                    count += 1
        assert count == sum((1 << n // 2) - 1 for n in range(2, 25))

    @pytest.mark.parametrize("n", [40, 64, 128, 256])
    def test_seeded_circulants(self, n):
        rng = random.Random(n)
        pool = range(1, n // 2 + 1)
        for _ in range(200):
            lengths = rng.sample(pool, rng.randrange(1, len(pool) + 1))
            assert bc.circulant(n, lengths) == ref_family_graph("circulant", (n, lengths))

    def test_gen_petersen(self):
        for n in range(3, 41):
            for d in range(1, (n - 1) // 2 + 1):
                assert bc.gen_petersen(n, d) == ref_family_graph("gp", (n, d))

    @pytest.mark.parametrize("kind, make", [
        ("cycle", bc.cycle), ("prism", bc.prism), ("wheel", bc.wheel),
    ])
    def test_rotated_cycles(self, kind, make):
        for n in range(3, 65):
            assert make(n) == ref_family_graph(kind, (n,))

    def test_prism_is_cartesian_k2_cycle(self):
        for n in range(3, 65):
            assert bc.prism(n) == bc.cartesian(bc.complete(2), bc.cycle(n))

    def test_hypercube_doubles(self):
        for dim in range(13):
            q = bc.hypercube(dim)
            assert q == ref_family_graph("hypercube", (dim,))
            if dim:
                assert q == bc.cartesian(bc.complete(2), bc.hypercube(dim - 1))


class TestOperators:
    @given(graphs_st())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        assert bc.complement(bc.complement(g)) == g

    def test_complement_examples(self):
        assert bc.complement(bc.complete(4)) == bc.empty_graph(4)
        assert bc.complement(bc.circulant(12, (1, 5, 6))) == bc.circulant(12, (2, 3, 4))

    def test_union_counts(self):
        g = bc.disjoint_union(bc.complete(1), bc.complete(1))
        assert g == bc.empty_graph(2)
        u = bc.disjoint_union(bc.cycle(4), bc.cycle(4))
        assert u.n == 8 and u.edge_count == 8
        assert bc.circulant(8, (2,)) == bc.Graph.from_edges(
            8, [(0, 2), (2, 4), (4, 6), (6, 0), (1, 3), (3, 5), (5, 7), (7, 1)]
        )

    @given(graphs_st(max_n=6), graphs_st(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_join_counts_and_complement_identity(self, g, h):
        j = bc.join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n
        assert bc.complement(j) == bc.disjoint_union(bc.complement(g), bc.complement(h))

    def test_join_wheel_and_h6_figure(self):
        assert bc.join(bc.complete(1), bc.cycle(5)) == bc.wheel(5)
        h6 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (2, 5)])
        assert bc.join(bc.complete(2), h6).edge_count == 1 + 5 + 12

    def test_product_small_identities(self):
        k2 = bc.complete(2)
        assert bc.cartesian(k2, k2) == bc.Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert bc.strong(k2, k2) == bc.complete(4)
        assert bc.lexicographic(k2, bc.empty_graph(2)) == bc.complete_bipartite(2, 2)

    @given(graphs_st(max_n=5), graphs_st(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_products_match_definitions(self, g, h):
        # brute-force each adjacency predicate over all vertex pairs
        defs = {
            "cartesian": lambda a, b, c, d: (a == c and h.has_edge(b, d))
            or (b == d and g.has_edge(a, c)),
            "strong": lambda a, b, c, d: (a == c and h.has_edge(b, d))
            or (b == d and g.has_edge(a, c))
            or (g.has_edge(a, c) and h.has_edge(b, d)),
            "lexicographic": lambda a, b, c, d: g.has_edge(a, c)
            or (a == c and h.has_edge(b, d)),
            "direct": lambda a, b, c, d: g.has_edge(a, c) and h.has_edge(b, d),
        }
        for kind, pred in defs.items():
            prod = bc.product(kind, g, h)
            assert prod.n == g.n * h.n
            for a in range(g.n):
                for b in range(h.n):
                    for c in range(g.n):
                        for d in range(h.n):
                            assert prod.has_edge(a * h.n + b, c * h.n + d) == pred(
                                a, b, c, d
                            )

    def test_cartesian_degree_additivity(self):
        rng = random.Random(3)
        g = random_graph(rng, 6)
        h = random_graph(rng, 5)
        prod = bc.cartesian(g, h)
        for a in range(g.n):
            for b in range(h.n):
                assert prod.degree(a * h.n + b) == g.degree(a) + h.degree(b)

    def test_strong_degree_formula(self):
        rng = random.Random(4)
        g = random_graph(rng, 5)
        h = random_graph(rng, 5)
        prod = bc.strong(g, h)
        for a in range(g.n):
            for b in range(h.n):
                assert prod.degree(a * h.n + b) == (g.degree(a) + 1) * (h.degree(b) + 1) - 1


class TestMetrics:
    def test_h6_metrics(self, h6):
        m = bc.metrics(h6)
        assert m.max_degree == 3
        assert m.diameter == 3
        assert m.is_tree

    def test_degenerate_and_path(self):
        assert bc.metrics(bc.complete(1)).diameter == 0
        assert bc.metrics(bc.complete(1)).max_degree == 0
        assert bc.metrics(bc.path(5)).diameter == 4

    def test_disconnected_diameter_is_inf(self):
        g = bc.disjoint_union(bc.complete(2), bc.complete(2))
        m = bc.metrics(g)
        assert m.diameter == math.inf
        assert not m.is_connected
        assert m.components == ((0, 1), (2, 3))

    def test_is_tree(self):
        assert bc.is_tree(bc.path(7))
        assert not bc.is_tree(bc.cycle(4))
        assert not bc.is_tree(bc.disjoint_union(bc.path(2), bc.path(2)))
        assert not bc.is_tree(bc.empty_graph(0))


def test_all_labeled_graphs_count():
    assert sum(1 for _ in bc.all_labeled_graphs(4)) == 2 ** 6
    assert sum(1 for _ in bc.all_labeled_graphs(0)) == 1


class TestTrustedBuilders:
    """Builders, operators and tree generators skip Graph's validation, so
    their rows must pass it unchanged; outside input is still checked."""

    @staticmethod
    def _revalidate(graphs):
        count = 0
        for g in graphs:
            assert Graph(g.n, g.adj) == g
            count += 1
        return count

    def test_families(self):
        def members():
            for n in range(9):
                yield bc.empty_graph(n)
                yield bc.complete(n)
                yield bc.star(n)
            for n in range(1, 9):
                yield bc.path(n)
            for n in range(3, 9):
                yield bc.cycle(n)
                yield bc.wheel(n)
                yield bc.prism(n)
                for d in range(1, (n - 1) // 2 + 1):
                    yield bc.gen_petersen(n, d)
            for m in range(5):
                for n in range(5):
                    yield bc.complete_bipartite(m, n)
            for n in range(1, 11):
                for mask in range(1, 1 << (n // 2)):
                    yield bc.circulant(n, [d + 1 for d in range(n // 2) if mask >> d & 1])
            for dim in range(6):
                yield bc.hypercube(dim)
            yield from bc.all_labeled_graphs(4)

        assert self._revalidate(members()) == 243

    def test_operators(self):
        rng = random.Random(11)
        pool = [bc.empty_graph(0), bc.complete(1)] + [
            random_graph(rng, rng.randrange(1, 6)) for _ in range(8)
        ]

        def results():
            for g in pool:
                yield bc.complement(g)
                for h in pool:
                    yield bc.join(g, h)
                    yield bc.disjoint_union(g, h)
                    for kind in ("cartesian", "strong", "lexicographic", "direct"):
                        yield bc.product(kind, g, h)

        assert self._revalidate(results()) == 10 + 6 * 100

    def test_tree_builders(self):
        def results():
            for n in range(2, 7):
                yield from bc.labeled_trees(n)  # every Prufer sequence
            g, c = bc.complete(2), Coloring(2, 1)
            for z in (0, 1, 2, 5, 3):
                g, c = bc.four_vertex_addition(g, c, z)
                yield g
                yield bc.replay(bc.decompose_cnbc_tree(g))[0]
            h, ch = bc.cycle(4), Coloring.from_text("RRBB")
            for _ in range(3):
                h, ch = bc.three_vertex_addition(h, ch, 0, 1, 2, 3)
                yield h

        assert self._revalidate(results()) == 1454

    def test_large_members(self):
        members = [
            bc.circulant(1024, (1, 5, 512)),
            bc.gen_petersen(500, 7),
            bc.prism(500),
            bc.hypercube(11),
        ]
        assert self._revalidate(members) == 4

    @pytest.mark.parametrize("make, message", [
        (lambda: bc.cycle(2), "cycle needs at least three vertices"),
        (lambda: bc.gen_petersen(8, 4), "inner step must lie in 1..3"),
        (lambda: bc.hypercube(-1), "dimension must be non-negative"),
        (lambda: bc.circulant(8, (5,)), "connection lengths must lie in 1..4"),
        # a builder's TypeError, wrapped by build_family
        (lambda: bc.build_family("circulant", 12, 5),
         "bad parameters for 'circulant': 'int' object is not iterable"),
    ], ids=["cycle", "gp", "hypercube", "circulant", "build-family-wrapped"])
    def test_domain_errors(self, make, message):
        with pytest.raises(bc.FamilyParameterError) as info:
            make()
        assert type(info.value) is bc.FamilyParameterError
        assert str(info.value) == message

    def test_outside_input_is_still_checked(self):
        with pytest.raises(ValueError, match="non-negative"):
            Graph.from_edges(-1, [])
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(3, (0b010, 0b000, 0b000))
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, (0b10, 0b00))
