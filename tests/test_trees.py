"""Vertex additions, balanced-tree recognition, scripts, tree generation."""

import dataclasses
import json
import math
import pickle
import random

import networkx as nx
import pytest

import balanced_coloring as bc
from balanced_coloring import (
    AdditionStep, Budget, Coloring, Graph, TreeBuildScript, graphs, solver, trees,
)
from balanced_coloring.coloring import _certificates

from conftest import (
    H6_EDGES, H7_COLORING, H7_EDGES, brute_force_masks, grown_tree, low_x_star_tree,
    ref_decompose,
)


class TestFourVertexAddition:
    def test_k2_grows_into_h6(self):
        k2 = bc.complete(2)
        g, c = bc.four_vertex_addition(k2, Coloring.from_text("RB"), 0)
        assert g == Graph.from_edges(6, H6_EDGES)
        assert bc.verify_cnb(g, c)
        assert {c.red_count, c.blue_count} == {2, 4}

    def test_order_grows_by_four(self, h6):
        g, c = bc.four_vertex_addition(h6, Coloring.from_text("BRBRRR"), 3)
        assert g.n == 10
        assert bc.verify_cnb(g, c)

    def test_blue_anchored_growth_widens_imbalance(self):
        g, c = bc.complete(2), Coloring.from_text("RB")
        for k in range(1, 5):
            # anchor at a blue vertex each round: three new reds, one new blue
            blue = next(v for v in range(g.n) if not c.is_red(v))
            g, c = bc.four_vertex_addition(g, c, blue)
            assert bc.verify_cnb(g, c)
            assert c.red_count - c.blue_count == 2 * k

    def test_rejects_invalid_coloring(self):
        with pytest.raises(bc.InvalidColoringError):
            bc.four_vertex_addition(bc.complete(2), Coloring.from_text("RR"), 0)

    def test_rejects_bad_anchor(self):
        with pytest.raises(ValueError):
            bc.four_vertex_addition(bc.complete(2), Coloring.from_text("RB"), 5)


class TestThreeVertexAddition:
    def test_builds_h7(self):
        g0 = bc.empty_graph(4)
        c0 = Coloring.from_text("RRBB")
        g, c = bc.three_vertex_addition(g0, c0, 0, 1, 2, 3)
        assert g == Graph.from_edges(7, H7_EDGES)
        assert c.to_text() == H7_COLORING
        assert bc.verify_nb(g, c)
        assert (c.red_count, c.blue_count) == (4, 3)

    def test_repeated_additions_widen_imbalance(self):
        g, c = bc.empty_graph(4), Coloring.from_text("RRBB")
        base = 0
        for _ in range(3):
            # pick a fresh 2+2 anchor pattern from the original four vertices
            g, c = bc.three_vertex_addition(g, c, 0, 1, 2, 3)
            assert bc.verify_nb(g, c)
            assert c.red_count - c.blue_count == base + 1
            base += 1

    def test_order_grows_by_three(self):
        g, c = bc.three_vertex_addition(bc.empty_graph(4), Coloring.from_text("RRBB"), 0, 1, 2, 3)
        assert g.n == 7

    def test_rejects_color_pattern_violation(self):
        with pytest.raises(bc.ColorPatternError):
            bc.three_vertex_addition(bc.empty_graph(4), Coloring.from_text("RBRB"), 0, 1, 2, 3)
        with pytest.raises(bc.ColorPatternError):
            bc.three_vertex_addition(bc.empty_graph(4), Coloring.from_text("RRRR"), 0, 1, 2, 3)

    def test_rejects_invalid_input(self):
        c5 = bc.cycle(5)
        with pytest.raises(bc.InvalidColoringError):
            bc.three_vertex_addition(c5, Coloring.from_text("RRBBB"), 0, 1, 2, 3)


class TestDecompose:
    def test_h6_single_step(self, h6):
        script = bc.decompose_cnbc_tree(h6)
        assert script is not None
        assert len(script.steps) == 1
        g, c = bc.replay(script)
        assert g == h6
        assert bc.verify_cnb(g, c)

    def test_star_rejected_by_leaf_bound(self):
        assert bc.decompose_cnbc_tree(bc.star(5)) is None

    def test_p6_rejected_and_solver_agrees(self):
        p6 = bc.path(6)
        assert bc.decompose_cnbc_tree(p6) is None
        assert bc.solve(p6, "cnb").status == "unsat"

    def test_k2_is_base_case(self):
        script = bc.decompose_cnbc_tree(bc.complete(2))
        assert script is not None and script.steps == ()

    def test_wrong_order_rejected(self):
        assert bc.decompose_cnbc_tree(bc.path(4)) is None
        assert bc.decompose_cnbc_tree(bc.path(8)) is None

    def test_not_a_tree_raises(self):
        with pytest.raises(bc.NotATreeError):
            bc.decompose_cnbc_tree(bc.cycle(4))
        with pytest.raises(bc.NotATreeError):
            bc.decompose_cnbc_tree(bc.disjoint_union(bc.path(3), bc.path(3)))

    def test_agrees_with_solver_exhaustive_small(self):
        for n in (1, 2, 3, 4, 5, 6, 7):
            for t in bc.labeled_trees(n):
                got = bc.decompose_cnbc_tree(t)
                sat = bc.solve(t, "cnb").status == "sat"
                assert (got is not None) == sat

    def test_agrees_with_solver_random_large(self):
        rng = random.Random(2025)
        for n in (10, 13, 14, 18):
            for _ in range(500):
                t = bc.random_labeled_tree(n, rng)
                got = bc.decompose_cnbc_tree(t)
                sat = bc.solve(t, "cnb").status == "sat"
                assert (got is not None) == sat

    @staticmethod
    def _random_odd_degree_tree(n, rng):
        # Prufer sequences with even symbol multiplicities are exactly the
        # trees whose degrees are all odd, the only ones that survive the
        # solver's degree prefilter and exercise the peel for real
        verts = list(range(n))
        rng.shuffle(verts)
        seq = []
        remaining = n - 2
        i = 0
        while remaining > 0:
            c = 2 * rng.randint(1, remaining // 2)
            seq.extend([verts[i]] * c)
            remaining -= c
            i += 1
        rng.shuffle(seq)
        return bc.prufer_decode(seq)

    def test_agrees_with_solver_on_odd_degree_trees(self):
        rng = random.Random(424242)
        interesting = 0
        for n, count in ((10, 1500), (14, 700), (18, 300)):
            for _ in range(count):
                t = self._random_odd_degree_tree(n, rng)
                assert all(d % 2 == 1 for d in t.degrees())
                got = bc.decompose_cnbc_tree(t)
                sat = bc.solve(t, "cnb").status == "sat"
                assert (got is not None) == sat
                interesting += got is not None
        assert interesting > 50  # the sampler reaches genuine accept cases

    def test_accepted_trees_satisfy_bounds(self):
        rng = random.Random(8)
        found = 0
        # grow genuine balanced trees by replaying random scripts
        for _ in range(50):
            g, c = bc.complete(2), Coloring.from_text("RB")
            for _ in range(rng.randrange(1, 5)):
                g, c = bc.four_vertex_addition(g, c, rng.randrange(g.n))
            script = bc.decompose_cnbc_tree(g)
            assert script is not None
            m = bc.metrics(g)
            assert g.n % 4 == 2
            assert m.max_degree <= g.n // 2
            assert m.diameter <= g.n // 2
            found += 1
        assert found == 50

    def test_replay_of_decompose_reconstructs_exactly(self):
        rng = random.Random(9)
        for _ in range(40):
            g, c = bc.complete(2), Coloring.from_text("RB")
            for _ in range(rng.randrange(1, 5)):
                g, c = bc.four_vertex_addition(g, c, rng.randrange(g.n))
            script = bc.decompose_cnbc_tree(g)
            re_g, re_c = bc.replay(script)
            assert re_g == g
            assert sorted(re_g.degrees()) == sorted(g.degrees())
            assert bc.verify_cnb(re_g, re_c)
            assert bc.solve(g, "cnb").status == "sat"

    @staticmethod
    def _grown_tree(steps, seed):
        # 4-vertex additions at random anchors, then a random relabeling
        rng = random.Random(seed)
        g, c = bc.complete(2), Coloring.from_text("RB")
        for _ in range(steps):
            g, c = bc.four_vertex_addition(g, c, rng.randrange(g.n))
        label = list(range(g.n))
        rng.shuffle(label)
        return Graph.from_edges(g.n, [(label[u], label[v]) for u, v in g.edges()])

    @pytest.mark.parametrize("steps, seed, base, expect", [
        (2, 1, [0, 6], [(0, 7, 5, 2, 8), (5, 3, 9, 1, 4)]),
        (3, 2, [6, 7], [(7, 13, 0, 3, 12), (13, 8, 1, 4, 9), (12, 10, 11, 2, 5)]),
        (4, 3, [7, 8], [(8, 14, 0, 4, 17), (17, 10, 3, 12, 16), (16, 9, 6, 11, 15),
                        (16, 1, 2, 5, 13)]),
        (8, 4, [0, 33], [(0, 30, 16, 7, 32), (33, 13, 27, 6, 20), (27, 21, 28, 10, 12),
                         (28, 26, 15, 23, 25), (12, 3, 5, 8, 11), (26, 22, 19, 2, 18),
                         (26, 17, 14, 1, 4), (23, 24, 31, 9, 29)]),
        (12, 5, [13, 17], [(17, 12, 0, 20, 26), (20, 3, 1, 21, 37), (1, 49, 5, 39, 43),
                           (37, 16, 32, 42, 48), (37, 7, 31, 2, 40), (31, 24, 15, 23, 30),
                           (39, 45, 33, 8, 28), (16, 47, 36, 6, 34), (48, 14, 18, 22, 29),
                           (14, 44, 19, 27, 41), (18, 4, 10, 11, 46), (22, 38, 25, 9, 35)]),
    ])
    def test_script_is_pinned(self, steps, seed, base, expect):
        # `tree decompose` output must repeat across versions, so the peel
        # order (which longest path, which leaf) is part of the contract
        script = bc.decompose_cnbc_tree(self._grown_tree(steps, seed))
        assert script.as_dict() == {
            "base": base,
            "steps": [dict(zip(("z", "v", "x", "w1", "w2"), s)) for s in expect],
        }

    def test_longest_path_against_networkx(self):
        # each peel step starts from the lowest vertex at maximum distance
        # from the lowest live vertex, which ends a longest path of the live
        # tree, also where the step reads BFS layers kept from earlier steps
        rng = random.Random(60)
        cases = [grown_tree(rng.randint(1, 12), rng) for _ in range(60)]
        cases += [low_x_star_tree(k) for k in (2, 3, 6)]
        for t in cases:
            script = bc.decompose_cnbc_tree(t)
            live = nx.Graph(list(t.edges()))
            for s in reversed(script.steps):
                dist = nx.single_source_shortest_path_length(live, min(live))
                far = max(dist.values())
                a = min(v for v, d in dist.items() if d == far)
                assert a in (s.w1, s.w2)
                assert max(nx.single_source_shortest_path_length(live, a).values()) == nx.diameter(live)
                live.remove_nodes_from((s.v, s.x, s.w1, s.w2))
            assert sorted(live) == sorted(script.base)

    def test_forced_coloring_structure(self):
        # a balanced tree has exactly one coloring up to swap
        seen = 0
        for n in (2, 6):
            for t in bc.labeled_trees(n):
                if bc.decompose_cnbc_tree(t) is not None:
                    out = bc.enumerate_colorings(t, "cnb")
                    assert len(out.colorings) == 2
                    assert out.colorings[0].bits == out.colorings[1].flip().bits
                    seen += 1
        assert seen == 1 + 90
        # order ten examples via replayed scripts
        rng = random.Random(10)
        for _ in range(10):
            g, c = bc.complete(2), Coloring.from_text("RB")
            for _ in range(2):
                g, c = bc.four_vertex_addition(g, c, rng.randrange(g.n))
            assert len(bc.enumerate_colorings(g, "cnb").colorings) == 2


def peel_outcome(decompose, g):
    try:
        script = decompose(g)
    except ValueError as exc:
        return type(exc)
    return None if script is None else script.as_dict()


class TestAgainstReferencePeel:
    """The peel on kept BFS layers against the one-BFS-per-step peel in
    conftest: the same scripts, the same rejections, the same errors."""

    def same(self, g):
        out = peel_outcome(bc.decompose_cnbc_tree, g)
        assert out == peel_outcome(ref_decompose, g)
        return out

    def test_every_labeled_tree_to_order_7(self):
        outs = [self.same(t) for n in range(1, 8) for t in bc.labeled_trees(n)]
        assert len(outs) == 1 + 1 + 3 + 16 + 125 + 1296 + 16807
        assert sum(isinstance(o, dict) for o in outs) == 1 + 90

    def test_every_graph_to_order_5_that_is_not_a_tree(self):
        others = [g for n in range(6) for g in bc.all_labeled_graphs(n) if not bc.is_tree(g)]
        assert len(others) == 1 + 0 + 1 + 5 + 48 + 899
        assert {self.same(g) for g in others} == {bc.NotATreeError}

    def test_grown_relabeled_trees(self):
        rng = random.Random(3141)
        for _ in range(300):
            t = grown_tree(rng.randint(2, 60), rng)
            assert isinstance(self.same(t), dict)

    def test_trees_that_peel_their_start_every_step(self):
        for k in range(2, 51):
            assert isinstance(self.same(low_x_star_tree(k)), dict)

    @staticmethod
    def count_bfs(monkeypatch):
        calls = []
        bfs_layers = graphs._bfs_layers

        def counting(adj, start):
            calls.append(start)
            return bfs_layers(adj, start)

        monkeypatch.setattr(graphs, "_bfs_layers", counting)
        monkeypatch.setattr(trees, "_bfs_layers", counting)
        return calls

    def test_large_grown_tree_needs_few_bfs_passes(self, monkeypatch):
        # peeling never moves the remaining vertices' distances, so the
        # tree test's BFS serves every step until its start is peeled; the
        # one-BFS-per-step peel makes 1 + 1,000 passes here
        t = grown_tree(1000, random.Random(4002))
        calls = self.count_bfs(monkeypatch)
        script = bc.decompose_cnbc_tree(t)
        assert t.n == 4002 and calls[0] == 0 and len(calls) <= 8
        assert bc.replay(script)[0] == t

    def test_start_peeled_every_step_reruns_bfs(self, monkeypatch):
        # the worst case: vertex 0, 1, ... is each step's x in turn
        calls = self.count_bfs(monkeypatch)
        script = bc.decompose_cnbc_tree(low_x_star_tree(20))
        assert calls == list(range(20))
        assert [s.x for s in script.steps] == list(range(19, -1, -1))


def grown_from_edges(steps, rng):
    """The shape of the benchmark's grown trees, built here from edges and
    not through replay: one edge and `steps` 4-vertex additions at random
    anchors (anchor z gains v and x, v gains w1 and w2), then relabeled."""
    edges = [(0, 1)]
    for i in range(steps):
        z, v = rng.randrange(2 + 4 * i), 2 + 4 * i
        edges += [(z, v), (z, v + 1), (v, v + 2), (v, v + 3)]
    label = list(range(2 + 4 * steps))
    rng.shuffle(label)
    return Graph.from_edges(len(label), [(label[a], label[b]) for a, b in edges])


class TestBitwisePeel:
    """The peel reads its vertices off masks; every script, rejection and
    error must still be the reference peel's, and solve's forcing pass must
    still name the same vertex on an unbalanced tree."""

    same = TestAgainstReferencePeel.same

    def test_every_labeled_tree_of_order_8(self):
        outs = [self.same(t) for t in bc.labeled_trees(8)]
        assert len(outs) == 8 ** 6 and outs.count(None) == len(outs)

    def test_seeded_prufer_trees(self):
        rng = random.Random(2610)
        outs = [self.same(bc.random_labeled_tree(rng.randint(10, 30), rng))
                for _ in range(3000)]
        assert bc.NotATreeError not in outs

    def test_seeded_grown_trees_to_order_50(self):
        rng = random.Random(2611)
        for steps in range(13):
            for _ in range(40):
                t = grown_from_edges(steps, rng)
                out = self.same(t)
                assert isinstance(out, dict) and len(out["steps"]) == steps
                assert bc.replay(TreeBuildScript.from_dict(out))[0] == t

    def test_named_inputs(self):
        assert len(self.same(low_x_star_tree(20))["steps"]) == 20
        assert self.same(bc.cycle(6)) is bc.NotATreeError
        assert self.same(bc.disjoint_union(bc.path(2), bc.path(4))) is bc.NotATreeError

    def test_steps_match_dataclass_built_ones(self):
        script = bc.decompose_cnbc_tree(grown_from_edges(12, random.Random(2612)))
        steps = tuple(AdditionStep(s.z, s.v, s.x, s.w1, s.w2) for s in script.steps)
        ref = TreeBuildScript(steps=steps, base=script.base)
        assert script == ref and hash(script) == hash(ref) and repr(script) == repr(ref)
        assert [hash(s) for s in script.steps] == [hash(s) for s in steps]
        assert [vars(s) for s in script.steps] == [vars(s) for s in steps]
        assert vars(script) == vars(ref)
        back = pickle.loads(pickle.dumps(script))
        assert back == ref and back.as_dict() == ref.as_dict() == script.as_dict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.steps[0].z = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.base = (0, 1)

    @pytest.mark.parametrize("g6, reason", [
        ("IO?eCoAG?", "vertex 0 needs 1 of its neighbors in its color; its children give 3"),
        ("I?CKJGG?_", "vertex 5 needs 1 of its neighbors in its color; "
                      "its children give 2, and its parent at most one"),
        ("M@?AE?OJ?_CGO??@?", "vertex 2 needs 1 of its neighbors in its color; "
                              "its children give 2, and its parent at most one"),
        ("QGGQ@?C?G???@?gGG@_@??G?_??", "vertex 2 needs 2 of its neighbors in its color; "
                                        "its children give 0, and its parent at most one"),
    ])
    def test_unbalanced_tree_reasons(self, g6, reason):
        t = bc.decode(g6)
        out = bc.solve(t, "cnb")
        assert (out.status, out.reason, out.stats.nodes) == ("unsat", f"tree:{reason}", 0)
        assert self.same(t) is None

    def test_root_one_short_is_a_failed_check(self):
        # order 8 fails solve's prefilter, so this reaches the forcing pass
        # only directly: the root has no parent to make up the one missing
        assert trees._tree_forcing(bc.decode("GiaCC?")) == (
            None, "vertex 0 needs 2 of its neighbors in its color; its children give 1"
        )


def search_alone(g):
    """What solve did with a cnb tree before its forcing pass: the generic
    certificates, then the search with vertex 0 red, as (status, red)."""
    if next(_certificates(g, "cnb"), None) is not None:
        return "unsat", None
    search = solver._Search(g, "cnb")
    if not search._request([(0, 1)]):
        return "unsat", None
    red = next(search.full_assignments(math.inf, math.inf), None)
    return ("unsat", None) if red is None else ("sat", red)


def solved(g):
    out = bc.solve(g, "cnb")
    return out.status, out.witness.bits if out.witness else None


class TestForcing:
    """solve decides a cnb tree by one pass up and one down, with no search."""

    # three cherries on one center: every degree is odd and the
    # certificates pass, but no coloring is balanced
    CHERRIES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]

    def test_every_labeled_tree_to_order_6_against_brute_force(self):
        seen = 0
        for n in range(1, 7):
            for t in bc.labeled_trees(n):
                status, red = solved(t)
                masks = brute_force_masks(t, "cnb")
                assert status == ("sat" if masks else "unsat")
                if masks:
                    # the coloring is unique up to the swap
                    assert sorted(masks) == sorted((red, red ^ ((1 << n) - 1)))
                    seen += 1
        assert seen == 1 + 90

    def test_odd_degree_trees_against_the_search(self):
        rng = random.Random(424242)
        sat = 0
        for n, count in ((10, 1500), (14, 700), (18, 300)):
            for _ in range(count):
                t = TestDecompose._random_odd_degree_tree(n, rng)
                got = solved(t)
                assert got == search_alone(t)
                sat += got[0] == "sat"
        assert sat > 50

    def test_grown_trees_against_the_search(self):
        rng = random.Random(3141)
        for _ in range(300):
            t = grown_tree(rng.randint(2, 60), rng)
            assert solved(t) == search_alone(t)

    @pytest.mark.parametrize("make", [
        lambda: grown_tree(1000, random.Random(5)), lambda: low_x_star_tree(1000),
    ], ids=["grown", "low-x-star"])
    def test_order_4002_needs_no_search(self, make):
        t = make()
        out = bc.solve(t, "cnb", Budget(max_nodes=1))
        assert t.n == 4002
        assert (out.status, out.reason, out.stats.nodes, out.stats.propagations) == \
            ("sat", "tree", 0, 0)
        assert out.witness.is_red(0) and bc.verify_cnb(t, out.witness)

    def test_unbalanced_vertex_is_named(self):
        t = Graph.from_edges(10, self.CHERRIES)
        assert all(d % 2 for d in t.degrees()) and brute_force_masks(t, "cnb") == []
        out = bc.solve(t, "cnb")
        assert (out.status, out.stats.nodes) == ("unsat", 0)
        assert out.reason == (
            "tree:vertex 0 needs 1 of its neighbors in its color; its children give 3"
        )
        # rooted at a leaf the center is a child, and fails the pass up
        swap = {0: 4, 4: 0}
        t = Graph.from_edges(10, [(swap.get(u, u), swap.get(v, v)) for u, v in self.CHERRIES])
        assert bc.solve(t, "cnb").reason == (
            "tree:vertex 4 needs 1 of its neighbors in its color; "
            "its children give 2, and its parent at most one"
        )

    def test_only_trees_are_forced(self):
        # n - 1 edges but disconnected, and connected with a cycle
        for g in (bc.disjoint_union(bc.cycle(3), bc.complete(1)), bc.cycle(4)):
            assert trees._tree_forcing(g) is None


class TestReplayAndScripts:
    def test_empty_script_is_single_edge(self):
        g, c = bc.replay(TreeBuildScript(steps=()))
        assert g == bc.complete(2)
        assert c.to_text() == "RB"

    def test_one_step_is_h6(self):
        g, c = bc.replay(TreeBuildScript(steps=(AdditionStep(z=0, v=2, x=3, w1=4, w2=5),)))
        assert g == Graph.from_edges(6, H6_EDGES)
        assert bc.verify_cnb(g, c)

    def test_json_round_trip(self, h6):
        script = bc.decompose_cnbc_tree(h6)
        payload = json.dumps(script.as_dict())
        back = TreeBuildScript.from_dict(json.loads(payload))
        assert back == script

    def test_schema_default_base(self):
        back = TreeBuildScript.from_dict(
            {"steps": [{"z": 0, "v": 2, "x": 3, "w1": 4, "w2": 5}]}
        )
        assert back.base == (0, 1)
        g, _ = bc.replay(back)
        assert g.n == 6

    @pytest.mark.parametrize(
        "payload",
        [
            {"steps": [{"z": 0, "v": 1, "x": 3, "w1": 4, "w2": 5}]},  # stale id
            {"steps": [{"z": 9, "v": 2, "x": 3, "w1": 4, "w2": 5}]},  # no anchor
            {"steps": [{"z": 0, "v": 2, "x": 2, "w1": 4, "w2": 5}]},  # duplicate
            {"steps": [{"z": 0, "v": 7, "x": 8, "w1": 9, "w2": 10}]},  # gap
            {"steps": [{"z": 0}]},  # missing fields
            {"base": [1], "steps": []},
            {"base": [1, 1], "steps": []},
            {"base": [0, None], "steps": []},
            [],
            "x",
            {"steps": [{"z": 0, "v": -2, "x": 3, "w1": 4, "w2": 5}]},  # negative id
            {"steps": [{"z": 0, "v": 2, "x": 3, "w1": 4, "w2": 6}]},  # id >= n
            {"base": [0, 5], "steps": []},  # base outside 0..n-1
            # ids that int() would coerce into another tree
            {"steps": [{"z": 0.9, "v": 2, "x": 3, "w1": 4, "w2": 5}]},
            {"base": "01", "steps": []},
            {"base": [True, False], "steps": []},
            {"steps": [{"z": "0", "v": 2, "x": 3, "w1": 4, "w2": 5}]},
        ],
    )
    def test_malformed_scripts_rejected(self, payload):
        with pytest.raises(bc.MalformedScriptError):
            bc.replay(TreeBuildScript.from_dict(payload))

    def test_order_bound_is_checked_before_any_step(self):
        # 2 + 4 * 65,536 vertices reach the 2^18 bound; the steps are never
        # read, so these (all reusing vertex 2) fail on the bound alone
        step = AdditionStep(z=0, v=2, x=3, w1=4, w2=5)
        with pytest.raises(bc.MalformedScriptError, match="262144"):
            bc.replay(TreeBuildScript(steps=(step,) * 65_536))


class TestTreeGeneration:
    def test_counts_match_cayley(self):
        assert sum(1 for _ in bc.labeled_trees(3)) == 3
        assert sum(1 for _ in bc.labeled_trees(4)) == 16
        assert sum(1 for _ in bc.labeled_trees(6)) == 1296

    def test_all_outputs_are_trees(self):
        seen = set()
        for t in bc.labeled_trees(5):
            assert bc.is_tree(t)
            seen.add(t.adj)
        assert len(seen) == 125  # distinct labeled trees

    def test_random_trees_are_trees(self):
        rng = random.Random(1)
        for n in (1, 2, 5, 12, 30):
            for _ in range(20):
                assert bc.is_tree(bc.random_labeled_tree(n, rng))

    def test_prufer_decode_bad_entry(self):
        with pytest.raises(ValueError):
            bc.prufer_decode([7])
