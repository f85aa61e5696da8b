"""The three workloads, generated from a seed.

A workload spec is plain JSON data: graph6 streams (one per mode), the
requests the in-process runner times, and the node budgets. The program
under test sees only these graph6 lines and family parameters.
"""

from __future__ import annotations

import random

import gen

# Node budgets; the millisecond budget is set out of reach so verdicts,
# timeouts and node counts repeat exactly from run to run.
UNREACHABLE_MS = 1e9
TREE_NODES = 1_000
DENSE_NODES = 150
FALLBACK_NODES = 100
SMALL_ORDER = 16  # family members up to this order also run through census


def _stream(mode: str) -> dict:
    return {"mode": mode, "lines": [], "expect": []}


def trees(seed: int, count: int = 4000) -> dict:
    """Nine in ten lines are uniform labeled trees of order 10..30; every
    tenth is grown by 4-vertex additions (closed-balanced, order <= 50)."""
    rng = random.Random(seed)
    s = _stream("cnb")
    for i in range(count):
        if i % 10 == 9:
            steps = rng.randint(2, 12)
            s["lines"].append(gen.g6_encode(2 + 4 * steps, gen.grown_tree(steps, rng)))
            s["expect"].append("sat")
        else:
            n = rng.randint(10, 30)
            s["lines"].append(gen.g6_encode(n, gen.prufer_tree(n, rng)))
            s["expect"].append(None)
    return {"budget_nodes": TREE_NODES, "streams": [s],
            "requests": [["tree", 0, i] for i in range(count)], "robust": []}


ORDERS = (24, 28, 32, 36, 40)
DEGREES = {"cnb": (5, 7, 9, 11), "nb": (6, 8, 10)}
PLANTED_PER_CELL = {"cnb": 2, "nb": 3}
RANDOM_PER_CELL = 1
UNIONS = 8
# Small components for unions: (order, degree) of planted ones, then of
# random regular ones (usually not colorable).
SMALL_PARTS = {"cnb": ((8, 3), (12, 3), (12, 5), (10, 3), (12, 5)),
               "nb": ((8, 2), (12, 4), (12, 2), (10, 4), (12, 4))}


def dense(seed: int) -> dict:
    """Per mode: planted-colorable regular graphs and random regular graphs
    on an order x degree grid, plus disjoint unions of small components.
    The in-process pass also attempts two very large disjoint unions."""
    rng = random.Random(seed)
    streams = []
    for mode in ("cnb", "nb"):
        s = _stream(mode)

        def add(rows, expect):
            s["lines"].append(gen.g6_encode(len(rows), rows))
            s["expect"].append(expect)

        for n in ORDERS:
            for d in DEGREES[mode]:
                for _ in range(PLANTED_PER_CELL[mode]):
                    add(gen.planted(n, d, mode, rng), "sat")
                for _ in range(RANDOM_PER_CELL):
                    add(gen.regular(n, d, rng), None)
        planted_parts, random_parts = SMALL_PARTS[mode][:3], SMALL_PARTS[mode][3:]
        for u in range(UNIONS):
            parts = [gen.planted(n, d, mode, rng)
                     for n, d in (rng.choice(planted_parts) for _ in range(3))]
            if u % 2:  # one component that is probably not colorable
                n, d = rng.choice(random_parts)
                parts.insert(rng.randrange(len(parts) + 1), gen.regular(n, d, rng))
            add(gen.relabel(gen.union(parts), rng), None if u % 2 else "sat")
        streams.append(s)
    requests = [["dense", si, i] for si, s in enumerate(streams)
                for i in range(len(s["lines"]))]
    k2 = gen.from_edges(2, [(0, 1)])
    c4 = gen.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    robust = [{"name": "1200xK2", "mode": "cnb", "rows": gen.union([k2] * 1200)},
              {"name": "1200xC4", "mode": "nb", "rows": gen.union([c4] * 1200)}]
    return {"budget_nodes": DENSE_NODES, "streams": streams,
            "requests": requests, "robust": robust}


# Family members with verified balanced witnesses, as product factors.
CNB_FACTORS = [["gp", [n, d]] for n in (4, 6, 8) for d in (1, 3) if d <= (n - 1) // 2] + \
    [["prism", [n]] for n in (4, 6, 8)] + [["hypercube", [1]], ["hypercube", [3]],
                                           ["complete", [2]], ["complete", [4]]]
NB_FACTORS = [["cycle", [n]] for n in (4, 8, 12)] + [["hypercube", [2]], ["hypercube", [4]]]
ANY_FACTORS = [["cycle", [5]], ["path", [4]], ["wheel", [4]], ["star", [3]],
               ["complete", [3]], ["empty", [2]]]
# Random circulants per order and mode. A large one costs up to twice as
# much when its verdict is unknown and the solver falls back, so cheaper
# orders are drawn more often: the seed then moves a pass's work little.
RANDOM_CIRCULANTS = {40: 6, 64: 4, 96: 2, 128: 2, 192: 1, 256: 1}
ENUMERATIONS = [["hypercube", [4], "nb"], ["hypercube", [5], "cnb"],
                ["complete-bipartite", [6, 6], "nb"], ["complete-bipartite", [6, 8], "nb"],
                ["complete-bipartite", [8, 8], "nb"]]


def theorems(seed: int) -> dict:
    """Family verdicts (every circulant connection set up to order 14,
    random circulants of orders 40..256, GP, prism, hypercube, wheel and
    complete bipartite members, both modes), product colorings of verified
    family witnesses, and a few exhaustive enumerations."""
    rng = random.Random(seed)
    members = []
    for n in range(3, 15):
        members += [["circulant", [n, list(c)]] for c in gen.circulant_sets(n)]
    members += [["gp", [n, d]] for n in range(5, 25) for d in range(1, (n - 1) // 2 + 1)]
    members += [["prism", [n]] for n in range(3, 41)]
    members += [["hypercube", [k]] for k in range(1, 11)]
    members += [["wheel", [n]] for n in range(3, 31)]
    members += [["complete-bipartite", [a, b]] for a in range(1, 9) for b in range(a, 9)]
    requests = [["family", kind, params, mode]
                for kind, params in members for mode in ("cnb", "nb")]
    draw = 0
    for n, count in RANDOM_CIRCULANTS.items():
        for mode in ("cnb", "nb"):
            for _ in range(count):
                k = 2 + draw % 5  # 2..6 lengths, the same mix for every seed
                draw += 1
                lengths = list(gen.random_circulant_set(n, k, rng, mode))
                requests.append(["family", "circulant", [n, lengths], mode])
    for _ in range(8):
        requests.append(["product", "cartesian", rng.choice(CNB_FACTORS) + ["cnb"],
                         rng.choice(NB_FACTORS) + ["nb"], "cnb"])
        requests.append(["product", "strong", rng.choice(CNB_FACTORS) + ["cnb"],
                         rng.choice(ANY_FACTORS) + [None], "cnb"])
        requests.append(["product", "lexicographic", rng.choice(ANY_FACTORS) + [None],
                         rng.choice(CNB_FACTORS) + ["cnb"], "cnb"])
        mode = rng.choice(("cnb", "nb"))
        pool = CNB_FACTORS if mode == "cnb" else NB_FACTORS
        requests.append(["product", "join", rng.choice(pool) + [mode],
                         rng.choice(pool) + [mode], mode])
        mode = rng.choice(("cnb", "nb"))
        pool = CNB_FACTORS if mode == "cnb" else NB_FACTORS
        requests.append(["product", "complement", rng.choice(pool) + [mode], None,
                         "nb" if mode == "cnb" else "cnb"])
    requests += [["enum", kind, params, mode] for kind, params, mode in ENUMERATIONS]
    # The runner fills the census streams with the small family members.
    # The one request in sixteen over 2 ms takes four fifths of a pass, so
    # untraced runs repeat those less often (inproc.Passes).
    return {"budget_nodes": 100_000, "fallback_nodes": FALLBACK_NODES, "heavy_ms": 2.0,
            "streams": [_stream("cnb"), _stream("nb")], "requests": requests,
            "robust": []}


BUILDERS = {"trees": trees, "dense": dense, "theorems": theorems}
