"""Seeded corpora for the four benchmark workloads.

Each workload sends a fixed list of items.  A graph is identified by a
key, and rebuilt from that key alone with ``coverlab.generators`` /
``coverlab.graph.build_graph``, so the pinned values in ``pins/`` hold
for every run seed.  The run seed decides the order in which the items
are sent and, in ``solve-cover``, a permutation of each graph's vertex
labels.  Runs with different seeds therefore do the same work: when the
seed chose which graphs a run used, the median and 90th-percentile item
latencies moved by a fifth from seed to seed on the corpus alone.  A
corpus is sized by count and order range only; no graph is ever dropped
for being slow.
"""

from __future__ import annotations

import random

from coverlab import generators as gen
from coverlab.graph import Graph, build_graph

COVER_INVARIANTS = ("inspc", "insc", "inpc", "ispc")
PARTITION_INVARIANTS = ("inspp", "insp", "inpp", "ispp")
P_BANDS = ((0.20, 0.2333), (0.2333, 0.2667), (0.2667, 0.30))

# orders, and graphs per (order, p band) cell; every graph is solved for
# every invariant of its workload
COVER_ORDERS = (18, 19)
PARTITION_ORDERS = (14, 15)
GRAPHS_PER_CELL = 5
STAR_LEAVES = (14, 15, 16, 17)

# construct: partitions on 30 thin graphs whose orders grow geometrically
# from 300 to 3000, so that neighbouring item costs differ by a few
# percent and no latency percentile sits on a gap between size classes
THIN_FAMILIES = ("path", "cycle", "broom")
THIN_ORDERS = tuple(round(300 * 10 ** (i / 29)) for i in range(30))
THIN_COVERS = (("broom", 450, 4), ("path", 1650, 5), ("cycle", 2850, 4))
BLOWUPS = ((130, 5), (260, 4))  # (layers, n)
SHORT_CYCLES = (12, 19, 26, 33, 40)
SHORT_BROOMS = ((5, 3), (9, 5), (13, 7), (17, 9), (20, 4))  # (handle, bristles)
CONSTRUCT_NS = (4, 5)

SUITES = ("lemma41", "lemma42", "theorems")
BATCH_BASE = 1_000_000
BATCHES = 47      # per seeded suite (chains, oracle)
BATCH_COUNT = 4   # graphs per batch
RAMSEY = ((3, 3), (3, 4))
CONSTANTS_NS = (4, 5)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in ("coverlab-bench",) + parts))


# -- graphs by key -----------------------------------------------------


def broom(handle: int, bristles: int) -> Graph:
    """A path 0..handle-1 with `bristles` pendant vertices on its last vertex."""
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return build_graph(handle + bristles, edges)


def blowup(widths) -> Graph:
    """Path blow-up: layer i is an independent set of widths[i] vertices,
    joined completely to the layers before and after it."""
    layers = []
    v = 0
    for w in widths:
        layers.append(range(v, v + w))
        v += w
    edges = [(a, b) for lo, hi in zip(layers, layers[1:]) for a in lo for b in hi]
    return build_graph(v, edges)


def random_key(order: int, band: int, j: int) -> str:
    return f"rc-{order}-{band}-{j}"


def graph_for(key: str) -> Graph:
    """Rebuild the graph named by `key`."""
    family, *params = key.split("-")
    if family == "rc":
        order, band, _ = (int(x) for x in params)
        rng = _rng(key)
        lo, hi = P_BANDS[band]
        return gen.random_connected(order, lo + (hi - lo) * rng.random(), rng)
    if family == "star":
        return gen.star(int(params[0]))
    if family == "blowup":
        rng = _rng(key)
        return blowup([rng.choice((1, 2)) for _ in range(int(params[0]))])
    if family in ("path", "cycle"):
        return gen.generate(f"{family}:{params[0]}")
    if family == "broom":
        return broom(int(params[0]), int(params[1]))
    raise ValueError(f"unknown graph key {key!r}")


def relabel(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return build_graph(g.order, [(perm[u], perm[v]) for u, v in g.edges()])


def permutation(key: str, seed: int, order: int) -> list[int]:
    perm = list(range(order))
    _rng("labels", key, seed).shuffle(perm)
    return perm


# -- graphs (fixed; every one has pinned values) -----------------------


def random_keys(orders) -> list[str]:
    return [random_key(order, band, j) for order in orders
            for band in range(len(P_BANDS)) for j in range(GRAPHS_PER_CELL)]


def thin_key(family: str, order: int) -> str:
    return f"broom-{order - 9}-9" if family == "broom" else f"{family}-{order}"


def thin_keys() -> list[str]:
    """Paths, cycles and brooms of order 300-3000 (the long branch)."""
    return [thin_key(THIN_FAMILIES[i % 3], order) for i, order in enumerate(THIN_ORDERS)]


def short_keys() -> list[str]:
    """Short cycles and brooms: BFS depth stays in the small-diameter branch."""
    return ([f"cycle-{k}" for k in SHORT_CYCLES]
            + [f"broom-{h}-{b}" for h, b in SHORT_BROOMS])


def cover_keys() -> list[str]:
    """Long thin graphs constructed in cover mode."""
    return [thin_key(family, order) for family, order, _ in THIN_COVERS]


def blowup_keys() -> list[str]:
    """Path blow-ups with layer widths in {1, 2} (cover mode only)."""
    return [f"blowup-{layers}-0" for layers, _ in BLOWUPS]


def star_keys() -> list[str]:
    return [f"star-{k}" for k in STAR_LEAVES]


# -- items -------------------------------------------------------------


def _solve(key: str, inv: str) -> dict:
    return {"id": f"solve:{inv}:{key}", "type": "solve", "graph": key, "inv": inv,
            "argv": ["solve", "{graph}", "--invariants", inv]}


def _construct(key: str, mode: str, n: int) -> dict:
    return {"id": f"construct:{mode}{n}:{key}", "type": "construct", "graph": key,
            "mode": mode, "n": n,
            "argv": ["construct", "{graph}", "--mode", mode, "--n", str(n)]}


def _verify(suite: str, *extra: str) -> dict:
    return {"id": ":".join(("verify", suite) + extra), "type": "verify", "suite": suite,
            "argv": ["verify", suite, *extra]}


def items_for(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The items of one pass, in the order they are sent.

    `tiny` keeps the first entry of each list below, for the self-test.
    """
    def few(seq):
        return seq[:1] if tiny else seq

    items: list[dict] = []
    if workload == "solve-cover":
        # the cover solvers' cost barely depends on vertex labels, so the
        # seed relabels each graph; the answers are isomorphism invariants
        for key in few(random_keys(COVER_ORDERS)):
            perm = permutation(key, seed, graph_for(key).order)
            items += [dict(_solve(key, inv), perm=perm) for inv in COVER_INVARIANTS]
    elif workload == "solve-partition":
        # the partition search's cost moves by up to 3x with the labels,
        # so its graphs keep theirs
        for key in few(random_keys(PARTITION_ORDERS)):
            items += [_solve(key, inv) for inv in PARTITION_INVARIANTS]
        items += [_solve(key, "insp") for key in few(star_keys())]
    elif workload == "construct":
        # partitions are cheap: every size and n
        for key in few(thin_keys()):
            items += [_construct(key, "partition", n) for n in few(CONSTRUCT_NS)]
        # covers cost O(depth^2), so only three sizes; the cycle near order
        # 3000 is where the quadratic slices were measured
        for key, (_, _, n) in few(list(zip(cover_keys(), THIN_COVERS))):
            items.append(_construct(key, "cover", n))
        # the freeness precheck on blow-ups grows steeply with n and size
        for key, (_, n) in few(list(zip(blowup_keys(), BLOWUPS))):
            items.append(_construct(key, "cover", n))
        for key in few(short_keys()):
            items += [_construct(key, mode, n) for n in few(CONSTRUCT_NS)
                      for mode in ("cover", "partition")]
    elif workload == "verify":
        items += [_verify(s) for s in few(SUITES)]
        for suite in ("chains", "oracle"):
            for i in range(len(few(range(BATCHES)))):
                items.append(_verify(suite, "--seed", str(BATCH_BASE + i * BATCH_COUNT),
                                     "--count", str(BATCH_COUNT), "--jobs", "1"))
        for n in few(CONSTANTS_NS[::-1]):
            items.append({"id": f"bounds:constants:{n}", "type": "constants", "n": n,
                          "argv": ["bounds", "constants", str(n)]})
        # called directly: `bounds ramsey` would hit bounds._search_cache
        # on repeats, which a fresh CLI process never does
        for s, t in few(RAMSEY):
            items.append({"id": f"ramsey_exact_search:{s},{t}", "type": "ramsey",
                          "s": s, "t": t})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _rng(workload, seed).shuffle(items)
    return items
