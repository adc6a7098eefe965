"""Constructive star/path cover and partition algorithms with traces.

Each algorithm mirrors a constructive upper-bound argument step by step
and re-checks the argument's intermediate claims at runtime, raising
InternalInvariantBroken when a claim fails on the given input.  The
returned trace records the intermediate structures and a validated
certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import generators as gen
from .bounds import BoundValue, Status, xi_value
from .errors import (BadInput, BadParameter, Disconnected, FreenessViolated,
                     InternalInvariantBroken, PathTooLong, StarTooLarge)
from .graph import (Graph, PieceKind, bfs_layering, bits, is_connected,
                    mask_of, piece_shape_mask)
from .iso import contains_induced
from .solvers import (PieceCertificate, chromatic_coloring,
                      min_dominating_set, validate_certificate)


@dataclass(frozen=True)
class ConstructionTrace:
    """Result of one constructive run: certificate plus proof-state log."""

    algorithm: str
    n: int
    intermediate: dict
    result: PieceCertificate
    claimed_bound: BoundValue

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "intermediate": self.intermediate,
            "result": {
                "kind": self.result.kind.value,
                "mode": self.result.mode,
                "pieces": [list(p) for p in self.result.pieces],
                "value": self.result.value,
                "optimal": self.result.optimal,
                "lower_bound": self.result.lower_bound,
            },
            "claimed_bound": {
                "value": self.claimed_bound.value,
                "status": self.claimed_bound.status.value,
                "note": self.claimed_bound.note,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _check_free(g: Graph, members: Sequence[Graph]) -> None:
    for h in members:
        emb = contains_induced(g, h)
        if emb is not None:
            raise FreenessViolated(h.label or f"pattern<{h.order}>", emb.image())


def _finish(g: Graph, domain: int, algorithm: str, n: int,
            intermediate: dict, kind: PieceKind, mode: str, masks: list[int],
            claimed: BoundValue) -> ConstructionTrace:
    """Validate a `mode` ("cover" or "partition") of g[domain] by pieces
    of `kind`, given as masks in g's labels, and wrap it in a trace."""
    total = 0
    for m in masks:
        if mode == "partition" and total & m:
            raise InternalInvariantBroken(f"{algorithm}: pieces overlap")
        if not piece_shape_mask(g, m, kind):
            raise InternalInvariantBroken(f"{algorithm}: piece is not a {kind.value}")
        total |= m
    if total != domain:
        raise InternalInvariantBroken(f"{algorithm}: pieces miss part of the domain")
    pieces = tuple(tuple(bits(m)) for m in masks)
    cert = PieceCertificate(kind, mode, pieces, False, 1 if domain else 0)
    if claimed.value is not None and cert.value > claimed.value:
        raise InternalInvariantBroken(
            f"{algorithm}: size {cert.value} exceeds claimed bound {claimed.value}")
    return ConstructionTrace(algorithm, n, intermediate, cert, claimed)


# -- neighborhood star partition ---------------------------------------


def _greedy_max_independent(g: Graph, within: int) -> int:
    out = 0
    forbidden = 0
    for v in bits(within):
        if not (forbidden >> v & 1):
            out |= 1 << v
            forbidden |= g.adj[v] | 1 << v
    return out


def _minimal_dominating_subset(g: Graph, candidates: int, targets: int) -> int:
    """Shrink `candidates` to a minimal subset still dominating `targets`.

    Vertices are dropped in descending index order while every target
    keeps a neighbor in the remaining set.
    """
    chosen = candidates

    def dominates(s: int) -> bool:
        return all(g.adj[y] & s for y in bits(targets))

    if not dominates(chosen):
        raise InternalInvariantBroken("maximal independent set fails to dominate")
    for v in sorted(bits(candidates), reverse=True):
        trial = chosen & ~(1 << v)
        if dominates(trial):
            chosen = trial
    return chosen


def star_partition_neighborhood(g: Graph, x: int, X: Iterable[int], n: int,
                                precheck: bool = True) -> ConstructionTrace:
    """Partition {x} ∪ X into induced stars, X inside the neighborhood of x.

    Runs the block recursion: each block has an apex adjacent to all of
    it; a maximal independent set minus a minimal dominating subset
    forms the apex's star, and each dominating vertex becomes the apex
    of a next-stage block.
    """
    if n < 3:
        raise BadParameter("n >= 3 required")
    x_mask = 1 << x
    X_mask = mask_of(X)
    if X_mask & ~g.adj[x]:
        raise BadInput("X must be a subset of the neighborhood of x")
    if precheck:
        _check_free(g, (gen.complete(n), gen.s_tilde(n)))
    stages: list[list[dict]] = []
    stars: list[int] = []
    blocks = [(x, X_mask)]
    while blocks:
        stage_log = []
        next_blocks: list[tuple[int, int]] = []
        for apex, Y in blocks:
            J = _greedy_max_independent(g, Y)
            rest = Y & ~J
            I = _minimal_dominating_subset(g, J, rest) if rest else 0
            star = 1 << apex | (J & ~I)
            stars.append(star)
            assigned: dict[int, int] = {}
            for y in bits(rest):
                u = next(bits(g.adj[y] & I))
                assigned[u] = assigned.get(u, 0) | 1 << y
            for u in bits(I):
                next_blocks.append((u, assigned.get(u, 0)))
            stage_log.append({
                "apex": apex,
                "block": sorted(bits(Y)),
                "independent": sorted(bits(J)),
                "dominating": sorted(bits(I)),
                "star": sorted(bits(star)),
            })
        stages.append(stage_log)
        blocks = next_blocks
    depth = len(stages)
    if depth > n - 2:
        raise InternalInvariantBroken(
            f"neighborhood recursion depth {depth} exceeds {n - 2}")
    claimed = xi_value(n, n - 2)
    intermediate = {"stages": stages, "depth": depth}
    return _finish(g, x_mask | X_mask, "star_partition_neighborhood", n,
                   intermediate, PieceKind.STAR, "partition", stars, claimed)


# -- bounded-diameter star cover / partition ---------------------------


def _dominator_buckets(h: Graph) -> tuple[list[int], dict[int, int]]:
    """Exact minimum dominating set and least-index dominator buckets."""
    U = min_dominating_set(h)
    U_mask = mask_of(U)
    buckets = {x: 0 for x in U}
    for v in range(h.order):
        if U_mask >> v & 1:
            continue
        x = next(bits(h.adj[v] & U_mask))
        buckets[x] |= 1 << v
    return U, buckets


def insc_bounded(h: Graph, n: int, precheck: bool = True) -> ConstructionTrace:
    """Induced star cover: exact dominating set, one star per color class.

    Each dominator x covers its bucket with stars {x} ∪ T over the color
    classes T of an optimal proper coloring of the bucket.
    """
    if n < 3:
        raise BadParameter("n >= 3 required")
    if not is_connected(h):
        raise Disconnected("input must be connected")
    if precheck:
        _check_free(h, (gen.complete(n), gen.s_star(n), gen.f1(n)))
    U, buckets = _dominator_buckets(h)
    stars: list[int] = []
    per_center = {}
    for x in U:
        bucket = buckets[x]
        if not bucket:
            stars.append(1 << x)
            per_center[x] = 1
            continue
        verts = list(bits(bucket))
        sub = h.subgraph(verts)
        classes = chromatic_coloring(sub)
        per_center[x] = len(classes)
        for cls in classes:
            stars.append(1 << x | mask_of(verts[i] for i in bits(cls)))
    claimed = BoundValue(None, Status.UPPER_BOUND_ONLY,
                         note="depends on an unknown coloring constant")
    intermediate = {
        "dominating_set": list(U),
        "stars_per_center": {str(k): v for k, v in sorted(per_center.items())},
        "dominating_bound_check": "bound not computable",
    }
    return _finish(h, h.full_mask, "insc_bounded", n, intermediate,
                   PieceKind.STAR, "cover", stars, claimed)


def insp_bounded(h: Graph, n: int, precheck: bool = True) -> ConstructionTrace:
    """Induced star partition: dominator buckets refined by the
    neighborhood star-partition recursion."""
    if n < 3:
        raise BadParameter("n >= 3 required")
    if not is_connected(h):
        raise Disconnected("input must be connected")
    if precheck:
        _check_free(h, (gen.complete(n), gen.s_star(n), gen.s_tilde(n)))
    U, buckets = _dominator_buckets(h)
    stars: list[int] = []
    sub_traces = []
    for x in U:
        t = star_partition_neighborhood(h, x, bits(buckets[x]), n,
                                        precheck=False)
        stars.extend(mask_of(p) for p in t.result.pieces)
        sub_traces.append({"center": x, "size": t.result.value,
                           "depth": t.intermediate["depth"]})
    claimed = BoundValue(None, Status.UPPER_BOUND_ONLY,
                         note="bound component not materialized")
    intermediate = {"dominating_set": list(U), "buckets": sub_traces,
                    "dominating_bound_check": "bound not computable"}
    return _finish(h, h.full_mask, "insp_bounded", n, intermediate,
                   PieceKind.STAR, "partition", stars, claimed)


# -- layered long-path machinery ---------------------------------------


@dataclass
class _LayeredState:
    """Shared state of the long-branch construction."""

    g: Graph
    n: int
    root: int
    layers: tuple[tuple[int, ...], ...]
    d: int
    k: list[int]            # k[h], 1-based, k[h0+1] = 2n
    q_paths: list[list[int]]  # q_paths[h-1] = vertices of Q_h by layer
    h0: int = 0
    union_mask: int = 0


def _least_index_shortest_path(g: Graph, lay, target: int) -> list[int]:
    """Shortest root->target path taking the least-index parent at each step."""
    path = [target]
    cur = target
    while lay.dist[cur] > 0:
        prev_layer = mask_of(lay.layers[lay.dist[cur] - 1])
        cur = next(bits(g.adj[cur] & prev_layer))
        path.append(cur)
    path.reverse()
    return path


def _build_q_paths(g: Graph, n: int, root: int) -> _LayeredState:
    lay = bfs_layering(g, root)
    d = lay.depth
    layers = lay.layers
    st = _LayeredState(g, n, root, layers, d, [0], [])

    # Q_1: least-index vertex of the deepest layer
    k_h = d
    w = min(layers[d])
    q = _least_index_shortest_path(g, lay, w)
    st.k.append(k_h)
    st.q_paths.append(q)
    st.union_mask |= mask_of(q)

    while True:
        k_prev = st.k[-1]
        if k_prev < 3 * n + 2:
            st.k.append(2 * n)
            break
        chosen = None
        for i in range(k_prev - n - 1, 2 * n, -1):
            cand = [y for y in layers[i]
                    if not (st.union_mask >> y & 1)
                    and not (g.adj[y] & st.union_mask)]
            if cand:
                chosen = (i, min(cand))
                break
        if chosen is None:
            st.k.append(2 * n)
            break
        k_h, w = chosen
        q = _least_index_shortest_path(g, lay, w)
        st.k.append(k_h)
        st.q_paths.append(q)
        st.union_mask |= mask_of(q)
    st.h0 = len(st.q_paths)
    return st


def _check_q_claims(st: _LayeredState) -> None:
    g, n = st.g, st.n
    # layer membership: Q_h hits each layer 0..k_h exactly once
    for h, q in enumerate(st.q_paths, start=1):
        if len(q) != st.k[h] + 1:
            raise InternalInvariantBroken("Q-path length disagrees with its layer index")
    # paths meet only at the root, with no cross edges off the root
    root_bit = 1 << st.root
    for a in range(st.h0):
        for b in range(a + 1, st.h0):
            ma = mask_of(st.q_paths[a]) & ~root_bit
            mb = mask_of(st.q_paths[b]) & ~root_bit
            if ma & mb:
                raise InternalInvariantBroken("Q-paths share a non-root vertex")
            for v in bits(ma):
                if g.adj[v] & mb:
                    raise InternalInvariantBroken("edge between distinct Q-paths")
    if st.h0 > n - 1:
        raise InternalInvariantBroken(f"number of Q-paths {st.h0} exceeds {n - 1}")
    # a layer vertex with a neighbor on Q is pinned to the adjacent
    # layer vertices of Q, for layers n+1 .. k_h - n - 1
    for h, q in enumerate(st.q_paths, start=1):
        qmask = mask_of(q)
        for i in range(n + 1, st.k[h] - n):
            for y in st.layers[i]:
                if g.adj[y] & qmask or (qmask >> y & 1):
                    if y != q[i] and not (g.has_edge(y, q[i - 1])
                                          and g.has_edge(y, q[i + 1])):
                        raise InternalInvariantBroken(
                            "layer vertex near a Q-path misses its pinned neighbors")


def _index_sets(st: _LayeredState):
    n, h0 = st.n, st.h0
    I = {}
    J = {}
    m = {}
    for h in range(1, h0 + 1):
        if h < h0:
            I[h] = range(st.k[h] - n, st.k[h] + 1)
        else:
            I[h] = range(max(2 * n + 1, st.k[h0] - n), st.k[h0] + 1)
        J[h] = range(st.k[h + 1] + 1, st.k[h] - n)
        m[h] = I[h][0]
    I[h0 + 1] = range(0, 2 * n + 1)
    L = [h for h in range(1, h0 + 1) if len(J[h]) > 0]
    if not L:
        raise InternalInvariantBroken("no non-trivial layer band in the long branch")
    return I, J, m, L


def _slices(st: _LayeredState, h: int, i: int) -> list[list[int]]:
    """Partition layer i among the first h Q-paths by adjacency."""
    g = st.g
    out: list[list[int]] = [[] for _ in range(h)]
    for y in sorted(st.layers[i]):
        hits = []
        for l in range(h):
            qmask = mask_of(st.q_paths[l])
            if (qmask >> y & 1) or (g.adj[y] & qmask):
                hits.append(l)
        if not hits:
            raise InternalInvariantBroken(
                "band-layer vertex sees no earlier Q-path")
        if len(hits) > 1:
            raise InternalInvariantBroken(
                "band-layer vertex sees two Q-paths; slices not disjoint")
        out[hits[0]].append(y)
    nu = _nu(st.n)
    for l in range(h):
        if len(out[l]) > nu:
            raise InternalInvariantBroken("slice larger than the Ramsey bound")
    if sum(len(s) for s in out) > h * nu:
        raise InternalInvariantBroken("layer larger than the Ramsey bound")
    return out


def _nu(n: int) -> int:
    from .bounds import ramsey
    return ramsey(n - 1, n).value - 1


def _woven_paths(st: _LayeredState, p: int, Jp: range) -> list[int]:
    """Induced path cover of the J' band at stage p, as vertex masks."""
    Jp_prime = range(Jp.start, Jp.stop - 1)  # drop the top band layer
    if len(Jp_prime) == 0:
        return []
    nu = _nu(st.n)
    per_layer = {i: _slices(st, p, i) for i in Jp_prime}
    masks = []
    for l in range(p):
        for j in range(1, nu + 1):
            path = []
            for i in Jp_prime:
                sl = per_layer[i][l]
                if not sl:
                    raise InternalInvariantBroken(
                        "empty slice inside a band layer")
                path.append(sl[j - 1] if j <= len(sl) else sl[-1])
            masks.append(mask_of(path))
    # padding repeats vertices, so distinct (l, j) may give the same set
    seen = set()
    out = []
    for mask in masks:
        if mask not in seen:
            seen.add(mask)
            out.append(mask)
    return out


def _band_segments(st: _LayeredState, p: int, Jp: range) -> list[int]:
    """Path partition of the J' band: each Q-path restricted to the band."""
    Jp_prime = range(Jp.start, Jp.stop - 1)
    if len(Jp_prime) == 0:
        return []
    band = 0
    for i in Jp_prime:
        band |= mask_of(st.layers[i])
    covered = 0
    out = []
    for l in range(p):
        seg = mask_of(st.q_paths[l][i] for i in Jp_prime)
        out.append(seg)
        covered |= seg
    if covered != band:
        raise InternalInvariantBroken(
            "band layer leaves the Q-paths; path partition impossible")
    return out


def _forest_blocks(st: _LayeredState, lo: int, hi: int) -> list[tuple[int, list[int]]]:
    """Split layers lo..hi by least-index parent forests.

    Returns (root_vertex, vertices) per component; each component meets
    layer lo exactly once.
    """
    g = st.g
    parent = {}
    members = []
    for i in range(lo, hi + 1):
        for x in st.layers[i]:
            members.append(x)
            if i > lo:
                prev = mask_of(st.layers[i - 1])
                up = g.adj[x] & prev
                if not up:
                    raise InternalInvariantBroken("layer vertex with no parent")
                parent[x] = next(bits(up))

    def find_root(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    comps: dict[int, list[int]] = {}
    for x in members:
        comps.setdefault(find_root(x), []).append(x)
    for root in comps:
        if st.layers[lo] and root not in st.layers[lo]:
            raise InternalInvariantBroken("forest component root off the base layer")
    return sorted(comps.items())


def _star_blocks(st: _LayeredState, lo: int, hi: int, mode: str,
                 max_diam: int, max_blocks: Optional[int]) -> list[int]:
    """Star cover/partition of layers lo..hi via per-component recursion."""
    g, n = st.g, st.n
    blocks = _forest_blocks(st, lo, hi)
    if max_blocks is not None and len(blocks) > max_blocks:
        raise InternalInvariantBroken(
            f"{len(blocks)} forest components exceed the bound {max_blocks}")
    stars = []
    for root, verts in blocks:
        verts = sorted(verts)
        sub = g.subgraph(verts)
        lay = bfs_layering(sub, verts.index(root))
        if sum(len(l) for l in lay.layers) != sub.order:
            raise InternalInvariantBroken("forest component not connected in g")
        if lay.depth > max_diam:
            raise InternalInvariantBroken(
                f"component eccentricity {lay.depth} exceeds {max_diam}")
        if mode == "cover":
            t = insc_bounded(sub, n, precheck=False)
        else:
            t = insp_bounded(sub, n, precheck=False)
        for piece in t.result.pieces:
            stars.append(mask_of(verts[v] for v in piece))
    return stars


def _sp_construct(g: Graph, n: int, root: int, mode: str) -> ConstructionTrace:
    if n < 4:
        raise BadParameter("n >= 4 required")
    if not 0 <= root < g.order:
        raise BadParameter("root out of range")
    if not is_connected(g):
        raise Disconnected("input must be connected")
    if mode == "cover":
        family = (gen.complete(n), gen.s_star(n), gen.f1(n), gen.f2(n), gen.f3(n))
        algorithm = "sp_cover_construct"
    else:
        family = (gen.complete(n), gen.s_star(n), gen.s_tilde(n), gen.f1(n),
                  gen.f2(n), gen.f4(n), gen.f5(n))
        algorithm = "sp_partition_construct"
    _check_free(g, family)

    lay = bfs_layering(g, root)
    d = lay.depth
    if sum(len(l) for l in lay.layers) != g.order:
        raise Disconnected("root does not reach every vertex")
    bound_note = BoundValue(None, Status.UPPER_BOUND_ONLY,
                            note="bound component not materialized")
    if d <= n * n + 2 * n - 1:
        if mode == "cover":
            t = insc_bounded(g, n, precheck=False)
        else:
            t = insp_bounded(g, n, precheck=False)
        intermediate = {"branch": "small_diameter", "depth": d,
                        "delegate": t.intermediate}
        return ConstructionTrace(algorithm, n, intermediate, t.result, bound_note)

    st = _build_q_paths(g, n, root)
    _check_q_claims(st)
    I, J, m, L = _index_sets(st)
    r = len(L)
    pieces: list[int] = []
    band_logs = []
    for p in L:
        Jp = J[p]
        if mode == "cover":
            got = _woven_paths(st, p, Jp)
        else:
            got = _band_segments(st, p, Jp)
        pieces.extend(got)
        band_logs.append({"stage": p, "layers": [Jp.start, Jp.stop - 2],
                          "paths": len(got)})
    nu = _nu(n)
    block_logs = []
    prev_top = d  # k_{p_{h-1}+1} for h = 1 is k_1 = d
    for idx, p in enumerate(L):
        lo = m[p] - 1
        hi = st.k[L[idx - 1] + 1] if idx > 0 else st.k[1]
        stars = _star_blocks(st, lo, hi, mode, n * n - 1, (n - 1) * nu)
        pieces.extend(stars)
        block_logs.append({"block": idx + 1, "layers": [lo, hi],
                           "stars": len(stars)})
    lo, hi = 0, st.k[L[-1] + 1]
    if hi > n * n + 2 * n - 1:
        raise InternalInvariantBroken("root block deeper than the diameter bound")
    stars = _star_blocks(st, lo, hi, mode, n * n + 2 * n - 1, None)
    pieces.extend(stars)
    block_logs.append({"block": "root", "layers": [lo, hi], "stars": len(stars)})

    intermediate = {
        "branch": "long",
        "depth": d,
        "k": st.k[1:],
        "q_paths": [list(q) for q in st.q_paths],
        "stages_with_band": list(L),
        "bands": band_logs,
        "blocks": block_logs,
    }
    kind = PieceKind.SP_ANY
    cert_mode = "cover" if mode == "cover" else "partition"
    return _finish(g, g.full_mask, algorithm, n, intermediate, kind,
                   cert_mode, pieces, bound_note)


def sp_cover_construct(g: Graph, n: int, root: int = 0) -> ConstructionTrace:
    """Induced star/path cover of a connected graph by the layered construction."""
    return _sp_construct(g, n, root, "cover")


def sp_partition_construct(g: Graph, n: int, root: int = 0) -> ConstructionTrace:
    """Induced star/path partition of a connected graph, layered construction."""
    return _sp_construct(g, n, root, "partition")


# -- certificate conversions -------------------------------------------


def cover_to_star_cover(g: Graph, cert: PieceCertificate, n: int) -> PieceCertificate:
    """Replace path pieces by singletons; sound when long paths are forbidden.

    Pieces that are stars (including P_1/P_2/P_3, which are both) are
    kept as stars.
    """
    if not validate_certificate(g, cert):
        raise BadInput("certificate does not validate")
    out: list[tuple[int, ...]] = []
    for piece in cert.pieces:
        mask = mask_of(piece)
        if piece_shape_mask(g, mask, PieceKind.STAR):
            out.append(piece)
            continue
        if len(piece) >= n:
            raise PathTooLong(
                f"path piece with {len(piece)} vertices in a graph meant "
                f"to have no {n}-vertex induced path")
        out.extend((v,) for v in piece)
    return PieceCertificate(PieceKind.STAR, cert.mode, tuple(out), False,
                            1 if g.order else 0)


def cover_to_path_cover(g: Graph, cert: PieceCertificate, n: int) -> PieceCertificate:
    """Replace star pieces by singletons; sound when big stars are forbidden.

    Pieces that are paths (including P_1/P_2/P_3) are kept as paths.
    """
    if not validate_certificate(g, cert):
        raise BadInput("certificate does not validate")
    out: list[tuple[int, ...]] = []
    for piece in cert.pieces:
        mask = mask_of(piece)
        if piece_shape_mask(g, mask, PieceKind.PATH):
            out.append(piece)
            continue
        if len(piece) > n + 1:
            raise StarTooLarge(
                f"star piece with {len(piece)} vertices in a graph meant "
                f"to have no induced {n}-leaf star")
        out.extend((v,) for v in piece)
    return PieceCertificate(PieceKind.PATH, cert.mode, tuple(out), False,
                            1 if g.order else 0)
