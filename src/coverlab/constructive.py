"""Constructive star/path cover and partition algorithms with traces.

Each algorithm mirrors a constructive upper-bound argument step by step
and re-checks the argument's intermediate claims at runtime, raising
InternalInvariantBroken when a claim fails on the given input.  The
returned trace records the intermediate structures and a validated
certificate.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import formats, generators as gen
from .bounds import BoundValue, Status, nu_value, xi_value
from .errors import (BadInput, BadParameter, Disconnected, FreenessViolated,
                     IndexOutOfRange, InternalInvariantBroken, PathTooLong,
                     StarTooLarge)
from .graph import (Graph, PieceKind, bits, certificate_fault,
                    distance_rings, is_connected, mask_of, piece_shape_mask)
from .iso import freeness_witness, target_family
from .solvers import (PieceCertificate, chromatic_coloring,
                      min_dominating_set, validate_certificate)


class ConstructionTrace(NamedTuple):
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
        return formats.to_json(self.to_dict())


def _check_free(g: Graph, family: Sequence[Graph]) -> None:
    hit = freeness_witness(g, family)
    if hit is not None:
        h, emb = hit
        raise FreenessViolated(h.label or f"pattern<{h.order}>", emb.image())


def _finish(g: Graph, domain: int, algorithm: str, n: int,
            intermediate: dict, kind: PieceKind, mode: str, masks: list[int],
            claimed: BoundValue) -> ConstructionTrace:
    """Validate a `mode` ("cover" or "partition") of g[domain] by pieces
    of `kind`, given as masks in g's labels, and wrap it in a trace."""
    fault = certificate_fault(g, domain, kind, mode, masks)
    if fault is not None:
        raise InternalInvariantBroken(f"{algorithm}: {fault}")
    pieces = tuple(tuple(bits(m)) for m in masks)
    cert = PieceCertificate(kind, mode, pieces, False, 1 if domain else 0)
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


def _least_neighbour_buckets(g: Graph, members: int, owners: int) -> dict[int, int]:
    """Owner -> the mask of the members whose least-index neighbour in
    `owners` it is, for every owner in ascending order, empty ones too;
    `owners` must dominate `members`."""
    buckets = dict.fromkeys(bits(owners), 0)
    for v in bits(members):
        up = g.adj[v] & owners
        buckets[(up & -up).bit_length() - 1] |= 1 << v
    return buckets


def _neighbourhood_stars(g: Graph, x: int, X_mask: int, n: int,
                         xi: int) -> tuple[list[int], int]:
    """Partition {x} ∪ X_mask, X_mask inside N(x), into induced stars by
    the block recursion; returns the star masks and the stage count.

    Each block has an apex adjacent to all of it; a maximal independent
    set minus a minimal dominating subset forms the apex's star, and
    each dominating vertex becomes the apex of a next-stage block.  More
    than n - 2 stages or `xi` stars raise InternalInvariantBroken.
    """
    stars: list[int] = []
    blocks = [(x, X_mask)]
    depth = 0
    while blocks:
        depth += 1
        next_blocks: list[tuple[int, int]] = []
        for apex, Y in blocks:
            J = _greedy_max_independent(g, Y)
            rest = Y & ~J
            I = _minimal_dominating_subset(g, J, rest) if rest else 0
            stars.append(1 << apex | (J & ~I))
            next_blocks.extend(_least_neighbour_buckets(g, rest, I).items())
        blocks = next_blocks
    if depth > n - 2:
        raise InternalInvariantBroken(
            f"neighborhood recursion depth {depth} exceeds {n - 2}")
    if len(stars) > xi:
        raise InternalInvariantBroken(
            f"star_partition_neighborhood: size {len(stars)} exceeds claimed bound {xi}")
    return stars, depth


def star_partition_neighborhood(g: Graph, x: int, X: Iterable[int],
                                n: int) -> ConstructionTrace:
    """Partition {x} ∪ X into induced stars, X inside the neighborhood of
    x, by `_neighbourhood_stars` on a graph free of K_n and S~_n.

    A vertex outside V(G) raises IndexOutOfRange.
    """
    if n < 3:
        raise BadParameter("n >= 3 required")
    X = list(X)
    for v in (x, *X):
        if not 0 <= v < g.order:
            raise IndexOutOfRange(f"vertex {v} outside [0,{g.order})")
    X_mask = mask_of(X)
    if X_mask & ~g.adj[x]:
        raise BadInput("X must be a subset of the neighborhood of x")
    _check_free(g, (gen.complete(n), gen.s_tilde(n)))
    claimed = xi_value(n, n - 2)
    stars, depth = _neighbourhood_stars(g, x, X_mask, n, claimed.value)
    return _finish(g, 1 << x | X_mask, "star_partition_neighborhood", n,
                   {"depth": depth}, PieceKind.STAR, "partition", stars, claimed)


# -- bounded-diameter star cover / partition ---------------------------


def _dominator_buckets(h: Graph, n: int, precheck: bool,
                       third: Callable[[int], Graph]) -> tuple[list[int], dict[int, int]]:
    """The input checks of the bounded-diameter routines, then an exact
    minimum dominating set and its least-index dominator buckets.

    The freeness precheck forbids K_n, S*_n and `third(n)`.
    """
    if n < 3:
        raise BadParameter("n >= 3 required")
    if not is_connected(h):
        raise Disconnected("input must be connected")
    if precheck:
        _check_free(h, (gen.complete(n), gen.s_star(n), third(n)))
    U = min_dominating_set(h)
    U_mask = mask_of(U)
    return U, _least_neighbour_buckets(h, h.full_mask & ~U_mask, U_mask)


def insc_bounded(h: Graph, n: int, precheck: bool = True) -> ConstructionTrace:
    """Induced star cover: exact dominating set, one star per color class.

    Each dominator x covers its bucket with stars {x} ∪ T over the color
    classes T of an optimal proper coloring of the bucket.
    """
    U, buckets = _dominator_buckets(h, n, precheck, gen.f1)
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
    U, buckets = _dominator_buckets(h, n, precheck, gen.s_tilde)
    xi = xi_value(n, n - 2).value
    stars: list[int] = []
    sub_traces = []
    for x in U:
        got, depth = _neighbourhood_stars(h, x, buckets[x], n, xi)
        stars.extend(got)
        sub_traces.append({"center": x, "size": len(got), "depth": depth})
    claimed = BoundValue(None, Status.UPPER_BOUND_ONLY,
                         note="bound component not materialized")
    intermediate = {"dominating_set": list(U), "buckets": sub_traces,
                    "dominating_bound_check": "bound not computable"}
    return _finish(h, h.full_mask, "insp_bounded", n, intermediate,
                   PieceKind.STAR, "partition", stars, claimed)


# -- layered long-path machinery ---------------------------------------
#
# The long branch runs on the distance rings of the whole graph from the
# root (layer i is the mask rings[i]), the Q-path masks, their
# neighbourhoods and ν, each built once per construction, so every layer
# vertex costs a few mask operations wherever it is looked at.


class _LayeredState(NamedTuple):
    """State of the long-branch construction, built once by `_build_q_paths`."""

    g: Graph
    n: int
    root: int
    rings: tuple[int, ...]    # rings[i] = mask of layer i, distance i from the root
    nu: int                   # ν = R(n-1, n) - 1, the slice-size bound
    k: list[int]              # k[h], 1-based, for each Q_h, then 2n
    q_paths: list[list[int]]  # q_paths[h-1] = vertices of Q_h by layer
    q_masks: list[int]        # q_masks[h-1] = vertex mask of Q_h
    # q_near[h-1] = N[Q_h - root]: it leaves out the root's other
    # neighbours, on which the other Q-paths start
    q_near: list[int]


def _closed_neighbourhood(g: Graph, mask: int) -> int:
    adj, out = g.adj, mask
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def _parent(g: Graph, rings: Sequence[int], x: int, i: int) -> int:
    """Least-index neighbour of x, a vertex of layer i, in layer i - 1."""
    up = g.adj[x] & rings[i - 1]
    if not up:
        raise InternalInvariantBroken("layer vertex with no parent")
    return (up & -up).bit_length() - 1


def _build_q_paths(g: Graph, n: int, root: int, rings: tuple[int, ...],
                   nu: int) -> _LayeredState:
    k, q_paths, q_masks, q_near = [0], [], [], []
    adj, off_root = g.adj, ~(1 << root)

    def add(k_h: int, w: int) -> int:
        """Add Q_h, the shortest root->w path taking the least-index
        parent at each step, and return N[Q_h - root]."""
        q, x, q_mask = [w], w, 1 << w
        for j in range(k_h - 1, -1, -1):
            up = adj[x] & rings[j]
            if not up:
                raise InternalInvariantBroken("layer vertex with no parent")
            low = up & -up
            x = low.bit_length() - 1
            q.append(x)
            q_mask |= low
        q.reverse()
        k.append(k_h)
        q_paths.append(q)
        q_masks.append(q_mask)
        q_near.append(_closed_neighbourhood(g, q_mask & off_root))
        return q_near[-1]

    # Q_1: least-index vertex of the deepest layer
    depth = len(rings) - 1
    deepest = rings[depth]
    # N[Q_1 ∪ ... ∪ Q_h] on the layers the search looks at, all past layer 2n
    near = add(depth, (deepest & -deepest).bit_length() - 1)
    while k[-1] >= 3 * n + 2:
        far = ~near
        for i in range(k[-1] - n - 1, 2 * n, -1):
            # the least layer vertex neither on nor next to a Q-path
            cand = rings[i] & far
            if cand:
                near |= add(i, (cand & -cand).bit_length() - 1)
                break
        else:
            break
    k.append(2 * n)
    return _LayeredState(g, n, root, rings, nu, k, q_paths, q_masks, q_near)


def _check_q_claims(st: _LayeredState) -> None:
    n, adj, rings, h0 = st.n, st.g.adj, st.rings, len(st.q_paths)
    # layer membership: Q_h hits each layer 0..k_h exactly once
    for h, q in enumerate(st.q_paths, start=1):
        if len(q) != st.k[h] + 1:
            raise InternalInvariantBroken("Q-path length disagrees with its layer index")
    # paths meet only at the root, with no cross edges off the root
    root_bit = 1 << st.root
    for a in range(h0):
        for b in range(a + 1, h0):
            mb = st.q_masks[b] & ~root_bit
            if st.q_masks[a] & mb:
                raise InternalInvariantBroken("Q-paths share a non-root vertex")
            if st.q_near[a] & mb:
                raise InternalInvariantBroken("edge between distinct Q-paths")
    if h0 > n - 1:
        raise InternalInvariantBroken(f"number of Q-paths {h0} exceeds {n - 1}")
    # a layer vertex on or next to Q is pinned to the adjacent layer
    # vertices of Q, for layers n+1 .. k_h - n - 1.  Q's vertex in layer
    # i is q[i], so only the vertices next to Q and off it are looked
    # at; one next to q[j] lies in layer j - 1, j or j + 1.
    for h, (q, q_mask, near) in enumerate(
            zip(st.q_paths, st.q_masks, st.q_near), start=1):
        lo, hi = n + 1, st.k[h] - n
        if lo >= hi:
            continue
        at = {v: j for j, v in enumerate(q)}
        off = near & ~q_mask
        while off:
            low = off & -off
            off ^= low
            seen = adj[low.bit_length() - 1] & q_mask
            j = at[(seen & -seen).bit_length() - 1]
            if not lo - 1 <= j <= hi:
                continue
            i = j if rings[j] & low else j - 1 if rings[j - 1] & low else j + 1
            if lo <= i < hi and not adj[q[i - 1]] & adj[q[i + 1]] & low:
                raise InternalInvariantBroken(
                    "layer vertex near a Q-path misses its pinned neighbors")


def _stages(st: _LayeredState) -> tuple[list[tuple[int, range, int, int]], int]:
    """(p, J'_p, lo, hi) for each stage p whose band J_p, layers k[p+1]+1
    .. lo = k[p]-n-1, is not empty, and root_hi, k[p+1] of the last: J'_p
    is J_p less lo, and p's star block runs from lo to hi, k[1] for the
    first stage and k[p'+1] after stage p'.  Needs k[h0+1] = 2n."""
    n, k, stages, hi = st.n, st.k, [], st.k[1]
    for p in range(1, len(st.q_paths) + 1):
        lo = k[p] - n - 1
        if lo > k[p + 1]:
            stages.append((p, range(k[p + 1] + 1, lo), lo, hi))
            hi = k[p + 1]
    if not stages:
        raise InternalInvariantBroken("no non-trivial layer band in the long branch")
    return stages, hi


def _slices(st: _LayeredState, h: int, i: int) -> list[list[int]]:
    """Partition layer i among the first h Q-paths by adjacency, each
    slice in vertex order.  For i > 1 only (bands lie above layer 2n): no
    vertex there sees the root, so Q_l's slice is rings[i] & q_near[l].
    The least vertex seeing no Q-path or two decides the message."""
    layer = st.rings[i]
    masks = [layer & near for near in st.q_near[:h]]
    seen = twice = 0
    for m in masks:
        twice |= seen & m
        seen |= m
    fault = (layer & ~seen) | twice
    if fault:
        if twice & fault & -fault:  # the least faulty vertex sees two
            raise InternalInvariantBroken(
                "band-layer vertex sees two Q-paths; slices not disjoint")
        raise InternalInvariantBroken("band-layer vertex sees no earlier Q-path")
    if any(m.bit_count() > st.nu for m in masks):
        raise InternalInvariantBroken("slice larger than the Ramsey bound")
    if layer.bit_count() > h * st.nu:
        raise InternalInvariantBroken("layer larger than the Ramsey bound")
    return [list(bits(m)) for m in masks]


def _woven_paths(st: _LayeredState, p: int, band: range) -> list[int]:
    """Induced path cover of the band layers `band` at stage p, as vertex masks.

    Path j of Q_l takes the j-th vertex of Q_l's slice in each band
    layer, or the slice's last one where the slice is narrower.  So Q_l
    gets as many paths as its widest slice in the band, which `_slices`
    bounds by ν: a further path would repeat the last.  The slices of
    distinct Q-paths are disjoint, and no two paths are the same set.
    """
    per_layer = [_slices(st, p, i) for i in band]
    masks = []
    for l in range(p):
        column = [slices[l] for slices in per_layer]
        if not all(column):
            raise InternalInvariantBroken("empty slice inside a band layer")
        for j in range(max(map(len, column))):
            masks.append(mask_of(sl[min(j, len(sl) - 1)] for sl in column))
    return masks


def _band_segments(st: _LayeredState, p: int, band: range) -> list[int]:
    """Path partition of the band layers `band`: each Q-path's mask ANDed
    with the band's layers, since Q_l meets layer i in q_l[i] alone."""
    layers = sum(st.rings[i] for i in band)
    out = [st.q_masks[l] & layers for l in range(p)]
    covered = 0
    for seg in out:
        covered |= seg
    if covered != layers:
        raise InternalInvariantBroken(
            "band layer leaves the Q-paths; path partition impossible")
    return out


def _forest_blocks(st: _LayeredState, lo: int, hi: int) -> list[tuple[int, list[int]]]:
    """Split layers lo..hi (lo < hi) by least-index parent forests.

    Returns (root_vertex, vertices) per component, sorted by root.  Each
    vertex of layer lo owns its component; layer by layer, every later
    vertex joins the component of its least-index parent.
    """
    owner = {x: x for x in bits(st.rings[lo])}
    for i in range(lo + 1, hi + 1):
        for x in bits(st.rings[i]):
            owner[x] = owner[_parent(st.g, st.rings, x, i)]
    comps: dict[int, list[int]] = {}
    for x, root in owner.items():
        comps.setdefault(root, []).append(x)
    return sorted(comps.items())


def _star_blocks(st: _LayeredState, lo: int, hi: int,
                 bounded: Callable[..., ConstructionTrace],
                 max_diam: int, max_blocks: Optional[int]) -> list[int]:
    """Star cover/partition of layers lo..hi: `bounded` on each component."""
    g, n = st.g, st.n
    blocks = _forest_blocks(st, lo, hi)
    if max_blocks is not None and len(blocks) > max_blocks:
        raise InternalInvariantBroken(
            f"{len(blocks)} forest components exceed the bound {max_blocks}")
    stars = []
    for root, verts in blocks:
        verts = sorted(verts)
        sub = g.subgraph(verts)
        rings = distance_rings(sub, verts.index(root))
        if sum(rings) != sub.full_mask:
            raise InternalInvariantBroken("forest component not connected in g")
        depth = len(rings) - 1
        if depth > max_diam:
            raise InternalInvariantBroken(
                f"component eccentricity {depth} exceeds {max_diam}")
        t = bounded(sub, n, precheck=False)
        for piece in t.result.pieces:
            stars.append(mask_of(verts[v] for v in piece))
    return stars


def _sp_construct(g: Graph, n: int, root: int, mode: str) -> ConstructionTrace:
    if n < 4:
        raise BadParameter("n >= 4 required")
    if not 0 <= root < g.order:
        raise BadParameter("root out of range")
    rings = distance_rings(g, root)
    if sum(rings) != g.full_mask:
        raise Disconnected("input must be connected")
    # the one place that tells cover from partition; the routines are
    # looked up by their module names on each run, as tracers wrap them
    cover = mode == "cover"
    bounded = insc_bounded if cover else insp_bounded
    band_pieces = _woven_paths if cover else _band_segments
    _check_free(g, target_family("inspc" if cover else "inspp", n))
    algorithm = f"sp_{mode}_construct"

    d = len(rings) - 1
    bound_note = BoundValue(None, Status.UPPER_BOUND_ONLY,
                            note="bound component not materialized")
    if d <= n * n + 2 * n - 1:
        t = bounded(g, n, precheck=False)
        intermediate = {"branch": "small_diameter", "depth": d,
                        "delegate": t.intermediate}
        return ConstructionTrace(algorithm, n, intermediate, t.result, bound_note)

    st = _build_q_paths(g, n, root, rings, nu_value(n).value)
    _check_q_claims(st)
    stages, root_hi = _stages(st)
    pieces: list[int] = []
    band_logs = []
    for p, band, _, _ in stages:
        got = band_pieces(st, p, band) if band else []
        pieces.extend(got)
        band_logs.append({"stage": p, "layers": [band.start, band.stop - 1],
                          "paths": len(got)})
    block_logs = []
    for block, (_, _, lo, hi) in enumerate(stages, start=1):
        stars = _star_blocks(st, lo, hi, bounded, n * n - 1, (n - 1) * st.nu)
        pieces.extend(stars)
        block_logs.append({"block": block, "layers": [lo, hi],
                           "stars": len(stars)})
    if root_hi > n * n + 2 * n - 1:
        raise InternalInvariantBroken("root block deeper than the diameter bound")
    stars = _star_blocks(st, 0, root_hi, bounded, n * n + 2 * n - 1, None)
    pieces.extend(stars)
    block_logs.append({"block": "root", "layers": [0, root_hi], "stars": len(stars)})

    intermediate = {
        "branch": "long",
        "depth": d,
        "k": st.k[1:],
        "q_paths": [list(q) for q in st.q_paths],
        "stages_with_band": [p for p, *_ in stages],
        "bands": band_logs,
        "blocks": block_logs,
    }
    return _finish(g, g.full_mask, algorithm, n, intermediate, PieceKind.SP_ANY,
                   mode, pieces, bound_note)


def sp_cover_construct(g: Graph, n: int, root: int = 0) -> ConstructionTrace:
    """Induced star/path cover of a connected graph by the layered construction."""
    return _sp_construct(g, n, root, "cover")


def sp_partition_construct(g: Graph, n: int, root: int = 0) -> ConstructionTrace:
    """Induced star/path partition of a connected graph, layered construction."""
    return _sp_construct(g, n, root, "partition")


# -- certificate conversions -------------------------------------------


def _keep_kind(g: Graph, cert: PieceCertificate, keep: PieceKind, n: int,
               too_big: Callable[[int], Exception]) -> PieceCertificate:
    """Keep the pieces of kind `keep` and split every other piece into
    singletons; a piece too big for a graph free of n-vertex induced
    paths (keeping stars) or of n-leaf induced stars (keeping paths)
    raises `too_big(its size)` instead."""
    if n < 1:
        raise BadParameter(f"n >= 1 required, got {n}")
    limit = n - 1 if keep is PieceKind.STAR else n
    if not validate_certificate(g, cert):
        raise BadInput("certificate does not validate")
    out: list[tuple[int, ...]] = []
    for piece in cert.pieces:
        if piece_shape_mask(g, mask_of(piece), keep):
            out.append(piece)
        elif len(piece) > limit:
            raise too_big(len(piece))
        else:
            out.extend((v,) for v in piece)
    return PieceCertificate(keep, cert.mode, tuple(out), False,
                            1 if g.order else 0)


def cover_to_star_cover(g: Graph, cert: PieceCertificate, n: int) -> PieceCertificate:
    """Replace path pieces by singletons; sound when long paths are forbidden.

    Pieces that are stars (including P_1/P_2/P_3, which are both) are
    kept as stars.
    """
    return _keep_kind(g, cert, PieceKind.STAR, n, lambda k: PathTooLong(
        f"path piece with {k} vertices in a graph meant "
        f"to have no {n}-vertex induced path"))


def cover_to_path_cover(g: Graph, cert: PieceCertificate, n: int) -> PieceCertificate:
    """Replace star pieces by singletons; sound when big stars are forbidden.

    Pieces that are paths (including P_1/P_2/P_3) are kept as paths.
    """
    return _keep_kind(g, cert, PieceKind.PATH, n, lambda k: StarTooLarge(
        f"star piece with {k} vertices in a graph meant "
        f"to have no induced {n}-leaf star"))
