"""Exact solvers for star/path cover and partition invariants.

All solvers are exact branch-and-bound / memoized searches over bitmask
states.  A timeout never raises: the result carries the best incumbent
found together with ``optimal=False`` and a valid lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import BadInput, Disconnected
from .graph import (Graph, PieceKind, bfs_layering, bits, distances_from,
                    is_connected, mask_of, piece_shape_mask)
from . import generators as gen

# invariant name -> (piece kind, mode)
INVARIANT_SPECS = {
    "inspc": (PieceKind.SP_ANY, "cover"),
    "inspp": (PieceKind.SP_ANY, "partition"),
    "insc": (PieceKind.STAR, "cover"),
    "insp": (PieceKind.STAR, "partition"),
    "inpc": (PieceKind.PATH, "cover"),
    "inpp": (PieceKind.PATH, "partition"),
    "ispc": (PieceKind.ISOMETRIC_PATH, "cover"),
    "ispp": (PieceKind.ISOMETRIC_PATH, "partition"),
}


@dataclass(frozen=True)
class SolveConfig:
    timeout: Optional[float] = None


@dataclass(frozen=True)
class PieceCertificate:
    """A cover or partition by pieces, with optimality metadata."""

    kind: PieceKind
    mode: str  # "cover" or "partition"
    pieces: tuple[tuple[int, ...], ...]
    optimal: bool
    lower_bound: int

    @property
    def value(self) -> int:
        return len(self.pieces)


class _Deadline:
    def __init__(self, timeout: Optional[float]):
        self.at = None if timeout is None else time.monotonic() + timeout

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at


class _TimeUp(Exception):
    pass


# -- piece enumeration -------------------------------------------------


def _independent_subsets(g: Graph, within: int):
    """All independent subsets of `within` (including the empty set)."""
    verts = list(bits(within))

    def rec(i: int, mask: int, forbidden: int):
        yield mask
        for j in range(i, len(verts)):
            v = verts[j]
            if forbidden >> v & 1:
                continue
            yield from rec(j + 1, mask | 1 << v, forbidden | g.adj[v])
    yield from rec(0, 0, 0)


def _maximal_independent_sets(g: Graph, within: int):
    """Bron-Kerbosch on the subgraph induced by `within`, with a pivot."""
    out = []

    def bk(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        # a set avoiding the pivot u and its neighbours could still take u
        u = min(bits(p | x), key=lambda w: (p & (g.adj[w] | 1 << w)).bit_count())
        for v in list(bits(p & (g.adj[u] | 1 << u))):
            p &= ~(1 << v)
            keep = ~g.adj[v] & ~(1 << v)
            bk(r | 1 << v, p & keep, x & keep)
            x |= 1 << v

    bk(0, within, 0)
    return out


def _maximal_stars(g: Graph) -> set[int]:
    """Maximal induced stars: a centre plus a maximal independent set of
    its neighbourhood.

    Only a 2-vertex star {c, l} can lie in another star: one centred at l,
    when l has a neighbour outside N[c].
    """
    out: set[int] = set()
    for c in range(g.order):
        closed = g.adj[c] | 1 << c
        for leaves in _maximal_independent_sets(g, g.adj[c]):
            if leaves.bit_count() == 1 and g.adj[leaves.bit_length() - 1] & ~closed:
                continue
            out.add(1 << c | leaves)
    return out


def _maximal_paths(g: Graph, isometric: bool) -> list[int]:
    """Inclusion-maximal induced (or isometric) paths, each once.

    A path lies in a larger one of its kind only as a contiguous segment,
    so it is maximal when it extends at neither end.  The search from
    `start` grows the path at `last` and keeps a leaf that does not extend
    at `start` either, from its smaller end.  An induced path extends at
    `last` by a neighbour outside `mask | near`, and at `start` by one
    outside `mask | far`, where `near` and `far` are the neighbours of the
    path without `last` and without `start`.  An isometric path of k
    vertices extends by a neighbour at distance k from the other end.
    """
    adj = g.adj
    # ring[v][d]: the vertices at distance d from v; empty past the last layer
    ring = [[mask_of(layer) for layer in bfs_layering(g, v).layers] + [0]
            for v in range(g.order)] if isometric else None
    out = []
    for start in range(g.order):
        stack = [(start, 1 << start, 0, 0)]
        while stack:
            last, mask, near, far = stack.pop()
            if isometric:
                k = mask.bit_count()
                ext, back = adj[last] & ring[start][k], adj[start] & ring[last][k]
            else:
                ext, back = adj[last] & ~(mask | near), adj[start] & ~(mask | far)
            if not ext:
                if start <= last and not back:
                    out.append(mask)
                continue
            near |= adj[last]
            for w in bits(ext):
                stack.append((w, mask | 1 << w, near, far | adj[w]))
    return out


def _isometric_filter(g: Graph, path_masks: Iterable[int]) -> set[int]:
    dist_cache: dict[int, tuple] = {}
    out = set()
    for mask in path_masks:
        ends = [v for v in bits(mask) if (g.adj[v] & mask).bit_count() <= 1]
        if ends[0] not in dist_cache:
            dist_cache[ends[0]] = distances_from(g, ends[0])
        if dist_cache[ends[0]][ends[-1]] == mask.bit_count() - 1:
            out.add(mask)
    return out


def enumerate_maximal_pieces(g: Graph, kind: PieceKind) -> list[int]:
    """All inclusion-maximal piece vertex sets, as bitmasks sorted by
    (-size, mask).

    For covers only maximal pieces matter: any cover piece may be grown
    to a maximal one without breaking the cover.
    """
    if kind is PieceKind.STAR:
        cand = _maximal_stars(g)
    elif kind is PieceKind.PATH or kind is PieceKind.ISOMETRIC_PATH:
        cand = _maximal_paths(g, kind is PieceKind.ISOMETRIC_PATH)
    elif kind is PieceKind.SP_ANY:
        # K_1, K_2 and P_3 are of both shapes: keep them if maximal as each
        stars, paths = _maximal_stars(g), set(_maximal_paths(g, False))
        cand = {m for m in stars | paths
                if m.bit_count() > 3 or (m in stars and m in paths)}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return sorted(cand, key=lambda m: (-m.bit_count(), m))


def _star_masks_at(g: Graph, within: int, v: int) -> set[int]:
    """Star vertex sets containing v inside `within` (incl. {v})."""
    out = {1 << v}
    # v as center
    for leaves in _independent_subsets(g, g.adj[v] & within):
        out.add(1 << v | leaves)
    # v as a leaf of center c
    for c in bits(g.adj[v] & within):
        pool = g.adj[c] & within & ~g.adj[v] & ~(1 << v)
        for rest in _independent_subsets(g, pool):
            out.add(1 << c | 1 << v | rest)
    return out


def _path_masks_at(g: Graph, within: int, v: int) -> set[int]:
    """Induced-path vertex sets containing v inside `within`.

    Each path grows from v at its `last` end, and also at its `left` end
    while `grow_left` holds; a path that has grown at `last` stops growing
    at `left`, so every path is reached by left steps, then right steps.
    """
    out: set[int] = set()
    stack = [(v, v, 1 << v, True)]
    while stack:
        left, last, mask, grow_left = stack.pop()
        out.add(mask)
        for w in bits(g.adj[last] & within & ~mask):
            if g.adj[w] & mask == 1 << last:
                stack.append((left, w, mask | 1 << w, False))
        if grow_left:
            for w in bits(g.adj[left] & within & ~mask):
                if g.adj[w] & mask == 1 << left:
                    stack.append((w, last, mask | 1 << w, True))
    return out


def pieces_at(g: Graph, within: int, v: int, kind: PieceKind) -> list[int]:
    """All piece vertex sets containing v inside `within`, largest first."""
    if kind is PieceKind.STAR:
        cand = _star_masks_at(g, within, v)
    elif kind is PieceKind.PATH:
        cand = _path_masks_at(g, within, v)
    elif kind is PieceKind.ISOMETRIC_PATH:
        cand = _isometric_filter(g, _path_masks_at(g, within, v))
    elif kind is PieceKind.SP_ANY:
        cand = _star_masks_at(g, within, v) | _path_masks_at(g, within, v)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return sorted(cand, key=lambda m: (-m.bit_count(), m))


# -- exact solvers -----------------------------------------------------


def _greedy_partition(g: Graph, kind: PieceKind) -> list[int]:
    out = []
    u = g.full_mask
    while u:
        v = next(bits(u))
        piece = pieces_at(g, u, v, kind)[0]
        out.append(piece)
        u &= ~piece
    return out


def _greedy_cover(g: Graph, pieces: list[int]) -> list[int]:
    out = []
    u = g.full_mask
    while u:
        best = max(pieces, key=lambda m: (m & u).bit_count())
        if not best & u:
            raise BadInput("pieces do not cover the graph")
        out.append(best)
        u &= ~best
    return out


def _search(g: Graph, kind: PieceKind, mode: str, branch, max_size: int,
            incumbent: list[int], deadline: _Deadline) -> PieceCertificate:
    """Memoized branch and bound over the set u of vertices left to take.

    `branch(u)` lists the pieces to try next.  On timeout the result is
    the incumbent with the bound ceil(n / max_size).
    """
    memo: dict[int, tuple[int, tuple[int, ...]]] = {}

    def solve(u: int) -> tuple[int, tuple[int, ...]]:
        if not u:
            return 0, ()
        if u in memo:
            return memo[u]
        if deadline.expired():
            raise _TimeUp()
        best: Optional[tuple[int, tuple[int, ...]]] = None
        for m in branch(u):
            rest = u & ~m
            if best is not None and 1 + -(-rest.bit_count() // max_size) >= best[0]:
                continue
            val, seq = solve(rest)
            if best is None or 1 + val < best[0]:
                best = (1 + val, (m,) + seq)
        memo[u] = best
        return best

    try:
        val, masks = solve(g.full_mask)
        optimal = True
    except _TimeUp:
        val, masks, optimal = -(-g.order // max_size), incumbent, False
    pieces = tuple(tuple(bits(m)) for m in masks)
    return PieceCertificate(kind, mode, pieces, optimal, val)


def min_cover(g: Graph, kind: PieceKind,
              config: SolveConfig = SolveConfig()) -> PieceCertificate:
    """Minimum number of pieces whose union is V(G), pieces may overlap."""
    if g.order == 0:
        return PieceCertificate(kind, "cover", (), True, 0)
    deadline = _Deadline(config.timeout)
    pieces = enumerate_maximal_pieces(g, kind)
    max_size = max(m.bit_count() for m in pieces)
    incumbent = _greedy_cover(g, pieces)
    by_vertex = {v: [m for m in pieces if m >> v & 1] for v in range(g.order)}

    def branch(u: int) -> list[int]:
        # the uncovered vertex with fewest candidate pieces
        v = min(bits(u), key=lambda w: len(by_vertex[w]))
        return sorted(by_vertex[v], key=lambda x: -(x & u).bit_count())

    return _search(g, kind, "cover", branch, max_size, incumbent, deadline)


def min_partition(g: Graph, kind: PieceKind,
                  config: SolveConfig = SolveConfig()) -> PieceCertificate:
    """Minimum number of disjoint pieces whose union is V(G)."""
    if g.order == 0:
        return PieceCertificate(kind, "partition", (), True, 0)
    deadline = _Deadline(config.timeout)
    max_size = max(m.bit_count() for m in enumerate_maximal_pieces(g, kind))
    incumbent = _greedy_partition(g, kind)
    return _search(g, kind, "partition",
                   lambda u: pieces_at(g, u, next(bits(u)), kind),
                   max_size, incumbent, deadline)


def invariant_value(g: Graph, name: str,
                    config: SolveConfig = SolveConfig()) -> PieceCertificate:
    """Solve one of the eight named invariants exactly."""
    if name not in INVARIANT_SPECS:
        raise ValueError(f"unknown invariant {name!r}")
    kind, mode = INVARIANT_SPECS[name]
    if mode == "cover":
        return min_cover(g, kind, config)
    return min_partition(g, kind, config)


def validate_certificate(g: Graph, cert: PieceCertificate) -> bool:
    """Check shapes and the cover/partition property; raises on bad pieces."""
    total = 0
    for piece in cert.pieces:
        mask = mask_of(piece)
        if not piece_shape_mask(g, mask, cert.kind):
            return False
        if cert.mode == "partition" and total & mask:
            return False
        total |= mask
    return total == g.full_mask


# -- classical subroutines ---------------------------------------------


def clique_number(g: Graph) -> int:
    best = 0

    def expand(r_size: int, p: int):
        nonlocal best
        if not p:
            best = max(best, r_size)
            return
        while p:
            if r_size + p.bit_count() <= best:
                return
            v = next(bits(p))
            p &= ~(1 << v)
            expand(r_size + 1, p & g.adj[v])

    expand(0, g.full_mask)
    return best


def independence_number(g: Graph) -> int:
    return clique_number(gen.complement(g))


def chromatic_coloring(g: Graph) -> list[int]:
    """An optimal proper coloring as a list of color-class masks."""
    if g.order == 0:
        return []
    order = sorted(range(g.order), key=lambda v: -g.degree(v))
    lo = clique_number(g)

    def colorable(k: int) -> Optional[list[int]]:
        colors = [-1] * g.order

        def assign(i: int, used_max: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            used = {colors[w] for w in bits(g.adj[v]) if colors[w] >= 0}
            for c in range(min(k, used_max + 2)):
                if c in used:
                    continue
                colors[v] = c
                if assign(i + 1, max(used_max, c)):
                    return True
                colors[v] = -1
                if c > used_max:
                    break  # fresh colors are interchangeable
            return False
        if not assign(0, -1):
            return None
        classes = [0] * k
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        return [m for m in classes if m]

    k = lo
    while True:
        got = colorable(k)
        if got is not None:
            return got
        k += 1


def chromatic_number(g: Graph) -> int:
    return len(chromatic_coloring(g))


def min_dominating_set(g: Graph) -> list[int]:
    """A minimum dominating set (as a sorted vertex list)."""
    if g.order == 0:
        return []
    if not is_connected(g):
        raise Disconnected("dominating-set subroutine requires a connected graph")
    closed = [g.adj[v] | 1 << v for v in range(g.order)]
    max_size = max(m.bit_count() for m in closed)
    # greedy incumbent
    u = g.full_mask
    greedy = []
    while u:
        v = max(range(g.order), key=lambda w: (closed[w] & u).bit_count())
        greedy.append(v)
        u &= ~closed[v]
    best = [len(greedy), sorted(greedy)]
    memo: dict[int, int] = {}

    def solve(u: int, chosen: list[int]):
        if not u:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = sorted(chosen)
            return
        if len(chosen) + -(-u.bit_count() // max_size) >= best[0]:
            return
        prev = memo.get(u)
        if prev is not None and prev <= len(chosen):
            return
        memo[u] = len(chosen)
        # branch on the undominated vertex with fewest dominators
        v = min(bits(u), key=lambda w: closed[w].bit_count())
        for d in sorted(bits(closed[v]), key=lambda w: -(closed[w] & u).bit_count()):
            chosen.append(d)
            solve(u & ~closed[d], chosen)
            chosen.pop()

    solve(g.full_mask, [])
    return best[1]
