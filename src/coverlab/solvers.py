"""Exact solvers for star/path cover and partition invariants.

All solvers are exact branch-and-bound / memoized searches over bitmask
states.  A timeout never raises: the result carries the best solution
found together with ``optimal=False`` and a valid lower bound.
"""

from __future__ import annotations

import math
import time
from functools import wraps
from itertools import chain, tee
from typing import (Callable, Iterable, Iterator, NamedTuple, Optional, Sequence,
                    TypeVar)

from .errors import Disconnected
from .graph import Graph, PieceKind, bits, certificate_fault, is_connected, mask_of

# invariant name -> (piece kind, mode), in the order the CLI and verify list them
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


class PieceCertificate(NamedTuple):
    """A cover or partition by pieces, with optimality metadata."""

    kind: PieceKind
    mode: str  # "cover" or "partition"
    pieces: tuple[tuple[int, ...], ...]
    optimal: bool
    lower_bound: int

    @property
    def value(self) -> int:
        return len(self.pieces)


# -- piece enumeration -------------------------------------------------


T = TypeVar("T")


def _per_graph(build: Callable[[Graph], T]) -> Callable[[Graph], T]:
    """`build(g)`, made once per graph and kept in `g.__dict__`, the store
    of `functools.cached_property` (`Graph.rings`, `Graph.components`),
    so it lives exactly as long as g.  The key holds a dot, so no field
    or attribute can clash with it.  Every later call returns the same
    object, so `build` returns an immutable one."""
    key = f"solvers.{build.__name__}"

    @wraps(build)
    def shared(g: Graph) -> T:
        held = g.__dict__
        if key not in held:
            held[key] = build(g)
        return held[key]
    shared.key = key
    return shared


def _independent_subsets(g: Graph, within: int, size: int) -> list[int]:
    """The independent subsets of `within` of `size` vertices.

    Each set grows by the vertices above its greatest one that it does
    not see, on an explicit stack.  A full set stops, and a set is not
    grown by a vertex above which too few are left to fill it.
    """
    if size < 0:
        return []
    out = []
    stack = [(0, within)]
    while stack:
        s, cand = stack.pop()
        need = size - s.bit_count()
        if not need:
            out.append(s)
            continue
        for w in bits(cand):
            cand ^= 1 << w
            if cand.bit_count() < need - 1:
                break
            stack.append((s | 1 << w, cand & ~g.adj[w]))
    return out


def _independence_number(g: Graph, within: int, floor: int) -> int:
    """The independence number of g[within], or `floor` if that is more.

    Branch and bound on an explicit stack.  A vertex with at most one
    neighbour left lies in some largest independent set, so it is taken
    at once; otherwise the search takes or drops a vertex of most
    neighbours left, and drops a branch that cannot beat the best.
    """
    adj, best = g.adj, floor
    stack = [(0, within)]
    while stack:
        size, p = stack.pop()
        while p:
            if size + p.bit_count() <= best:
                break
            for w in bits(p):
                nb = adj[w] & p
                if nb & (nb - 1) == 0:
                    size, p = size + 1, p & ~(nb | 1 << w)
                    break
            else:
                v = max(bits(p), key=lambda w: (adj[w] & p).bit_count())
                stack.append((size, p & ~(1 << v)))
                stack.append((size + 1, p & ~(adj[v] | 1 << v)))
                break
        else:
            best = max(best, size)
    return best


def _clique_cover_size(g: Graph, within: int) -> int:
    """The number of cliques in a greedy clique cover of g[within]: each
    clique grows from the least vertex left by the least vertex it sees."""
    count = 0
    while within:
        count += 1
        cand = within
        while cand:
            v = (cand & -cand).bit_length() - 1
            within &= ~(1 << v)
            cand &= g.adj[v]
    return count


@_per_graph
def _largest_star(g: Graph) -> int:
    """The order of a largest induced star: 1 + max_c alpha(N(c)), found
    once per graph, for `insp` and `inspp` both.

    alpha is at most the number of cliques in any clique cover, so a
    centre whose neighbourhood has a greedy cover by at most best - 1
    cliques cannot beat the best, and is skipped.
    """
    best = 1
    for c in g.by_degree:
        if 1 + g.degrees[c] <= best:
            break
        if _clique_cover_size(g, g.adj[c]) < best:
            continue
        best = 1 + _independence_number(g, g.adj[c], best - 1)
    return best


def _maximal_independent_sets(g: Graph, within: int) -> list[int]:
    """Bron-Kerbosch on the subgraph induced by `within`, with a pivot,
    on an explicit stack.

    The branch on the i-th candidate v drops the candidates before it
    from p and moves them to x, which does not depend on what the
    branches before it found, so all of a node's branches are pushed at
    once.  When p has no edge inside it, r | p is the one set left to
    find, and it is maximal unless some vertex of x sees none of p; so an
    independent neighbourhood of k vertices costs O(k), not k pivots.
    """
    adj, out = g.adj, []
    stack = [(0, within, 0)]
    while stack:
        r, p, x = stack.pop()
        if not any(adj[w] & p for w in bits(p)):
            if all(adj[w] & p for w in bits(x)):
                out.append(r | p)
            continue
        # a set avoiding the pivot u and its neighbours could still take u
        u = min(bits(p | x), key=lambda w: (p & (adj[w] | 1 << w)).bit_count())
        for v in bits(p & (adj[u] | 1 << u)):
            p &= ~(1 << v)
            keep = ~adj[v] & ~(1 << v)
            stack.append((r | 1 << v, p & keep, x & keep))
            x |= 1 << v
    return out


@_per_graph
def _maximal_stars(g: Graph) -> frozenset[int]:
    """Maximal induced stars: a centre plus a maximal independent set of
    its neighbourhood; listed once per graph, for `insc` and `inspc`
    both.

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
    return frozenset(out)


def _paths_at(g: Graph, within: int, v: int,
              ring: Optional[Sequence[Sequence[int]]], maximal: bool) -> list[int]:
    """The induced paths inside `within` that contain v, each once, or
    with `maximal` only those that extend at neither end in g.  Given g's
    distance rings, only the isometric paths.

    A path through v is a left arm from v, then a right arm from v.  The
    left arm grows first; the right arm starts only once the left one
    has, and only at a neighbour of v above the left arm's first vertex
    `a`, so each path is reached in one orientation.  A path with ends l
    and r grows at l by a neighbour outside the path that sees none of
    its other vertices: none of r's neighbours, and none of `inner`, the
    neighbours of the vertices between the ends.  An isometric path of k
    vertices grows at l by a neighbour at distance k from r.  A path
    lies in a larger one of its kind only as a contiguous segment, so it
    is maximal when it grows at neither end in g.
    """
    adj = g.adj
    out = [] if maximal and adj[v] else [1 << v]
    stack = [(w, v, 1 << v | 1 << w, 0, w) for w in bits(adj[v] & within)]
    # extension masks are walked lowest bit first, inline, so that no
    # `bits` generator is built per popped path
    while stack:
        l, r, mask, inner, a = stack.pop()
        if ring is None:
            seen = mask | inner
            grow_l, grow_r = adj[l] & ~(seen | adj[r]), adj[r] & ~(seen | adj[l])
        else:
            k = mask.bit_count()
            grow_l, grow_r = adj[l] & ring[r][k], adj[r] & ring[l][k]
        if not (maximal and (grow_l or grow_r)):
            out.append(mask)
        if r == v:  # no right arm yet: grow the left one, or start one above a
            ext, grown = grow_l & within, inner | adj[l]
            while ext:
                low = ext & -ext
                stack.append((low.bit_length() - 1, r, mask | low, grown, a))
                ext ^= low
            grow_r &= ~((2 << a) - 1)
        ext, grown = grow_r & within, inner | adj[r]
        while ext:
            low = ext & -ext
            stack.append((l, low.bit_length() - 1, mask | low, grown, a))
            ext ^= low
    return out


@_per_graph
def _maximal_paths(g: Graph) -> tuple[int, ...]:
    """The maximal induced paths, from the walks `_paths_at(g, V>=v, v,
    None, True)` over all v: each path once, from its least vertex.
    Listed once per graph, for `inpc` and `inspc` both."""
    full = g.full_mask
    return tuple(m for v in range(g.order)
                 for m in _paths_at(g, full >> v << v, v, None, True))


@_per_graph
def _longest_path(g: Graph) -> int:
    """The order of a longest induced path, found once per graph, for
    `inpp` and `inspp` both.  It is maximal, so when g already holds its
    maximal paths it is the largest of them.  Else: it lies inside V>=v
    for its least vertex v, so it is among the maximal paths that
    `_paths_at` walks from v; the walks stop once no n - v vertices left
    could hold a longer one, and are not kept."""
    if _maximal_paths.key in g.__dict__:
        return max(map(int.bit_count, _maximal_paths(g)), default=0)
    best, full = 0, g.full_mask
    for v in range(g.order):
        if best >= g.order - v:
            break
        maximal = _paths_at(g, full >> v << v, v, None, True)
        best = max([best, *map(int.bit_count, maximal)])
    return best


def enumerate_maximal_pieces(g: Graph, kind: PieceKind) -> list[int]:
    """All inclusion-maximal piece vertex sets, as bitmasks sorted by
    (-size, mask), in a new list.  Only covers use them: any cover piece
    may be grown to a maximal one without breaking the cover; a partition
    reads only the largest piece size, from `_largest_star`,
    `_longest_path` or `Graph.rings`.  The stars and the ring-free paths
    come from `_maximal_stars` and `_maximal_paths`, kept per graph; the
    isometric paths are walked here.
    """
    if not isinstance(kind, PieceKind):
        raise ValueError(f"unknown kind {kind!r}")
    if kind is PieceKind.STAR:
        cand: Iterable[int] = _maximal_stars(g)
    elif kind is PieceKind.ISOMETRIC_PATH:
        # each path is walked once: from its least vertex v, inside V>=v
        cand = [m for v in range(g.order)
                for m in _paths_at(g, g.full_mask >> v << v, v, g.rings, True)]
    else:
        cand = _maximal_paths(g)
    if kind is PieceKind.SP_ANY:
        # K_1, K_2 and P_3 are of both shapes: keep them if maximal as each
        stars, paths = _maximal_stars(g), set(cand)
        cand = [m for m in stars | paths
                if m.bit_count() > 3 or (m in stars and m in paths)]
    return _largest_first(cand)


def _largest_first(masks: Iterable[int]) -> list[int]:
    """`masks` sorted by (-size, mask), with C-level keys: the sort by
    size is stable, also in reverse, so it keeps the mask order."""
    return sorted(sorted(masks), key=int.bit_count, reverse=True)


def _star_masks_at(g: Graph, within: int, v: int, size: int) -> list[int]:
    """The star vertex sets of `size` vertices containing v inside
    `within`, each once.

    v is the centre with independent leaves in its neighbourhood, or a
    leaf of a centre c with further leaves that do not see v.  A star of
    two vertices has both as centres, so it is listed with v as one; a
    larger star has one centre.
    """
    near = g.adj[v] & within
    out = [1 << v | leaves for leaves in _independent_subsets(g, near, size - 1)]
    if size <= 2:
        return out
    for c in bits(near):
        pool = g.adj[c] & within & ~near & ~(1 << v)
        out += [1 << c | 1 << v | rest
                for rest in _independent_subsets(g, pool, size - 2)]
    return out


def pieces_at(g: Graph, within: int, v: int, kind: PieceKind,
              size: Optional[int] = None) -> list[int]:
    """The pieces containing v inside `within`: for `STAR`, those of
    `size` vertices, sorted by mask; for a path kind, with no `size`,
    all of them, sorted by (-size, mask).  Any other call raises
    ValueError."""
    if kind is PieceKind.STAR and size is not None:
        return sorted(_star_masks_at(g, within, v, size))
    if (kind is PieceKind.PATH or kind is PieceKind.ISOMETRIC_PATH) and size is None:
        ring = g.rings if kind is PieceKind.ISOMETRIC_PATH else None
        return _largest_first(_paths_at(g, within, v, ring, False))
    raise ValueError(f"pieces_at lists stars by size and paths unsized, not "
                     f"{kind!r} with size {size!r}")


# -- exact solvers -----------------------------------------------------


def _search(full: int, max_size: int, branch: Callable[[int, bool], Iterable[int]],
            deadline: float) -> tuple[int, Sequence[int], bool]:
    """The fewest pieces from `branch` whose union is `full`, as (value,
    pieces, optimal): memoized branch and bound, depth first on an
    explicit stack, over the set u of vertices left to take.

    `branch(u, whole)` lists the pieces that may take one vertex of u,
    best first, so the vertices of u left after each are never fewer
    than after the one before: the first candidate cut off by the bound
    ceil(|u| / max_size) ends the node, and so does a solution that meets
    that bound.  A node u entered under `limit` looks only for solutions
    of fewer than `limit` pieces: it answers the optimum of u if that is
    below `limit`, and else a lower bound of at least `limit` with no
    pieces.  At a limit of 2 only a piece that holds all of u can be
    entered, and only the first one is: `whole` says so, and the branch
    may then list just the first piece it would list that holds u, or
    none.  The memo keeps either kind of answer; a lower bound too low
    for a later limit only raises that node's floor.  The root's limit is
    the size of the incumbent, which follows the first candidate at each
    node, and each child's is one less than the best its node has found.
    Each open ancestor on the stack is (u, floor, best, pieces,
    candidates, the piece its open child took).  On timeout the result is
    the root's best pieces, else the incumbent, with the bound
    ceil(|full| / max_size).
    """
    incumbent, u = [], full
    while u:
        m = next(iter(branch(u, False)))
        incumbent.append(m)
        u &= ~m
    # u -> (optimum, pieces), or (lower bound, None)
    memo: dict[int, tuple[int, Optional[tuple[int, ...]]]] = {}
    stack: list[tuple] = []
    u, limit = full, len(incumbent)
    while True:
        # enter u: the memo, then the bound, may answer at once.  A bound
        # in the memo was a limit above the floor, so it is the new floor
        answer = memo.get(u) if u else (0, ())
        if answer is None or answer[1] is None and answer[0] < limit:
            floor = answer[0] if answer else -(-u.bit_count() // max_size)
            answer = (floor, None) if floor >= limit else None
        if answer is None:
            if time.monotonic() > deadline:
                masks = stack and stack[0][3] or incumbent
                return -(-full.bit_count() // max_size), masks, False
            best, pieces, candidates = limit, None, iter(branch(u, limit == 2))
        # the answer goes up until some node enters its next child
        while True:
            if answer is None:
                m = next(candidates, 0)
                rest = u & ~m
                if m and 1 + -(-rest.bit_count() // max_size) < best:
                    stack.append((u, floor, best, pieces, candidates, m))
                    u, limit = rest, best - 1
                    break
                memo[u] = answer = best, pieces
            val, seq = answer
            if not stack:  # the root's answer; with no pieces, none beats the incumbent
                return (val, seq, True) if seq else (len(incumbent), incumbent, True)
            u, floor, best, pieces, candidates, m = stack.pop()
            answer = None
            # an exact answer from the memo may lie above the child's limit
            if seq is not None and 1 + val < best:
                best, pieces = 1 + val, (m,) + seq
                if best == floor:
                    memo[u] = answer = best, pieces


def _cover_branch(order: int, pieces: Sequence[int],
                  comps: Sequence[int]) -> Callable[[int, bool], list[int]]:
    """A cover's branch over `pieces`, sorted by (-size, mask), for a u
    inside one of the components `comps`: the vertex of u in the fewest
    pieces, ties by label, and its pieces, most vertices of u first; or,
    when only one piece could do, the first of them that holds all of u,
    if any, which is where the sort would put it."""
    # each list keeps the (-size, mask) order of `pieces`; a piece's bits
    # are walked inline, so the build is linear in the total piece size
    by_vertex: list[list[int]] = [[] for _ in range(order)]
    for m in pieces:
        rest = m
        while rest:
            low = rest & -rest
            by_vertex[low.bit_length() - 1].append(m)
            rest ^= low
    # fewest[w]: the vertices of w's component by count, ties by label,
    # so a node scans only its own component's
    fewest: list[list[int]] = [[]] * order
    for comp in comps:
        ranked = sorted(bits(comp), key=lambda w: len(by_vertex[w]))
        for w in ranked:
            fewest[w] = ranked

    def branch(u: int, whole: bool) -> list[int]:
        v = next(w for w in fewest[(u & -u).bit_length() - 1] if u >> w & 1)
        if whole:
            for m in by_vertex[v]:
                if m & u == u:
                    return [m]
            return []
        return sorted(by_vertex[v], key=lambda x: -(x & u).bit_count())
    return branch


def _partition_branch(
        g: Graph, kind: PieceKind) -> tuple[int, Callable[[int, bool], Iterable[int]]]:
    """A partition's largest piece size, with no maximal pieces: the
    largest star, the longest induced path or one more than the largest
    component diameter; and its branch on the least vertex v of u, whose
    pieces are those of `kind` through v inside V>=v that lie inside u.
    All nodes share v's pieces, which `_piece_classes` lists one class at
    a time, only as far as a node reads them."""
    longest_path = 0
    if kind is PieceKind.ISOMETRIC_PATH:
        # rings[v] holds ecc(v) + 2 rings, the last one empty; a longest
        # geodesic has one vertex more than a component's largest ecc
        max_size = max(len(ring) for ring in g.rings) - 1
    elif kind is PieceKind.PATH:
        max_size = _longest_path(g)
    else:
        max_size = _largest_star(g)
        if kind is PieceKind.SP_ANY:
            # `_piece_classes` takes every piece of up to three vertices
            # from the paths, so it walks them from there
            path = _longest_path(g)
            max_size, longest_path = max(max_size, path), max(path, 3)
    # v -> a tee of v's pieces that is never advanced: each node reads a
    # copy of it from the start (its own `__copy__` takes a sixth of the
    # time of `copy.copy`), and the first copy to read past the pieces
    # listed so far makes `_piece_classes` list the next class
    at: dict[int, Iterator[int]] = {}

    def branch(u: int, whole: bool) -> Iterator[int]:
        # largest first already: a node that wants one piece reads one
        v = (u & -u).bit_length() - 1
        if v not in at:
            at[v] = tee(chain.from_iterable(_piece_classes(
                g, g.full_mask >> v << v, v, kind, max_size, longest_path)))[0]
        return (m for m in at[v].__copy__() if m & u == m)
    return max_size, branch


def _piece_classes(g: Graph, within: int, v: int, kind: PieceKind,
                   max_size: int, longest_path: int) -> Iterator[list[int]]:
    """The pieces of `kind` through v inside `within`, in classes that
    follow one another in (-size, mask) order: a path kind's all in one.

    Stars come one size class at a time, largest first, each sorted by
    mask and from its own `pieces_at` call, made when the class before
    it has been read; with a positive `longest_path`, merged with the
    induced paths through v.  A star through v has its centre in N[v],
    so its order is at most one more than the most neighbours such a
    centre has inside `within`.  The paths are walked in one `pieces_at`
    call, made when the first class of at most `longest_path` vertices
    is read: no induced path is longer.
    """
    if kind is PieceKind.PATH or kind is PieceKind.ISOMETRIC_PATH:
        yield pieces_at(g, within, v, kind)
        return
    top = min(max_size, 1 + max((g.adj[c] & within).bit_count()
                                for c in bits(within & (g.adj[v] | 1 << v))))
    paths: Optional[dict[int, list[int]]] = None
    for k in range(max(top, longest_path), 0, -1):
        if k <= longest_path and paths is None:
            paths = {}
            for m in pieces_at(g, within, v, PieceKind.PATH):
                paths.setdefault(m.bit_count(), []).append(m)
        if paths is not None and k <= 3:
            # stars of up to three vertices are paths: list the rest at once
            yield [m for j in (3, 2, 1) for m in paths.get(j, ())]
            return
        cls = pieces_at(g, within, v, PieceKind.STAR, k) if k <= top else []
        if paths is not None and k in paths:
            # a path of four or more vertices is no star
            cls = sorted(cls + paths[k])
        if cls:
            yield cls


def _solve(g: Graph, kind: PieceKind, mode: str,
           timeout: Optional[float]) -> PieceCertificate:
    """A least cover (over the maximal pieces) or partition of V(G) by
    pieces of `kind`, with a deadline that starts before any piece is
    listed or the largest size found.  Pieces are connected, so `_search`
    runs on each component with the whole graph's branch, and the values
    and lower bounds add up."""
    if not isinstance(kind, PieceKind):
        raise ValueError(f"unknown kind {kind!r}")
    # a NaN deadline would compare false everywhere and never fire
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout must not be NaN")
    if g.order == 0:
        return PieceCertificate(kind, mode, (), True, 0)
    deadline = math.inf if timeout is None else time.monotonic() + timeout
    if mode == "cover":
        pieces = enumerate_maximal_pieces(g, kind)
        max_size = pieces[0].bit_count()
        branch = _cover_branch(g.order, pieces, g.components)
    else:
        max_size, branch = _partition_branch(g, kind)
    bound, masks, optimal = 0, [], True
    for comp in g.components:
        val, found, exact = _search(comp, max_size, branch, deadline)
        bound, optimal = bound + val, optimal and exact
        masks.extend(found)
    return PieceCertificate(kind, mode, tuple(tuple(bits(m)) for m in masks),
                            optimal, bound)


def min_cover(g: Graph, kind: PieceKind, *,
              timeout: Optional[float] = None) -> PieceCertificate:
    """Minimum number of pieces whose union is V(G), pieces may overlap."""
    return _solve(g, kind, "cover", timeout)


def min_partition(g: Graph, kind: PieceKind, *,
                  timeout: Optional[float] = None) -> PieceCertificate:
    """Minimum number of disjoint pieces whose union is V(G)."""
    return _solve(g, kind, "partition", timeout)


def invariant_value(g: Graph, name: str, *,
                    timeout: Optional[float] = None) -> PieceCertificate:
    """Solve one of the eight named invariants exactly."""
    if name not in INVARIANT_SPECS:
        raise ValueError(f"unknown invariant {name!r}")
    kind, mode = INVARIANT_SPECS[name]
    if mode == "cover":
        return min_cover(g, kind, timeout=timeout)
    return min_partition(g, kind, timeout=timeout)


def validate_certificate(g: Graph, cert: PieceCertificate) -> bool:
    """Is cert a cover or partition of V(G) by pieces of its kind?  A
    mode other than "cover" or "partition", a kind that is no PieceKind,
    or a piece of the wrong shape or with a vertex that is not an int of
    V(G), gives False; an empty piece raises EmptyPiece."""
    if cert.mode not in ("cover", "partition") or not isinstance(cert.kind, PieceKind):
        return False
    for v in chain.from_iterable(cert.pieces):
        if not isinstance(v, int) or not 0 <= v < g.order:
            return False  # before `mask_of` shifts 1 by it
    return certificate_fault(g, g.full_mask, cert.kind, cert.mode,
                             map(mask_of, cert.pieces)) is None


# -- classical subroutines ---------------------------------------------


def clique_number(g: Graph) -> int:
    """Depth first on an explicit stack: a clique of `size` vertices with
    candidates p takes the least candidate v first, then goes on with
    the candidates above v, while it may still beat the best."""
    best, stack = 0, [(0, g.full_mask)]
    while stack:
        size, p = stack.pop()
        if not p:
            best = max(best, size)
        elif size + p.bit_count() > best:
            low = p & -p
            p ^= low
            stack.append((size, p))
            stack.append((size + 1, p & g.adj[low.bit_length() - 1]))
    return best


def chromatic_coloring(g: Graph) -> list[int]:
    """An optimal proper coloring as a list of color-class masks."""
    if g.order == 0:
        return []
    order = g.by_degree
    lo = clique_number(g)

    def colorable(k: int) -> Optional[list[int]]:
        # depth-first over `order` on an explicit stack: cls[c] is the mask
        # of color c, tried[i] the next color position i tries, 0 when i is
        # entered afresh, and used[i] the highest color used before i
        cls = [0] * k
        tried = [0] * len(order)
        used = [-1] * (len(order) + 1)
        i = 0
        while i < len(order):
            v = order[i]
            # nothing above used[i] + 1 is tried: fresh colors are
            # interchangeable, so the first fresh one is the last tried
            limit = min(k, used[i] + 2)
            c = tried[i]
            while c < limit and cls[c] & g.adj[v]:
                c += 1
            if c < limit:
                cls[c] |= 1 << v
                tried[i] = c + 1
                used[i + 1] = max(used[i], c)
                i += 1
            else:
                tried[i] = 0
                i -= 1
                if i < 0:
                    return None
                cls[tried[i] - 1] &= ~(1 << order[i])
        return [m for m in cls if m]

    k = lo
    while True:
        got = colorable(k)
        if got is not None:
            return got
        k += 1


def chromatic_number(g: Graph) -> int:
    return len(chromatic_coloring(g))


def min_dominating_set(g: Graph) -> list[int]:
    """A minimum dominating set, as a sorted vertex list: a least cover of
    V by the inclusion-maximal closed neighbourhoods, each standing for
    its least v.  A cover keeps covering when a piece grows, so a least
    one need not use an N[v] inside another; and N[v] lies in N[w] only
    for w in N(v), so N[v] is compared with its neighbours' alone."""
    if g.order == 0:
        return []
    if not is_connected(g):
        raise Disconnected("dominating-set subroutine requires a connected graph")
    closed = [g.adj[v] | 1 << v for v in range(g.order)]
    # v gives way to a neighbour whose N[w] holds N[v] and is larger, or
    # is the same with a smaller w
    owner = {closed[v]: v for v in range(g.order) if not any(
        closed[v] & ~closed[w] == 0 and (closed[w] != closed[v] or w < v)
        for w in bits(g.adj[v]))}
    pieces = _largest_first(owner)
    masks = _search(g.full_mask, pieces[0].bit_count(),
                    _cover_branch(g.order, pieces, (g.full_mask,)), math.inf)[1]
    return sorted(owner[m] for m in masks)
