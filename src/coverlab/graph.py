"""Undirected simple graphs with bitset adjacency rows.

Vertices are dense 0-based indices.  Each adjacency row is a Python int
used as a bitmask, so induced-subgraph checks reduce to word operations.
Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EmptyPiece, IndexOutOfRange, SelfLoop


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PieceKind(Enum):
    """Shapes a cover/partition piece may take.

    A one-vertex graph counts as a star, a path and an isometric path,
    so every kind accepts singletons.
    """

    STAR = "star"
    PATH = "path"
    ISOMETRIC_PATH = "isometric_path"
    SP_ANY = "sp_any"


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v."""

    order: int
    adj: tuple[int, ...]
    label: Optional[str] = None

    def __post_init__(self):
        if len(self.adj) != self.order:
            raise IndexOutOfRange("adjacency length does not match order")

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.order):
            m = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(m))
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.order)) // 2

    def degree_sequence(self) -> list[int]:
        return sorted((self.degree(v) for v in range(self.order)), reverse=True)

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph, relabeled to 0..k-1 in the given vertex order."""
        idx = {v: i for i, v in enumerate(vertices)}
        rows = []
        for v in vertices:
            m = 0
            for w in bits(self.adj[v]):
                if w in idx:
                    m |= 1 << idx[w]
            rows.append(m)
        return Graph(len(vertices), tuple(rows))

    def relabel_by_mask(self, mask: int) -> "Graph":
        return self.subgraph(list(bits(mask)))


@dataclass(frozen=True)
class BfsLayering:
    """Distance layers X_0..X_d from a root, restricted to its component."""

    root: int
    layers: tuple[tuple[int, ...], ...]
    dist: tuple[Optional[int], ...]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def layer_mask(self, i: int) -> int:
        return mask_of(self.layers[i])


def build_graph(order: int, edges: Iterable[tuple[int, int]],
                label: Optional[str] = None) -> Graph:
    """Build a graph from an edge list; duplicate edges coalesce."""
    if order < 0:
        raise IndexOutOfRange("order must be non-negative")
    rows = [0] * order
    for u, v in edges:
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if not (0 <= u < order and 0 <= v < order):
            raise IndexOutOfRange(f"edge ({u},{v}) outside [0,{order})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(order, tuple(rows), label)


def bfs_layering(g: Graph, root: int) -> BfsLayering:
    if not 0 <= root < g.order:
        raise IndexOutOfRange(f"root {root} outside [0,{g.order})")
    dist: list[Optional[int]] = [None] * g.order
    dist[root] = 0
    layers = [[root]]
    frontier = 1 << root
    seen = frontier
    d = 0
    while True:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        nxt &= ~seen
        if not nxt:
            break
        d += 1
        layer = list(bits(nxt))
        for v in layer:
            dist[v] = d
        layers.append(layer)
        seen |= nxt
        frontier = nxt
    return BfsLayering(root, tuple(tuple(l) for l in layers), tuple(dist))


def distances_from(g: Graph, root: int) -> tuple[Optional[int], ...]:
    return bfs_layering(g, root).dist


def dist(g: Graph, u: int, v: int) -> Optional[int]:
    return distances_from(g, u)[v]


def eccentricity(g: Graph, v: int) -> Optional[int]:
    lay = bfs_layering(g, v)
    if sum(len(l) for l in lay.layers) != g.order:
        return None
    return lay.depth


def diameter(g: Graph) -> Optional[int]:
    """Max eccentricity, or None if the graph is disconnected."""
    if g.order == 0:
        return None
    best = 0
    for v in range(g.order):
        e = eccentricity(g, v)
        if e is None:
            return None
        best = max(best, e)
    return best


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by minimum."""
    seen = 0
    comps = []
    for v in range(g.order):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        comps.append(list(bits(comp)))
    return comps


def is_connected(g: Graph) -> bool:
    return g.order <= 1 or len(connected_components(g)) == 1


def is_independent(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    return True


def is_clique(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if (g.adj[v] & mask) != mask & ~(1 << v):
            return False
    return True


# -- piece shapes ------------------------------------------------------


def _star_center(g: Graph, mask: int) -> Optional[int]:
    """A vertex adjacent to all others in mask whose co-set is independent."""
    rest_all = mask
    for c in bits(mask):
        rest = rest_all & ~(1 << c)
        if g.adj[c] & mask == rest and is_independent(g, rest):
            return c
    return None


def _path_order(g: Graph, mask: int) -> Optional[list[int]]:
    """Vertices of mask in path order if g[mask] is an induced path."""
    verts = list(bits(mask))
    k = len(verts)
    if k == 1:
        return verts
    degs = {v: (g.adj[v] & mask).bit_count() for v in verts}
    ends = [v for v in verts if degs[v] == 1]
    if len(ends) != 2 or any(degs[v] > 2 for v in verts):
        return None
    # walk from the lower endpoint; a cycle component would have no ends
    order = [min(ends)]
    prev = -1
    cur = order[0]
    for _ in range(k - 1):
        nxt_mask = g.adj[cur] & mask
        if prev >= 0:
            nxt_mask &= ~(1 << prev)
        if not nxt_mask:
            return None
        prev, cur = cur, next(bits(nxt_mask))
        order.append(cur)
    if len(set(order)) != k:
        return None
    return order


def piece_shape(g: Graph, vertices: Iterable[int], kind: PieceKind) -> bool:
    """Does g[vertices] belong to the kind's family of stars/paths?"""
    mask = mask_of(vertices)
    return piece_shape_mask(g, mask, kind)


def piece_shape_mask(g: Graph, mask: int, kind: PieceKind) -> bool:
    if mask == 0:
        raise EmptyPiece("piece must be non-empty")
    if mask & (mask - 1) == 0:  # singleton: K_1 accepted everywhere
        return True
    if kind is PieceKind.STAR:
        return _star_center(g, mask) is not None
    if kind is PieceKind.PATH:
        return _path_order(g, mask) is not None
    if kind is PieceKind.ISOMETRIC_PATH:
        order = _path_order(g, mask)
        if order is None:
            return False
        d = dist(g, order[0], order[-1])
        return d is not None and d == len(order) - 1
    if kind is PieceKind.SP_ANY:
        return _star_center(g, mask) is not None or _path_order(g, mask) is not None
    raise ValueError(f"unknown kind {kind!r}")
