"""Undirected simple graphs with bitset adjacency rows.

Vertices are dense 0-based indices.  Each adjacency row is a Python int
used as a bitmask, so induced-subgraph checks reduce to word operations.
Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
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


class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of v.

    A value: equality and hash by (order, adj, label), a
    `Graph(order=..., adj=..., label=...)` repr, and no assignment to an
    attribute, so `__init__` sets the fields in `__dict__`, beside the
    per-graph caches, which are no fields."""

    def __init__(self, order: int, adj: tuple[int, ...], label: Optional[str] = None):
        if len(adj) != order:
            raise IndexOutOfRange("adjacency length does not match order")
        self.__dict__.update(order=order, adj=adj, label=label)

    def _key(self) -> tuple:
        return self.order, self.adj, self.label

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Graph(order={self.order!r}, adj={self.adj!r}, label={self.label!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.order):
            m = self.adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(m))
        return out

    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v]: the degree of v; built once per graph."""
        return tuple(row.bit_count() for row in self.adj)

    @cached_property
    def by_degree(self) -> tuple[int, ...]:
        """The vertices by degree descending, ties by index ascending."""
        # a stable sort keeps equal degrees in ascending index order
        return tuple(sorted(range(self.order), key=self.degrees.__getitem__,
                            reverse=True))

    @cached_property
    def rings(self) -> tuple[tuple[int, ...], ...]:
        """rings[v][d]: the mask of vertices at distance d from v, with
        one empty ring past the last layer; built once per graph."""
        return tuple(distance_rings(self, v) + (0,) for v in range(self.order))

    @cached_property
    def components(self) -> tuple[int, ...]:
        """The masks of the connected components, ordered by least vertex;
        built once per graph, from one `distance_rings` BFS per component."""
        rest, comps = self.full_mask, []
        while rest:
            v = (rest & -rest).bit_length() - 1
            comps.append(sum(distance_rings(self, v)))
            rest &= ~comps[-1]
        return tuple(comps)

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


def distance_rings(g: Graph, root: int) -> tuple[int, ...]:
    """rings[d]: the mask of vertices at distance d from root, for d up to
    root's eccentricity.  The rings are disjoint, so sum(rings) is the
    mask of root's component."""
    if not 0 <= root < g.order:
        raise IndexOutOfRange(f"root {root} outside [0,{g.order})")
    adj = g.adj
    ring = seen = 1 << root
    rings = [ring]
    while True:
        nxt = 0
        while ring:
            low = ring & -ring
            nxt |= adj[low.bit_length() - 1]
            ring ^= low
        ring = nxt & ~seen
        if not ring:
            return tuple(rings)
        rings.append(ring)
        seen |= ring


def is_connected(g: Graph) -> bool:
    return g.order <= 1 or sum(distance_rings(g, 0)) == g.full_mask


def is_independent(g: Graph, mask: int) -> bool:
    for v in bits(mask):
        if g.adj[v] & mask:
            return False
    return True


# -- piece shapes ------------------------------------------------------


def _star_center(g: Graph, mask: int) -> Optional[int]:
    """The least vertex adjacent to all others in mask whose co-set is
    independent.

    A centre sees every other vertex, so it is the least vertex of mask
    or a neighbour of it in mask: only those are tried, in ascending
    order.
    """
    if not mask:
        return None
    least = (mask & -mask).bit_length() - 1
    for c in bits(mask & (g.adj[least] | 1 << least)):
        rest = mask & ~(1 << c)
        if g.adj[c] & mask == rest and is_independent(g, rest):
            return c
    return None


def _path_order(g: Graph, mask: int) -> Optional[list[int]]:
    """Vertices of mask in path order, from the lower end, if g[mask] is
    an induced path.  One walk: from the least vertex with at most one
    neighbour in mask, step to the one unvisited neighbour; give up at a
    vertex with three, and accept only if the walk visits all of mask."""
    adj = g.adj
    cur = next((v for v in bits(mask) if (adj[v] & mask).bit_count() <= 1), None)
    if cur is None:
        return None
    order, seen = [cur], 1 << cur
    while True:
        near = adj[cur] & mask
        if near.bit_count() > 2:
            return None
        near &= ~seen
        if not near:
            return order if seen == mask else None
        cur = near.bit_length() - 1
        order.append(cur)
        seen |= near


def _is_isometric(g: Graph, order: list[int]) -> bool:
    """Is the induced path with vertices `order` isometric?  The ends of
    an isometric path of k + 1 vertices lie k apart: one BFS from its
    first end, stopped at depth k, so no `Graph.rings` are built."""
    adj = g.adj
    ring = seen = 1 << order[0]
    for _ in range(len(order) - 1):
        nxt = 0
        while ring:
            low = ring & -ring
            nxt |= adj[low.bit_length() - 1]
            ring ^= low
        ring = nxt & ~seen
        seen |= ring
    return bool(ring >> order[-1] & 1)


def piece_shape_mask(g: Graph, mask: int, kind: PieceKind) -> bool:
    """Does g[mask] belong to the kind's family of stars/paths?"""
    if not isinstance(kind, PieceKind):
        raise ValueError(f"unknown kind {kind!r}")
    if mask == 0:
        raise EmptyPiece("piece must be non-empty")
    if mask >> g.order:
        raise IndexOutOfRange(f"piece leaves [0,{g.order})")
    if mask & (mask - 1) == 0:  # singleton: K_1 accepted everywhere
        return True
    if kind is PieceKind.STAR:
        return _star_center(g, mask) is not None
    if kind is PieceKind.PATH:
        return _path_order(g, mask) is not None
    if kind is PieceKind.ISOMETRIC_PATH:
        order = _path_order(g, mask)
        return order is not None and _is_isometric(g, order)
    return _star_center(g, mask) is not None or _path_order(g, mask) is not None


def certificate_fault(g: Graph, domain: int, kind: PieceKind, mode: str,
                      masks: Iterable[int]) -> Optional[str]:
    """Why `masks` is not a `mode` ("cover" or "partition") of g[domain]
    by pieces of `kind`, or None when it is one.  An empty piece raises
    EmptyPiece."""
    total = 0
    for m in masks:
        if mode == "partition" and total & m:
            return "pieces overlap"
        if m & ~domain:
            return "a piece leaves the domain"
        if not piece_shape_mask(g, m, kind):
            return f"piece is not a {kind.value}"
        total |= m
    return None if total == domain else "pieces miss part of the domain"
