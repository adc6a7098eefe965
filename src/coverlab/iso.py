"""Induced-subgraph containment and the order relation between forbidden
families; a forbidden family is a sequence of graphs."""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import generators as gen
from .errors import DisconnectedMember
from .graph import Graph, bits, is_connected, mask_of


class Embedding(NamedTuple):
    """Injective vertex map pattern -> host preserving adjacency both ways."""

    map: tuple[int, ...]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.map))


def _pattern_order(pattern: Graph) -> list[int]:
    """Vertex order for the search: grow connectivity, high degree first."""
    adj = pattern.adj
    degree = [row.bit_count() for row in adj]
    remaining = set(range(pattern.order))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        # the keys end in -u, so no two tie
        v = max(remaining, key=lambda u: ((adj[u] & placed_mask).bit_count(),
                                          degree[u], -u))
        order.append(v)
        remaining.remove(v)
        placed_mask |= 1 << v
    return order


def contains_induced(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """First induced embedding of pattern into host, or None.

    Pattern vertices are placed in `_pattern_order`; candidate host
    vertices are tried by degree descending (index ascending on ties),
    so the returned embedding is the least one in that order and is
    deterministic.

    The search forward-checks.  Placing a pattern vertex on host vertex
    h narrows the domain of every later pattern vertex: a neighbour
    keeps N(h), a non-neighbour keeps V - N[h], and a candidate that
    empties any later domain is rejected at once.  That cuts only
    subtrees without an embedding.  Domains are stored only for later
    vertices with a placed neighbour (the frontier); every other later
    vertex has V minus the closed neighbourhoods of all placed vertices.
    The search runs on an explicit stack, so no pattern order is too
    deep for it.
    """
    k = pattern.order
    if k > host.order:
        return None
    if k == 0:
        return Embedding(())
    order = _pattern_order(pattern)
    need = [pattern.adj[p].bit_count() for p in order]
    degree, host_by_degree = host.degrees, host.by_degree
    if max(need) > degree[host_by_degree[0]]:  # some pattern vertex has no candidate
        return None
    full = host.full_mask
    # pattern adjacency between positions of `order`, as position bitmasks
    position = {p: i for i, p in enumerate(order)}
    adjacent = [mask_of(position[q] for q in bits(pattern.adj[p])) for p in order]
    later_nbrs = [list(bits(adjacent[i] >> i + 1 << i + 1)) for i in range(k)]

    def narrow(pos: int, h: int, frontier: dict[int, int], closed: int):
        """Frontier domains after placing position pos on h, or None if
        some later pattern vertex is left without a host vertex."""
        nbrs = host.adj[h]
        non_nbrs = ~(nbrs | 1 << h)
        adj = adjacent[pos]
        out = {}
        for j, d in frontier.items():
            if j > pos:
                d &= nbrs if adj >> j & 1 else non_nbrs
                if not d:
                    return None
                out[j] = d
        # every vertex placed so far is a non-neighbour of a new frontier vertex
        fresh = nbrs & ~closed
        for j in later_nbrs[pos]:
            if j not in out:
                if not fresh:
                    return None
                out[j] = fresh
        if len(out) < k - pos - 1 and closed | nbrs | 1 << h == full:
            return None
        return out

    # per position: frontier domains and closed set in force, candidates, next index
    images = [0] * k
    frontiers: list = [{}] + [None] * (k - 1)
    closeds = [0] * k
    cands: list = [host_by_degree] + [None] * (k - 1)
    cursor = [0] * k
    pos = 0
    while pos >= 0:
        frontier, closed = frontiers[pos], closeds[pos]
        allowed = frontier.get(pos, full & ~closed)
        deg, cand, i = need[pos], cands[pos], cursor[pos]
        while i < len(cand) and degree[cand[i]] >= deg:
            h = cand[i]
            i += 1
            if not allowed >> h & 1:
                continue
            images[pos] = h
            if pos + 1 == k:
                mapping = [0] * k
                for p, img in zip(order, images):
                    mapping[p] = img
                return Embedding(tuple(mapping))
            narrowed = narrow(pos, h, frontier, closed)
            if narrowed is not None:
                cursor[pos] = i
                pos += 1
                frontiers[pos] = narrowed
                closeds[pos] = closed | host.adj[h] | 1 << h
                cands[pos] = (sorted(bits(narrowed[pos]), key=degree.__getitem__,
                                     reverse=True)
                              if pos in narrowed else host_by_degree)
                cursor[pos] = 0
                break
        else:
            pos -= 1
    return None


def is_family_free(g: Graph, family: Sequence[Graph]) -> bool:
    return freeness_witness(g, family) is None


def freeness_witness(g: Graph, family: Sequence[Graph]) -> Optional[tuple[Graph, Embedding]]:
    """First family member found induced in g, with its embedding."""
    for h in family:
        emb = contains_induced(g, h)
        if emb is not None:
            return h, emb
    return None


def family_leq(f1: Sequence[Graph], f2: Sequence[Graph]) -> bool:
    """f1 <= f2: every member of f2 contains some member of f1 induced."""
    return all(
        any(contains_induced(h2, h1) is not None for h1 in f1)
        for h2 in f2
    )


# -- characterization targets ------------------------------------------

# invariant -> the generators of its characterizing family, each called
# at the family's size n; ispc and ispp share the rows of inpc and inpp
_TARGETS = {
    "inspc": (gen.complete, gen.s_star, gen.f1, gen.f2, gen.f3),
    "inspp": (gen.complete, gen.s_star, gen.s_tilde, gen.f1, gen.f2, gen.f4, gen.f5),
    "insc": (gen.complete, gen.s_star, gen.path),
    "insp": (gen.complete, gen.s_star, gen.s_tilde, gen.path),
    "inpc": (gen.complete, gen.star, gen.f1, gen.f2),
    "inpp": (gen.complete, gen.star, gen.f1, gen.f2, gen.f4, gen.f5),
}
_TARGETS["ispc"], _TARGETS["ispp"] = _TARGETS["inpc"], _TARGETS["inpp"]


def target_family(invariant: str, n: int) -> tuple[Graph, ...]:
    """The characterizing forbidden family of the given invariant at size n."""
    if invariant not in _TARGETS:
        raise ValueError(f"unknown invariant {invariant!r}")
    return tuple(make(n) for make in _TARGETS[invariant])


def characterize(family: Sequence[Graph], invariant: str) -> Optional[int]:
    """Least n >= 4 with family <= target(n), searched up to max(4, p+2).

    A None result means no witness up to the cutoff, not a mathematical
    negative.  The cutoff is safe because any connected member embedded
    in a target member has at most p vertices and the target families
    grow monotonically in n.
    """
    if not family:
        raise ValueError("family must be non-empty")
    for h in family:
        if not is_connected(h):
            raise DisconnectedMember(f"member {h.label or ''} is disconnected")
    p = max(h.order for h in family)
    n_max = max(4, p + 2)
    for n in range(4, n_max + 1):
        if family_leq(family, target_family(invariant, n)):
            return n
    return None
