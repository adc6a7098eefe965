"""Induced-subgraph containment and the order relation between forbidden families."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import generators as gen
from .errors import DisconnectedMember
from .graph import Graph, bits, is_connected


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map pattern -> host preserving adjacency both ways."""

    map: tuple[int, ...]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(self.map))


@dataclass(frozen=True)
class ForbiddenFamily:
    members: tuple[Graph, ...]
    name: Optional[str] = None

    def __iter__(self):
        return iter(self.members)


def _pattern_order(pattern: Graph) -> list[int]:
    """Vertex order for the search: grow connectivity, high degree first."""
    remaining = set(range(pattern.order))
    order: list[int] = []
    placed_mask = 0
    while remaining:
        best = None
        for v in sorted(remaining):
            anchored = (pattern.adj[v] & placed_mask).bit_count()
            key = (anchored, pattern.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        v = best[1]
        order.append(v)
        remaining.remove(v)
        placed_mask |= 1 << v
    return order


def contains_induced(host: Graph, pattern: Graph) -> Optional[Embedding]:
    """First induced embedding of pattern into host, or None.

    Candidate host vertices are tried by degree descending (index
    ascending on ties) so the returned embedding is deterministic.
    """
    if pattern.order > host.order:
        return None
    if pattern.order == 0:
        return Embedding(())
    order = _pattern_order(pattern)
    host_by_degree = sorted(range(host.order),
                            key=lambda v: (-host.degree(v), v))
    full = host.full_mask
    mapping = [-1] * pattern.order
    used = 0

    def extend(pos: int) -> bool:
        nonlocal used
        if pos == len(order):
            return True
        p = order[pos]
        pdeg = pattern.degree(p)
        # intersect adjacency constraints from already-placed vertices
        allowed = full & ~used
        for q in bits(pattern.adj[p]):
            if mapping[q] >= 0:
                allowed &= host.adj[mapping[q]]
        for q in range(pattern.order):
            if q != p and mapping[q] >= 0 and not pattern.has_edge(p, q):
                allowed &= ~host.adj[mapping[q]]
        if not allowed:
            return False
        for h in host_by_degree:
            if not (allowed >> h & 1) or host.degree(h) < pdeg:
                continue
            mapping[p] = h
            used |= 1 << h
            if extend(pos + 1):
                return True
            used &= ~(1 << h)
            mapping[p] = -1
        return False

    if extend(0):
        return Embedding(tuple(mapping))
    return None


def is_family_free(g: Graph, family: ForbiddenFamily) -> bool:
    return all(contains_induced(g, h) is None for h in family)


def freeness_witness(g: Graph, family: ForbiddenFamily) -> Optional[tuple[Graph, Embedding]]:
    """First family member found induced in g, with its embedding."""
    for h in family:
        emb = contains_induced(g, h)
        if emb is not None:
            return h, emb
    return None


def family_leq(f1: ForbiddenFamily, f2: ForbiddenFamily) -> bool:
    """f1 <= f2: every member of f2 contains some member of f1 induced."""
    return all(
        any(contains_induced(h2, h1) is not None for h1 in f1)
        for h2 in f2
    )


# -- characterization targets ------------------------------------------

INVARIANTS = ("inspc", "inspp", "insc", "insp", "inpc", "inpp", "ispc", "ispp")


def target_family(invariant: str, n: int) -> ForbiddenFamily:
    """The characterizing forbidden family of the given invariant at size n."""
    if invariant == "inspc":
        members = (gen.complete(n), gen.s_star(n), gen.f1(n), gen.f2(n), gen.f3(n))
    elif invariant == "inspp":
        members = (gen.complete(n), gen.s_star(n), gen.s_tilde(n),
                   gen.f1(n), gen.f2(n), gen.f4(n), gen.f5(n))
    elif invariant == "insc":
        members = (gen.complete(n), gen.s_star(n), gen.path(n))
    elif invariant == "insp":
        members = (gen.complete(n), gen.s_star(n), gen.s_tilde(n), gen.path(n))
    elif invariant in ("inpc", "ispc"):
        members = (gen.complete(n), gen.star(n), gen.f1(n), gen.f2(n))
    elif invariant in ("inpp", "ispp"):
        members = (gen.complete(n), gen.star(n), gen.f1(n), gen.f2(n),
                   gen.f4(n), gen.f5(n))
    else:
        raise ValueError(f"unknown invariant {invariant!r}")
    return ForbiddenFamily(members, name=f"{invariant}:{n}")


def characterize(family: ForbiddenFamily, invariant: str) -> Optional[int]:
    """Least n >= 4 with family <= target(n), searched up to max(4, p+2).

    A None result means no witness up to the cutoff, not a mathematical
    negative.  The cutoff is safe because any connected member embedded
    in a target member has at most p vertices and the target families
    grow monotonically in n.
    """
    if not family.members:
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
