"""Naive reference solvers for cross-checking the optimized ones.

These deliberately use a different search principle (enumerate whole
subfamilies / whole set partitions) so agreement with the solvers is
meaningful evidence of correctness.  Intended for small graphs only.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, PieceKind, piece_shape_mask


def all_piece_masks(g: Graph, kind: PieceKind) -> list[int]:
    """Every non-empty vertex subset inducing a valid piece."""
    return [m for m in range(1, 1 << g.order)
            if piece_shape_mask(g, m, kind)]


def _maximal(masks: list[int]) -> list[int]:
    out = []
    ordered = sorted(masks, key=lambda m: -m.bit_count())
    for m in ordered:
        if not any(m & k == m and m != k for k in out):
            out.append(m)
    return out


def naive_min_cover(g: Graph, masks: list[int]) -> int:
    """Try every k-subfamily of the maximal pieces among `masks`, the
    list from `all_piece_masks`, for k = 1, 2, ...

    Restricting to maximal pieces is sound for covers: replacing any
    piece by a maximal superset keeps a cover a cover.
    """
    if g.order == 0:
        return 0
    pieces = _maximal(masks)
    full = g.full_mask
    for k in range(1, len(pieces) + 1):
        for combo in combinations(pieces, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    raise AssertionError("singleton pieces always cover")


def _set_partitions(items: list[int]):
    """All partitions of items into non-empty blocks (masks)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | 1 << first] + part[i + 1:]
        yield part + [1 << first]


def naive_min_partition(g: Graph, masks: list[int]) -> int:
    """Minimum over all set partitions of V whose blocks are all in
    `masks`, the piece list from `all_piece_masks`."""
    if g.order == 0:
        return 0
    pieces = set(masks)
    best = g.order  # singletons always work
    for part in _set_partitions(list(range(g.order))):
        if len(part) >= best:
            continue
        if all(m in pieces for m in part):
            best = len(part)
    return best
