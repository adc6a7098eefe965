"""Naive reference solvers for cross-checking the optimized ones.

These deliberately use a different search principle (enumerate whole
subfamilies / whole set partitions, k = 1, 2, ... pieces in turn) so
agreement with the solvers is meaningful evidence of correctness.
Intended for small graphs only.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph, PieceKind, _is_isometric, _path_order, _star_center


def all_piece_masks(g: Graph) -> dict[PieceKind, list[int]]:
    """Every non-empty vertex subset inducing a valid piece, by kind, in
    ascending order: one scan of the 2^n - 1 subsets.  An SP piece is a
    star or a path; only a path is tested for being isometric.  A single
    vertex is all four."""
    out = {kind: [] for kind in PieceKind}
    stars, paths = out[PieceKind.STAR], out[PieceKind.PATH]
    isometric, sp = out[PieceKind.ISOMETRIC_PATH], out[PieceKind.SP_ANY]
    for m in range(1, 1 << g.order):
        star = _star_center(g, m) is not None
        if star:
            stars.append(m)
        order = _path_order(g, m)
        if order is not None:
            paths.append(m)
            if _is_isometric(g, order):
                isometric.append(m)
        if star or order is not None:
            sp.append(m)
    return out


def _maximal(masks: list[int]) -> list[int]:
    out = []
    ordered = sorted(masks, key=lambda m: -m.bit_count())
    for m in ordered:
        if not any(m & k == m and m != k for k in out):
            out.append(m)
    return out


def naive_min_cover(g: Graph, masks: list[int]) -> int:
    """Try every k-subfamily of the maximal pieces among `masks`, one
    kind's list from `all_piece_masks`, for k = 1, 2, ...

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


def _k_block_partitions(n: int, k: int):
    """Every partition of range(n) into exactly k non-empty blocks
    (masks), each once: restricted growth strings (Knuth, TAOCP 4A
    §7.2.1.5) on an explicit stack.  Vertex i joins an open block, or
    opens the next one, only while k blocks can still be reached."""
    if k > n:
        return
    stack = [(0, [])]
    while stack:
        i, blocks = stack.pop()
        if i == n:
            yield blocks
            continue
        bit, b = 1 << i, len(blocks)
        if b < k:
            stack.append((i + 1, blocks + [bit]))
        if b + n - i > k:
            for j in range(b):
                stack.append((i + 1, blocks[:j] + [blocks[j] | bit] + blocks[j + 1:]))


def naive_min_partition(g: Graph, masks: list[int]) -> int:
    """Try every partition of V into k blocks, for k = 1, 2, ..., and
    return the first k with one whose blocks are all in `masks`, one
    kind's list from `all_piece_masks`."""
    if g.order == 0:
        return 0
    pieces = set(masks)
    for k in range(1, g.order + 1):
        for part in _k_block_partitions(g.order, k):
            if pieces.issuperset(part):
                return k
    raise AssertionError("singleton pieces always partition")
