import pytest
from hypothesis import assume, given, settings, strategies as st

from coverlab.errors import EmptyPiece, IndexOutOfRange, SelfLoop
from coverlab.graph import (Graph, PieceKind, bits, build_graph,
                            distance_rings, is_connected, is_independent,
                            mask_of, piece_shape_mask)
from coverlab.graph import _path_order, _star_center
from coverlab import generators as gen


@st.composite
def graphs(draw, max_order=9, min_order=0):
    n = draw(st.integers(min_order, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


def test_mask_and_bits_roundtrip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


def test_build_graph_rejects_self_loop_and_range():
    with pytest.raises(SelfLoop):
        build_graph(3, [(1, 1)])
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        Graph(2, (0,))


def test_build_graph_rejects_a_negative_order():
    with pytest.raises(IndexOutOfRange, match="order must be non-negative"):
        build_graph(-1, [])


def test_piece_shape_mask_rejects_an_unknown_kind():
    # the kind is read before a one-vertex mask is accepted
    for mask in (0b11, 1):
        with pytest.raises(ValueError, match="unknown kind 'star'"):
            piece_shape_mask(gen.path(3), mask, "star")


def test_piece_shape_mask_rejects_a_vertex_outside_the_graph():
    for mask in (1 << 5, 0b11 | 1 << 3, -1):
        with pytest.raises(IndexOutOfRange):
            piece_shape_mask(gen.path(3), mask, PieceKind.PATH)


def test_duplicate_edges_coalesce():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1
    assert g.edges() == [(0, 1)]


def test_basic_queries():
    g = gen.path(4)
    assert list(bits(g.adj[1])) == [0, 2]
    assert g.adj[2] >> 3 & 1 and not g.adj[0] >> 3 & 1
    assert g.degrees == (1, 2, 2, 1) and g.by_degree == (1, 2, 0, 3)


def test_subgraph_relabels_in_order():
    g = gen.cycle(5)
    sub = g.subgraph([3, 4, 0])
    # 3-4, 4-0 edges survive; 3-0 is not an edge of C_5
    assert sub.order == 3
    assert sub.adj[0] >> 1 & 1 and sub.adj[1] >> 2 & 1 and not sub.adj[0] >> 2 & 1


def test_bfs_layering_and_distances():
    g = gen.path(5)
    rings = distance_rings(g, 2)
    assert rings == (mask_of([2]), mask_of([1, 3]), mask_of([0, 4]))
    assert len(rings) - 1 == 2
    assert g.rings[2] == rings + (0,)


def test_disconnected_metrics():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert g.components == (mask_of([0, 1]), mask_of([2, 3]))
    assert not is_connected(g)
    assert is_connected(gen.cycle(4))


def test_independent_and_clique_masks():
    g = gen.cycle(5)
    assert is_independent(g, mask_of([0, 2]))
    assert not is_independent(g, mask_of([0, 1]))


def test_singleton_is_every_kind():
    g = gen.complete(3)
    for kind in PieceKind:
        assert piece_shape_mask(g, mask_of([1]), kind)


def test_empty_piece_raises():
    with pytest.raises(EmptyPiece):
        piece_shape_mask(gen.path(3), 0, PieceKind.STAR)


def test_star_shape():
    g = gen.star(4)  # center 0
    assert piece_shape_mask(g, mask_of(range(5)), PieceKind.STAR)
    assert piece_shape_mask(g, mask_of([0, 1]), PieceKind.STAR)
    assert not piece_shape_mask(g, mask_of([1, 2]), PieceKind.STAR)  # disconnected pair
    tri = gen.complete(3)
    # the leaves are adjacent
    assert not piece_shape_mask(tri, mask_of([0, 1, 2]), PieceKind.STAR)


def test_path_shape():
    g = gen.path(6)
    assert piece_shape_mask(g, mask_of(range(6)), PieceKind.PATH)
    assert piece_shape_mask(g, mask_of([2, 3, 4]), PieceKind.PATH)
    assert not piece_shape_mask(g, mask_of([0, 1, 3]), PieceKind.PATH)  # disconnected
    c = gen.cycle(4)
    # a cycle has no endpoints
    assert not piece_shape_mask(c, mask_of(range(4)), PieceKind.PATH)
    claw = gen.star(3)
    # the centre has degree 3
    assert not piece_shape_mask(claw, mask_of(range(4)), PieceKind.PATH)


def test_isometric_path_shape():
    c = gen.cycle(6)
    # 0-1-2-3 is induced but its endpoints are at distance 3 = length: isometric
    assert piece_shape_mask(c, mask_of([0, 1, 2, 3]), PieceKind.ISOMETRIC_PATH)
    # 0-1-2-3-4 is an induced path but 0..4 are at distance 2 in C_6
    assert piece_shape_mask(c, mask_of([0, 1, 2, 3, 4]), PieceKind.PATH)
    assert not piece_shape_mask(c, mask_of([0, 1, 2, 3, 4]), PieceKind.ISOMETRIC_PATH)


def test_isometric_check_builds_no_rings():
    # one BFS from the path's first end, stopped at its length: no BFS
    # from every vertex, as `Graph.rings` would run
    g = gen.path(1200)
    assert piece_shape_mask(g, g.full_mask, PieceKind.ISOMETRIC_PATH)
    assert "rings" not in g.__dict__


def test_sp_any_accepts_both():
    assert piece_shape_mask(gen.star(3), mask_of(range(4)), PieceKind.SP_ANY)
    assert piece_shape_mask(gen.path(4), mask_of(range(4)), PieceKind.SP_ANY)
    assert not piece_shape_mask(gen.cycle(4), mask_of(range(4)), PieceKind.SP_ANY)


def star_center_reference(g, mask):
    """Every vertex of mask tried as the centre, in ascending order."""
    for c in bits(mask):
        rest = mask & ~(1 << c)
        if g.adj[c] & mask == rest and is_independent(g, rest):
            return c
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(graphs(), st.data())
def test_star_center_matches_reference(g, data):
    mask = data.draw(st.integers(0, g.full_mask))
    assert _star_center(g, mask) == star_center_reference(g, mask)


def to_networkx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return h


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs())
def test_diameter_and_components_match_networkx(g):
    nx = pytest.importorskip("networkx")
    h = to_networkx(nx, g)
    assert g.components == tuple(
        mask_of(c) for c in sorted(nx.connected_components(h), key=min))
    if g.order:
        # the isometric partition's largest piece: a longest geodesic
        assert max(len(r) for r in g.rings) - 1 == 1 + max(
            nx.diameter(h.subgraph(c)) for c in nx.connected_components(h))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graphs(max_order=12, min_order=1), st.data())
def test_distance_rings_match_networkx(g, data):
    nx = pytest.importorskip("networkx")
    h = to_networkx(nx, g)
    root = data.draw(st.integers(0, g.order - 1))
    by_distance = {}
    for v, d in nx.single_source_shortest_path_length(h, root).items():
        by_distance[d] = by_distance.get(d, 0) | 1 << v
    assert distance_rings(g, root) == tuple(by_distance[d]
                                            for d in range(len(by_distance)))
    assert is_connected(g) == nx.is_connected(h)
    outside = data.draw(st.integers(max_value=-1) | st.integers(min_value=g.order))
    with pytest.raises(IndexOutOfRange):
        distance_rings(g, outside)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(graphs(), st.data())
def test_piece_shapes_match_networkx(g, data):
    nx = pytest.importorskip("networkx")
    assume(g.order > 0)
    mask = data.draw(st.integers(1, g.full_mask))
    h = to_networkx(nx, g)
    sub = h.subgraph(bits(mask))
    k = sub.number_of_nodes()
    tree = nx.is_tree(sub)
    star = tree and max(d for _, d in sub.degree) == k - 1
    path = tree and max(d for _, d in sub.degree) <= 2
    order = _path_order(g, mask)
    if path:
        ends = [v for v, d in sub.degree if d <= 1]
        assert order[0] == min(ends) and sorted(order) == sorted(sub)
        assert all(sub.has_edge(a, b) for a, b in zip(order, order[1:]))
        isometric = nx.shortest_path_length(h, order[0], order[-1]) == k - 1
    else:
        assert order is None
        isometric = False
    expected = {PieceKind.STAR: star, PieceKind.PATH: path,
                PieceKind.ISOMETRIC_PATH: isometric, PieceKind.SP_ANY: star or path}
    for kind, want in expected.items():
        assert piece_shape_mask(g, mask, kind) == want, kind
