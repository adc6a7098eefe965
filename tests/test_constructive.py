import json

import pytest

from coverlab import generators as gen
from coverlab.constructive import (cover_to_path_cover, cover_to_star_cover,
                                   insc_bounded, insp_bounded,
                                   sp_cover_construct, sp_partition_construct,
                                   star_partition_neighborhood)
from coverlab.errors import (BadInput, Disconnected, FreenessViolated,
                             PathTooLong, StarTooLarge)
from coverlab.graph import PieceKind, build_graph, mask_of, piece_shape_mask
from coverlab.iso import is_family_free, target_family
from coverlab.solvers import (PieceCertificate, invariant_value, min_cover,
                              validate_certificate)


def check_star_partition(g, trace, domain):
    total = 0
    for piece in trace.result.pieces:
        m = mask_of(piece)
        assert piece_shape_mask(g, m, PieceKind.STAR)
        assert not total & m
        total |= m
    assert total == domain


def test_neighborhood_single_star():
    g = gen.star(5)
    t = star_partition_neighborhood(g, 0, range(1, 6), 4)
    assert t.result.value == 1
    assert t.intermediate["depth"] == 1
    check_star_partition(g, t, g.full_mask)


def test_neighborhood_on_dense_spider():
    g = gen.s_tilde(2)
    t = star_partition_neighborhood(g, 0, g.neighbors(0), 4)
    check_star_partition(g, t, g.full_mask)
    assert t.result.value <= 9
    assert t.claimed_bound.value == 9


def test_neighborhood_rejects_clique():
    g = gen.complete(4)
    with pytest.raises(FreenessViolated) as exc:
        star_partition_neighborhood(g, 0, g.neighbors(0), 4)
    assert "K_4" in str(exc.value)


def test_neighborhood_rejects_bad_subset():
    g = gen.path(4)
    with pytest.raises(BadInput):
        star_partition_neighborhood(g, 0, [3], 4)


def test_insc_bounded_examples():
    t = insc_bounded(gen.star(7), 4)
    assert t.result.value == 1
    t = insc_bounded(gen.path(7), 4)
    assert t.result.value >= 3  # matches the exact star-cover floor
    assert validate_certificate(gen.path(7), t.result)
    t = insc_bounded(gen.cycle(6), 4)
    assert validate_certificate(gen.cycle(6), t.result)


def test_insc_bounded_errors():
    with pytest.raises(Disconnected):
        insc_bounded(build_graph(4, [(0, 1), (2, 3)]), 4)
    with pytest.raises(FreenessViolated):
        insc_bounded(gen.complete(4), 4)


def test_insp_bounded_examples():
    t = insp_bounded(gen.star(3), 4)
    assert t.result.value == 1
    g = gen.s_star(3)
    t = insp_bounded(g, 4)
    assert t.result.value >= 2
    check_star_partition(g, t, g.full_mask)
    g = gen.cycle(5)
    t = insp_bounded(g, 4)
    check_star_partition(g, t, g.full_mask)


def test_sp_cover_small_branch():
    t = sp_cover_construct(gen.cycle(6), 4)
    assert t.intermediate["branch"] == "small_diameter"
    assert validate_certificate(gen.cycle(6), t.result)


def test_sp_cover_rejects_clique():
    with pytest.raises(FreenessViolated):
        sp_cover_construct(gen.complete(4), 4)
    with pytest.raises(FreenessViolated):
        sp_cover_construct(gen.complete(5), 4)


def test_sp_partition_small_branch():
    t = sp_partition_construct(gen.s_star(3), 4)
    assert t.intermediate["branch"] == "small_diameter"
    assert validate_certificate(gen.s_star(3), t.result)


def test_sp_partition_rejects_self():
    with pytest.raises(FreenessViolated):
        sp_partition_construct(gen.f4(4), 4)


def assert_sp_trace_valid(g, trace, partition):
    assert validate_certificate(g, trace.result)
    total = 0
    for piece in trace.result.pieces:
        m = mask_of(piece)
        if not piece_shape_mask(g, m, PieceKind.STAR):
            # every non-star piece must be an isometric path
            assert piece_shape_mask(g, m, PieceKind.ISOMETRIC_PATH)
        if partition:
            assert not total & m
        total |= m
    assert total == g.full_mask


def test_long_branch_on_paths():
    for k in (25, 30, 40):
        g = gen.path(k)
        t = sp_cover_construct(g, 4)
        assert t.intermediate["branch"] == "long"
        assert_sp_trace_valid(g, t, partition=False)
        t = sp_partition_construct(g, 4)
        assert t.intermediate["branch"] == "long"
        assert_sp_trace_valid(g, t, partition=True)


def test_long_branch_on_deep_tree():
    # a long spine with pendants near the ends keeps the filter families out
    edges = [(i, i + 1) for i in range(29)]
    extra = 30
    for spine in (1, 28):
        edges.append((spine, extra))
        extra += 1
    g = build_graph(extra, edges)
    assert is_family_free(g, target_family("inspp", 4))
    t = sp_cover_construct(g, 4)
    assert_sp_trace_valid(g, t, partition=False)
    t = sp_partition_construct(g, 4)
    assert_sp_trace_valid(g, t, partition=True)


def test_construction_dominates_exact_value():
    for spec in ("p:18", "c:12"):
        g = gen.generate(spec)
        cover = sp_cover_construct(g, 4).result.value
        part = sp_partition_construct(g, 4).result.value
        exact = invariant_value(g, "inspc").value
        assert part >= cover >= exact or cover >= exact  # cover bound always
        assert part >= exact


def test_root_override():
    g = gen.path(40)
    t = sp_cover_construct(g, 4, root=39)
    assert_sp_trace_valid(g, t, partition=False)
    t = sp_cover_construct(g, 4, root=20)  # eccentricity 19 < 24: small branch
    assert t.intermediate["branch"] == "small_diameter"


def test_trace_serialization_is_deterministic():
    g = gen.path(25)
    a = sp_partition_construct(g, 4).to_json()
    b = sp_partition_construct(g, 4).to_json()
    assert a == b
    data = json.loads(a)
    assert data["algorithm"] == "sp_partition_construct"
    assert data["result"]["mode"] == "partition"


def test_cover_to_star_cover():
    g = gen.cycle(5)
    cert = PieceCertificate(PieceKind.SP_ANY, "cover",
                            ((0, 1, 2, 3), (4,)), False, 1)
    assert validate_certificate(g, cert)
    out = cover_to_star_cover(g, cert, 6)
    assert out.value == 5  # P_4 explodes into singletons, P_1 kept
    assert validate_certificate(g, out)
    assert out.kind is PieceKind.STAR


def test_cover_to_star_cover_star_first():
    g = gen.complete(5)
    cert = min_cover(g, PieceKind.SP_ANY)
    out = cover_to_star_cover(g, cert, 4)
    assert out.value == cert.value  # every K_5 piece is an edge, already a star


def test_cover_to_star_cover_path_too_long():
    g = gen.path(6)
    cert = PieceCertificate(PieceKind.SP_ANY, "cover",
                            (tuple(range(6)),), False, 1)
    with pytest.raises(PathTooLong):
        cover_to_star_cover(g, cert, 4)


def test_cover_to_path_cover():
    g = gen.path(9)
    cert = PieceCertificate(PieceKind.SP_ANY, "cover",
                            (tuple(range(9)),), False, 1)
    out = cover_to_path_cover(g, cert, 4)
    assert out.pieces == cert.pieces  # no stars to explode
    g = gen.star(3)
    cert = PieceCertificate(PieceKind.SP_ANY, "cover",
                            (tuple(range(4)),), False, 1)
    out = cover_to_path_cover(g, cert, 4)
    assert out.value == 4
    assert validate_certificate(g, out)


def test_cover_to_path_cover_star_too_large():
    g = gen.star(5)
    cert = PieceCertificate(PieceKind.SP_ANY, "cover",
                            (tuple(range(6)),), False, 1)
    with pytest.raises(StarTooLarge):
        cover_to_path_cover(g, cert, 4)


def test_conversion_rejects_invalid_certificate():
    g = gen.path(4)
    bad = PieceCertificate(PieceKind.SP_ANY, "cover", ((0, 1),), False, 1)
    with pytest.raises(BadInput):
        cover_to_star_cover(g, bad, 4)


def test_conversion_preserves_partition_mode():
    g = gen.star(3)
    cert = PieceCertificate(PieceKind.SP_ANY, "partition",
                            (tuple(range(4)),), False, 1)
    out = cover_to_path_cover(g, cert, 4)
    assert out.mode == "partition"
    assert validate_certificate(g, out)
