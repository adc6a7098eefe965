import hashlib
import json
import random

import pytest

import coverlab.cli  # noqa: F401  -- loads every module a tracer wraps
from coverlab import constructive, generators as gen
from coverlab.bounds import BoundValue, Status, nu_value, xi_value
from coverlab.constructive import (_LayeredState, _band_segments,
                                   _build_q_paths, _check_q_claims,
                                   _closed_neighbourhood, _finish,
                                   _forest_blocks, _minimal_dominating_subset,
                                   _neighbourhood_stars, _slices, _stages,
                                   _star_blocks, _woven_paths,
                                   cover_to_path_cover, cover_to_star_cover,
                                   insc_bounded, insp_bounded,
                                   sp_cover_construct, sp_partition_construct,
                                   star_partition_neighborhood)
from coverlab.errors import (BadInput, BadParameter, Disconnected,
                             FreenessViolated, IndexOutOfRange,
                             InternalInvariantBroken, PathTooLong, StarTooLarge)
from coverlab.graph import (PieceKind, bits, build_graph, distance_rings,
                            mask_of, piece_shape_mask)
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
    t = star_partition_neighborhood(g, 0, list(bits(g.adj[0])), 4)
    check_star_partition(g, t, g.full_mask)
    assert t.result.value <= 9
    assert t.claimed_bound.value == 9


def test_neighborhood_rejects_clique():
    g = gen.complete(4)
    with pytest.raises(FreenessViolated) as exc:
        star_partition_neighborhood(g, 0, list(bits(g.adj[0])), 4)
    assert "K_4" in str(exc.value)


def test_neighborhood_rejects_bad_subset():
    g = gen.path(4)
    with pytest.raises(BadInput):
        star_partition_neighborhood(g, 0, [3], 4)


@pytest.mark.parametrize("x,X,bad", [(-1, [1], -1), (0, [-1], -1), (9, [], 9)])
def test_neighborhood_rejects_a_vertex_outside_the_graph(x, X, bad):
    with pytest.raises(IndexOutOfRange, match=rf"^vertex {bad} outside \[0,4\)$"):
        star_partition_neighborhood(gen.star(3), x, X, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: star_partition_neighborhood(gen.star(3), 0, [1, 2, 3], 2), "n >= 3 required"),
    (lambda: insc_bounded(gen.star(3), 2), "n >= 3 required"),
    (lambda: cover_to_star_cover(gen.path(4), min_cover(gen.path(4), PieceKind.SP_ANY), 0),
     "n >= 1 required, got 0"),
], ids=["neighborhood", "insc_bounded", "cover_to_star_cover"])
def test_constructions_reject_a_size_out_of_range(call, message):
    with pytest.raises(BadParameter, match=message):
        call()


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


@pytest.mark.parametrize("domain, kind, mode, masks, claimed, message", [
    (0b1111, PieceKind.PATH, "partition", [0b0111, 0b1100], None, "pieces overlap"),
    (0b1111, PieceKind.STAR, "cover", [0b0101, 0b1111], None, "piece is not a star"),
    (0b1111, PieceKind.PATH, "cover", [0b0011, 0b0110], None,
     "pieces miss part of the domain"),
    (0b0111, PieceKind.PATH, "cover", [0b0011, 0b1100], None,
     "a piece leaves the domain"),
])
def test_finish_messages(domain, kind, mode, masks, claimed, message):
    bound = BoundValue(claimed, Status.EXACT if claimed else Status.UPPER_BOUND_ONLY)
    with pytest.raises(InternalInvariantBroken) as err:
        _finish(gen.path(4), domain, "alg", 4, {}, kind, mode, masks, bound)
    assert str(err.value) == f"alg: {message}"


def test_neighbourhood_stars_reject_a_recursion_deeper_than_n_minus_2():
    # the public routine's precheck rejects the K_3 first
    g = gen.complete(3)
    with pytest.raises(InternalInvariantBroken,
                       match="^neighborhood recursion depth 2 exceeds 1$"):
        _neighbourhood_stars(g, 0, 0b110, 3, xi_value(3, 1).value)


def test_neighbourhood_stars_reject_more_stars_than_xi():
    # two stages at n = 4 give the stars {0} and {1, 2}
    g = gen.complete(3)
    assert _neighbourhood_stars(g, 0, 0b110, 4, 2) == ([0b001, 0b110], 2)
    with pytest.raises(InternalInvariantBroken) as err:
        _neighbourhood_stars(g, 0, 0b110, 4, 1)
    assert str(err.value) == "star_partition_neighborhood: size 2 exceeds claimed bound 1"


def test_insp_bounded_computes_xi_once_and_validates_once(monkeypatch):
    calls = {"xi_value": 0, "_finish": 0}
    for name in calls:
        real = getattr(constructive, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(constructive, name, counted)
    t = insp_bounded(gen.path(7), 4)
    assert len(t.intermediate["dominating_set"]) == 3
    assert calls == {"xi_value": 1, "_finish": 1}


def test_minimal_dominating_subset_rejects_candidates_that_miss_a_target():
    with pytest.raises(InternalInvariantBroken,
                       match="^maximal independent set fails to dominate$"):
        _minimal_dominating_subset(gen.path(3), 0b001, 0b100)


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
    # a negative vertex lies outside V(G) too, and is not shifted into a mask
    for pieces in (((0, 1),), ((0, 1, 2, 3), (-1,))):
        bad = PieceCertificate(PieceKind.SP_ANY, "cover", pieces, False, 1)
        with pytest.raises(BadInput):
            cover_to_star_cover(g, bad, 4)


def test_conversion_preserves_partition_mode():
    g = gen.star(3)
    cert = PieceCertificate(PieceKind.SP_ANY, "partition",
                            (tuple(range(4)),), False, 1)
    out = cover_to_path_cover(g, cert, 4)
    assert out.mode == "partition"
    assert validate_certificate(g, out)


# -- the layered construction against per-vertex reference definitions --


def ref_least_index_path(g, rings, target):
    dist = {v: d for d, ring in enumerate(rings) for v in bits(ring)}
    path = [target]
    while dist[path[-1]] > 0:
        prev = rings[dist[path[-1]] - 1]
        path.append(next(bits(g.adj[path[-1]] & prev)))
    return path[::-1]


def ref_slices(st, h, i):
    out = [[] for _ in range(h)]
    for y in bits(st.rings[i]):
        hits = [l for l in range(h)
                if mask_of(st.q_paths[l]) >> y & 1
                or st.g.adj[y] & mask_of(st.q_paths[l])]
        assert len(hits) == 1
        out[hits[0]].append(y)
    return out


def ref_woven_paths(st, p, band):
    # one path per (Q-path, j < ν), the slice's last vertex padding the
    # narrow layers; repeats dropped, first occurrence kept
    per_layer = [ref_slices(st, p, i) for i in band]
    masks = [mask_of(slices[l][min(j, len(slices[l]) - 1)] for slices in per_layer)
             for l in range(p) for j in range(st.nu)]
    return list(dict.fromkeys(masks))


def ref_band_segments(st, p, band):
    return [mask_of(st.q_paths[l][i] for i in band) for l in range(p)]


def ref_forest_blocks(st, lo, hi):
    parent, members = {}, []
    for i in range(lo, hi + 1):
        for x in bits(st.rings[i]):
            members.append(x)
            if i > lo:
                parent[x] = next(bits(st.g.adj[x] & st.rings[i - 1]))
    comps = {}
    for x in members:
        root = x
        while root in parent:
            root = parent[root]
        comps.setdefault(root, []).append(x)
    return sorted(comps.items())


def ref_stages(st):
    """The stages as the paper states them: the band J_h of each stage
    h, the first layer m_h of its index set I_h, and the stages L whose
    band is not empty.  Each p of L gives (p, J_p less its top layer,
    m_p - 1, the top layer of p's star block), and the root block ends
    at k[p+1] of the last p."""
    n, h0, k = st.n, len(st.q_paths), st.k
    J = {h: range(k[h + 1] + 1, k[h] - n) for h in range(1, h0 + 1)}
    m = {h: k[h] - n for h in range(1, h0)}
    m[h0] = max(2 * n + 1, k[h0] - n)
    L = [h for h in range(1, h0 + 1) if len(J[h]) > 0]
    if not L:
        raise InternalInvariantBroken("no non-trivial layer band in the long branch")
    stages = [(p, range(J[p].start, J[p].stop - 1), m[p] - 1,
               k[L[idx - 1] + 1] if idx else k[1]) for idx, p in enumerate(L)]
    return stages, k[L[-1] + 1]


def path_blowup(widths):
    """Layer i is an independent set of widths[i] vertices, joined
    completely to the layers next to it."""
    starts = [sum(widths[:i]) for i in range(len(widths) + 1)]
    edges = [(a, b) for i in range(len(widths) - 1)
             for a in range(starts[i], starts[i + 1])
             for b in range(starts[i + 1], starts[i + 2])]
    return build_graph(starts[-1], edges)


def broom(handle, bristles):
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return build_graph(handle + bristles, edges)


LONG_BRANCH_GRAPHS = [
    ("path", gen.path(120)), ("path", gen.path(400)),
    ("cycle", gen.cycle(150)), ("cycle", gen.cycle(380)),
    ("broom", broom(110, 9)), ("broom", broom(300, 4)),
    ("blowup", path_blowup([random.Random(7).choice((1, 2)) for _ in range(130)])),
]


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("name,g", LONG_BRANCH_GRAPHS,
                         ids=[f"{name}{g.order}" for name, g in LONG_BRANCH_GRAPHS])
def test_layered_helpers_match_reference(name, g, n):
    rings = distance_rings(g, 0)
    st = _build_q_paths(g, n, 0, rings, nu_value(n).value)
    for q, q_mask in zip(st.q_paths, st.q_masks):
        assert q == ref_least_index_path(g, rings, q[-1])
        assert q_mask == mask_of(q)
    _check_q_claims(st)
    stages, root_hi = _stages(st)
    assert (stages, root_hi) == ref_stages(st)
    for p, band, _, _ in stages:
        for i in band:
            assert _slices(st, p, i) == ref_slices(st, p, i)
        if band:
            assert _woven_paths(st, p, band) == ref_woven_paths(st, p, band)
            segments = ref_band_segments(st, p, band)
            if sum(segments) == sum(st.rings[i] for i in band):
                assert _band_segments(st, p, band) == segments
            else:  # a blow-up's wide layers leave the Q-paths
                with pytest.raises(InternalInvariantBroken, match="^band layer leaves"):
                    _band_segments(st, p, band)
    for lo, hi in [(lo, hi) for _, _, lo, hi in stages] + [(0, root_hi)]:
        assert _forest_blocks(st, lo, hi) == ref_forest_blocks(st, lo, hi)


def fuzz_layer_indices(rng, n, h0):
    """k[0..h0+1] with k[h0+1] = 2n and each k[h+1] in (2n, k[h]-n-1],
    built upwards: k[h] is k[h+1] + n + 1 (an empty band J_h) plus 0..3.
    About a third have an empty last band, k[h0] <= 3n + 1."""
    k = [2 * n, rng.randint(2 * n + 1, 3 * n + 1) if rng.random() < 1 / 3
         else rng.randint(3 * n + 2, 4 * n + 4)]
    for _ in range(h0 - 1):
        k.append(k[-1] + n + 1 + rng.randint(0, 3))
    return [0] + k[::-1]


def test_stages_match_the_paper_on_hand_built_layer_indices():
    # `_stages` reads only n, k and the number of Q-paths
    rng, outcomes = random.Random(2028), {"equal": 0, "raised": 0}
    for case in range(2000):
        n = 4 + case % 2
        h0 = rng.randint(1, n - 1)
        st = _LayeredState(None, n, 0, (), 0, fuzz_layer_indices(rng, n, h0),
                           [[]] * h0, [], [])
        try:
            want = ref_stages(st)
        except InternalInvariantBroken as exc:
            with pytest.raises(InternalInvariantBroken, match=f"^{exc}$"):
                _stages(st)
            outcomes["raised"] += 1
            continue
        assert _stages(st) == want, st.k
        outcomes["equal"] += 1
    assert min(outcomes.values()) > 100, outcomes


# sha256 of `to_json()`: the long branch's traces are pinned byte for byte
TRACE_DIGESTS = {
    ("path", 4, "cover"): "61590e7e8bd5f873de6a5e7dc75caa2e29cb9d804c77125d1d55c2ef499f98e9",
    ("path", 4, "partition"): "f94e67cfe9979c8e4bfbfc20a1dfa833520fef2cd573fdf657815f76cc0f9ec0",
    ("path", 5, "cover"): "5e62dc11187138499d9afac7900f6b7f63fc7fad182639b853b740b7bd6c7ddc",
    ("path", 5, "partition"): "1711ba3fbdf6866fc482f621a7c3b48522a11f59d278469ee8be91fccbc86c06",
    ("cycle", 4, "cover"): "2818a275f63f73973430712e7f76d5ee3a48f91a11d22a3cab43a681ff2faf98",
    ("cycle", 4, "partition"): "e89d6350ecfb6365e089efa28596d38f6081a6031e4e3a8506e45926c6198909",
    ("cycle", 5, "cover"): "fb05f24c43c8025c12643e759a32521d9b3c0e792749199c333dabeafff2f80f",
    ("cycle", 5, "partition"): "0f7306e5ffeda217add73ac64def7fc462ee29fb485eb6400031b3736e642bad",
    ("broom", 4, "cover"): "3910adc9b0223bd4ed3c0a98e378c51a4fd5c5793ea761eadbc4c958fe07cf65",
    ("broom", 4, "partition"): "8526ca75e8f1502fc1273ea9f5b5e88e5424eff46720348ae32ab3dd32bc1181",
    ("broom", 5, "cover"): "6ead89ae728d33f8250e9266fcc83cb992050e52e0513c60908161773abfb328",
    ("broom", 5, "partition"): "05e8832e9af1044170d202831e36c66575b92317c189bd42ac7b2e4639d01b66",
}
PINNED_GRAPHS = {"path": gen.path(400), "cycle": gen.cycle(380),
                 "broom": broom(300, 4)}


@pytest.mark.parametrize("name,n,mode", sorted(TRACE_DIGESTS))
def test_long_branch_trace_digest(name, n, mode):
    construct = {"cover": sp_cover_construct,
                 "partition": sp_partition_construct}[mode]
    t = construct(PINNED_GRAPHS[name], n)
    assert t.intermediate["branch"] == "long"
    digest = hashlib.sha256(t.to_json().encode()).hexdigest()
    assert digest == TRACE_DIGESTS[name, n, mode]


def test_mode_switch_calls_the_traced_bounded_routines(tracing):
    # `_sp_construct` must look the routines up by their module names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for construct in (sp_cover_construct, sp_partition_construct):
            assert construct(gen.path(200), 4).intermediate["branch"] == "long"
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["constructive.insc_bounded.calls"] > 0
    assert metrics["constructive.insp_bounded.calls"] > 0


def layered_state(edges, q_paths, k, order=None, nu=8):
    """A hand-built long-branch state at n = 4 on `edges`: the given
    Q-paths from root 0 and their layer indices k (k[0] = 0)."""
    g = build_graph(order or 1 + max(max(e) for e in edges), edges)
    q_masks = [mask_of(q) for q in q_paths]
    q_near = [_closed_neighbourhood(g, m & ~1) for m in q_masks]  # N[Q_h - 0]
    return _LayeredState(g, 4, 0, distance_rings(g, 0), nu, k, q_paths,
                         q_masks, q_near)


def two_path_state(extra_edges, nu=8):
    """Q_1 = 0-1-2-3 and Q_2 = 0-4-5-6 from root 0, plus vertex 7 and
    `extra_edges` at it."""
    return layered_state([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6),
                          *extra_edges], [[0, 1, 2, 3], [0, 4, 5, 6]],
                         [0, 3, 3, 8], order=8, nu=nu)


def test_slices_on_a_hand_built_state():
    st = two_path_state([(7, 1)])
    assert st.rings[2] == mask_of([2, 5, 7])
    assert _slices(st, 2, 2) == [[2, 7], [5]]


def test_slices_reject_a_vertex_seeing_two_q_paths():
    st = two_path_state([(7, 1), (7, 4)])
    with pytest.raises(InternalInvariantBroken,
                       match="^band-layer vertex sees two Q-paths; slices not disjoint$"):
        _slices(st, 2, 2)


def test_slices_reject_a_vertex_seeing_no_earlier_q_path():
    st = two_path_state([(7, 1)])
    # 5 lies on Q_2, which is not among the first h = 1 paths
    with pytest.raises(InternalInvariantBroken,
                       match="^band-layer vertex sees no earlier Q-path$"):
        _slices(st, 1, 2)


def test_slices_reject_a_slice_larger_than_nu():
    st = two_path_state([(7, 1)], nu=1)
    with pytest.raises(InternalInvariantBroken,
                       match="^slice larger than the Ramsey bound$"):
        _slices(st, 2, 2)


@pytest.mark.parametrize("edges,layer,message", [
    # 7 sees Q_1 and Q_2; 9, under the off-path vertex 8, sees neither
    ([(7, 1), (7, 4), (8, 0), (9, 8)], [2, 5, 7, 9],
     "^band-layer vertex sees two Q-paths; slices not disjoint$"),
    # the reverse: 7, under the off-path vertex 9, sees neither; 8 sees both
    ([(9, 0), (7, 9), (8, 1), (8, 4)], [2, 5, 7, 8],
     "^band-layer vertex sees no earlier Q-path$"),
], ids=["two-first", "none-first"])
def test_slices_report_the_least_faulty_vertex(edges, layer, message):
    st = layered_state([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), *edges],
                       [[0, 1, 2, 3], [0, 4, 5, 6]], [0, 3, 3, 8])
    assert st.rings[2] == mask_of(layer)
    with pytest.raises(InternalInvariantBroken, match=message):
        _slices(st, 2, 2)


@pytest.mark.parametrize("construct", (sp_cover_construct, sp_partition_construct))
def test_layered_construction_rejects_disconnected_input(construct):
    for g in (build_graph(4, [(0, 1), (2, 3)]),
              # a forbidden K_4 as well: connectivity is checked first
              build_graph(5, [(a, b) for a in range(4) for b in range(a + 1, 4)])):
        with pytest.raises(Disconnected, match="^input must be connected$"):
            construct(g, 4)


def test_q_claims_reject_a_path_longer_than_its_layer_index():
    st = layered_state([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)],
                       [[0, 1, 2, 3], [0, 4, 5, 6]], [0, 4, 3, 8])
    with pytest.raises(InternalInvariantBroken,
                       match="^Q-path length disagrees with its layer index$"):
        _check_q_claims(st)


def test_q_claims_reject_paths_sharing_a_non_root_vertex():
    st = layered_state([(0, 1), (1, 2), (2, 3), (1, 5), (5, 6)],
                       [[0, 1, 2, 3], [0, 1, 5, 6]], [0, 3, 3, 8])
    with pytest.raises(InternalInvariantBroken,
                       match="^Q-paths share a non-root vertex$"):
        _check_q_claims(st)


def test_q_claims_reject_an_edge_between_q_paths():
    # Q_2's first vertex 4 lies next to the root, which Q_1 holds too
    _check_q_claims(two_path_state([]))
    st = two_path_state([(2, 5)])
    with pytest.raises(InternalInvariantBroken,
                       match="^edge between distinct Q-paths$"):
        _check_q_claims(st)


def test_q_claims_reject_more_than_n_minus_1_q_paths():
    # four 3-edge legs from the root, at n = 4
    legs = [[0, 3 * a + 1, 3 * a + 2, 3 * a + 3] for a in range(4)]
    edges = [(q[i], q[i + 1]) for q in legs for i in range(3)]
    st = layered_state(edges, legs, [0, 3, 3, 3, 3, 8])
    with pytest.raises(InternalInvariantBroken,
                       match="^number of Q-paths 4 exceeds 3$"):
        _check_q_claims(st)


@pytest.mark.parametrize("pinned", (True, False))
def test_q_claims_check_the_pinned_neighbours(pinned):
    # Q_1 = 0-1-...-10 checks layer 5 only, at n = 4; vertex 11 lies in
    # layer 5, next to q[4] and, when pinned, to q[6] as well
    edges = [(i, i + 1) for i in range(10)] + [(11, 4)]
    if pinned:
        edges.append((11, 6))
    st = layered_state(edges, [list(range(11))], [0, 10, 8])
    assert st.rings[5] == mask_of([5, 11])
    if pinned:
        _check_q_claims(st)
        return
    with pytest.raises(InternalInvariantBroken,
                       match="^layer vertex near a Q-path misses its pinned neighbors$"):
        _check_q_claims(st)


def test_star_blocks_check_the_block_count_and_the_eccentricity():
    # layers 0..3 form one forest component, of eccentricity 3 from the root
    st = two_path_state([(7, 1)])
    with pytest.raises(InternalInvariantBroken,
                       match="^1 forest components exceed the bound 0$"):
        _star_blocks(st, 0, 3, insp_bounded, 3, 0)
    with pytest.raises(InternalInvariantBroken,
                       match="^component eccentricity 3 exceeds 0$"):
        _star_blocks(st, 0, 3, insp_bounded, 0, None)
    # at the bounds themselves it partitions the block into stars
    assert _star_blocks(st, 0, 3, insp_bounded, 3, 1) == [
        mask_of([0, 1, 7]), mask_of([2, 3]), mask_of([4, 5, 6])]


def test_band_segments_reject_a_band_vertex_off_the_q_paths():
    st = two_path_state([(7, 1)])
    with pytest.raises(InternalInvariantBroken,
                       match="^band layer leaves the Q-paths; path partition impossible$"):
        _band_segments(st, 2, range(2, 3))


def test_woven_paths_reject_an_empty_slice():
    # layer 3 holds only 3, on Q_1, so Q_2's slice there is empty
    st = layered_state([(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)],
                       [[0, 1, 2, 3], [0, 4, 5]], [0, 3, 2, 8])
    assert _slices(st, 2, 3) == [[3], []]
    with pytest.raises(InternalInvariantBroken,
                       match="^empty slice inside a band layer$"):
        _woven_paths(st, 2, range(3, 4))


def test_layer_vertex_with_no_parent_is_rejected():
    # rings that put 3 in layer 2, though 3 has no neighbour in layer 1
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    rings = (0b0001, 0b0010, 0b1000)
    with pytest.raises(InternalInvariantBroken,
                       match="^layer vertex with no parent$"):
        _build_q_paths(g, 4, 0, rings, 8)
    st = _LayeredState(g, 4, 0, rings, 8, [0, 2, 8], [], [], [])
    with pytest.raises(InternalInvariantBroken,
                       match="^layer vertex with no parent$"):
        _forest_blocks(st, 0, 2)


@pytest.mark.parametrize("construct", (sp_cover_construct, sp_partition_construct))
def test_long_branch_walks_each_q_path_neighbourhood_once(monkeypatch, construct):
    # the Q-path search and the claim checks share N[Q_h - root], and
    # every stage reads the one layering from the root
    g = gen.cycle(380)
    real_hood, real_rings = constructive._closed_neighbourhood, distance_rings
    hoods, root_bfs = [], []

    def counted_hood(h, mask):
        hoods.append(mask)
        return real_hood(h, mask)

    def counted_rings(h, root):
        if h is g:
            root_bfs.append(root)
        return real_rings(h, root)

    monkeypatch.setattr(constructive, "_closed_neighbourhood", counted_hood)
    monkeypatch.setattr(constructive, "distance_rings", counted_rings)
    monkeypatch.setattr("coverlab.graph.distance_rings", counted_rings)
    t = construct(g, 4)
    assert t.intermediate["branch"] == "long"
    assert len(hoods) == len(t.intermediate["q_paths"]) == 2
    assert root_bfs == [0]


# sha256 of `to_json()` over the short cycles and brooms of the benchmark's
# construct corpus, which take the small-diameter branch: the bounded
# routines and the neighbourhood star partition on the whole graph
SHORT_GRAPHS = ([gen.cycle(k) for k in (12, 19, 26, 33, 40)]
                + [broom(h, b) for h, b in ((5, 3), (9, 5), (13, 7), (17, 9), (20, 4))])
SHORT_DIGESTS = {
    ("cover", 4): "0185e261d0369a7379585296456943bfc3ab10cd614c96c03dd49bf4c61d4aac",
    ("cover", 5): "5d7104e6c0c358d25407ae382e2fa61f28a28bac54f9af90496d3e950be2d52e",
    ("partition", 4): "67f9aee9830a7f3a10b4d7770cb7db39cc9481b8df087bf5f1d31cdb804835d8",
    ("partition", 5): "b13809970cef14a6b9ef1ed731b25fe23c972c36f78b4bc0ea8e809674a86a05",
}


@pytest.mark.parametrize("mode,n", sorted(SHORT_DIGESTS))
def test_small_diameter_trace_digest(mode, n):
    construct = {"cover": sp_cover_construct,
                 "partition": sp_partition_construct}[mode]
    h = hashlib.sha256()
    for g in SHORT_GRAPHS:
        t = construct(g, n)
        assert t.intermediate["branch"] == "small_diameter"
        h.update(t.to_json().encode())
    assert h.hexdigest() == SHORT_DIGESTS[mode, n]
