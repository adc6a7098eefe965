import importlib
import math
import pkgutil
import random
import time
from itertools import combinations, count, zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

import coverlab
from coverlab import cli, formats, generators as gen, graph, naive, solvers
from coverlab.errors import Disconnected, EmptyPiece
from coverlab.graph import (Graph, PieceKind, bits, build_graph, is_connected,
                            is_independent, mask_of, piece_shape_mask)
from coverlab.solvers import (INVARIANT_SPECS, PieceCertificate,
                              chromatic_coloring, chromatic_number,
                              clique_number, enumerate_maximal_pieces,
                              invariant_value, min_cover, min_dominating_set,
                              min_partition, pieces_at, validate_certificate)
from coverlab.verify import lemma41, oracle_agrees


@pytest.fixture(scope="module")
def closed_forms():
    return lemma41()


def _holds(checks, prefixes, count):
    picked = {name: ok for name, ok in checks if name.startswith(prefixes)}
    assert len(picked) == count and all(picked.values()), picked


def test_closed_form_complete_graphs(closed_forms):
    _holds(closed_forms, "inspc(K_", 7)


def test_closed_form_spiders(closed_forms):
    _holds(closed_forms, ("inspc(S*_", "inspp(S~_"), 12)


def test_closed_form_stars_and_paths(closed_forms):
    _holds(closed_forms, ("inpc(K_1,", "insc(P_"), 20)


def test_unknown_invariant():
    with pytest.raises(ValueError):
        invariant_value(gen.path(3), "chi")


def test_certificates_validate():
    for spec in ("k:5", "c:6", "sstar:3", "h1:2,3"):
        g = gen.generate(spec)
        for name in INVARIANT_SPECS:
            cert = invariant_value(g, name)
            assert cert.optimal
            assert validate_certificate(g, cert)
            assert cert.value == len(cert.pieces)
            assert cert.lower_bound <= cert.value


def test_solver_matches_naive_oracle():
    rng = random.Random(2024)
    for trial in range(60):
        order = rng.randint(4, 7)
        g = gen.random_connected(order, rng.uniform(0.25, 0.75), rng)
        assert oracle_agrees(g)


def test_partition_at_least_cover():
    rng = random.Random(5)
    for trial in range(30):
        g = gen.random_connected(rng.randint(4, 9), rng.uniform(0.3, 0.7), rng)
        for kind in PieceKind:
            assert min_partition(g, kind).value >= min_cover(g, kind).value


def test_validate_certificate_negative():
    g = gen.path(4)
    bad_shape = PieceCertificate(PieceKind.STAR, "cover", ((0, 2),), False, 1)
    assert not validate_certificate(g, bad_shape)
    missing = PieceCertificate(PieceKind.PATH, "cover", ((0, 1),), False, 1)
    assert not validate_certificate(g, missing)
    overlap = PieceCertificate(PieceKind.PATH, "partition",
                               ((0, 1, 2), (2, 3)), False, 1)
    assert not validate_certificate(g, overlap)
    ok = PieceCertificate(PieceKind.PATH, "cover", ((0, 1, 2), (2, 3)), False, 1)
    assert validate_certificate(g, ok)
    # a vertex outside V(G) is reported, not looked up, and no mask is
    # built for it, however large
    for pieces in (((0, 1, 2, 3, 9),), ((9,),), ((0, 1, 2, 3), (-1,)),
                   ((0, 1, 2, 3), (2**62,))):
        outside = PieceCertificate(PieceKind.PATH, "cover", pieces, False, 1)
        assert not validate_certificate(g, outside)
    with pytest.raises(EmptyPiece):
        validate_certificate(g, PieceCertificate(PieceKind.PATH, "cover",
                                                 ((0, 1, 2, 3), ()), False, 1))
    # a vertex that is not an int, a mode that is neither "cover" nor
    # "partition", or a kind that is no PieceKind, gives False too
    p3 = gen.path(3)
    for pieces in (((0, 1, 2), (1.0,)), (("a",),)):
        odd = PieceCertificate(PieceKind.PATH, "cover", pieces, False, 1)
        assert not validate_certificate(p3, odd)
    banana = PieceCertificate(PieceKind.PATH, "banana", ((0, 1), (1, 2)), False, 1)
    assert not validate_certificate(p3, banana)
    assert validate_certificate(p3, banana._replace(mode="cover"))
    for pieces in (((0,), (1,), (2,)), ((0, 1, 2),)):
        star = PieceCertificate("star", "cover", pieces, False, 1)
        assert not validate_certificate(p3, star)
        assert validate_certificate(p3, star._replace(kind=PieceKind.SP_ANY))


def test_nan_timeout_is_rejected():
    # a NaN deadline compares false everywhere, so the search would never stop
    for solve in (min_cover, min_partition):
        for g in (gen.path(3), Graph(0, ())):
            with pytest.raises(ValueError, match="timeout must not be NaN"):
                solve(g, PieceKind.PATH, timeout=float("nan"))
        assert solve(gen.path(3), PieceKind.PATH, timeout=0.5).optimal


def test_timeout_returns_incumbent():
    g = gen.random_connected(12, 0.5, random.Random(3))
    cert = min_partition(g, PieceKind.SP_ANY, timeout=0.0)
    assert not cert.optimal
    assert validate_certificate(g, cert)
    assert cert.lower_bound <= cert.value
    cert = min_cover(g, PieceKind.SP_ANY, timeout=0.0)
    assert not cert.optimal
    assert validate_certificate(g, cert)


@pytest.mark.parametrize("solve", [min_cover, min_partition])
def test_timeout_budget_includes_enumeration(monkeypatch, solve):
    g = gen.random_connected(12, 0.5, random.Random(3))
    clock = [0.0]
    late_reads = []  # clock reads after the budget ran out

    def monotonic():
        if clock[0] > 1.0:
            late_reads.append(clock[0])
        return clock[0]

    # a cover's first step enumerates its maximal pieces; a partition's
    # finds its largest piece size, here the largest star
    name = "enumerate_maximal_pieces" if solve is min_cover else "_largest_star"
    first_step = getattr(solvers, name)

    def slow_first_step(*args):
        clock[0] += 10.0  # the first step alone uses up the budget
        return first_step(*args)

    monkeypatch.setattr(solvers.time, "monotonic", monotonic)
    monkeypatch.setattr(solvers, name, slow_first_step)
    cert = solve(g, PieceKind.SP_ANY, timeout=1.0)
    # the search stops at its root: one deadline check, no node expanded
    assert late_reads == [10.0]
    assert not cert.optimal
    assert validate_certificate(g, cert)
    assert cert.lower_bound <= cert.value


def test_partitions_enumerate_no_maximal_pieces(monkeypatch):
    # a partition reads only its largest piece size, never the maximal pieces
    def refuse(g, kind):
        raise AssertionError(f"partition enumerated maximal {kind.value} pieces")

    monkeypatch.setattr(solvers, "enumerate_maximal_pieces", refuse)
    g = gen.random_connected(8, 0.4, random.Random(8))
    for name, (kind, mode) in INVARIANT_SPECS.items():
        if mode == "partition":
            cert = invariant_value(g, name)
            assert cert.optimal and validate_certificate(g, cert)
            assert cert.value == naive.naive_min_partition(
                g, naive.all_piece_masks(g)[kind]), name


def test_distance_rings_built_once_per_graph(monkeypatch):
    # ispp needs g's distance rings for its largest piece size and for
    # the pieces through every least vertex: one BFS per vertex in all,
    # and one more for `Graph.components` of the connected g
    g = gen.random_connected(14, 0.3, random.Random(5))
    real, calls = graph.distance_rings, []

    def counted(h, root):
        calls.append(root)
        return real(h, root)

    for info in pkgutil.iter_modules(coverlab.__path__):
        mod = importlib.import_module(f"coverlab.{info.name}")
        if getattr(mod, "distance_rings", None) is real:
            monkeypatch.setattr(mod, "distance_rings", counted)
    # validating its certificate runs none: its isometric test runs a
    # BFS of its own, stopped at the path's length
    cert = invariant_value(g, "ispp")
    assert cert.optimal and validate_certificate(g, cert)
    assert len(calls) == g.order + 1


def test_timeout_returns_best_root_solution(monkeypatch):
    g = gen.random_connected(7, 0.4, random.Random(11))

    def solve(checks):
        # each clock read advances by one, so the search expands `checks`
        # nodes and times out at the next
        monkeypatch.setattr(solvers.time, "monotonic", count().__next__)
        return min_partition(g, PieceKind.PATH, timeout=checks)

    dive, cert = solve(0), solve(6)
    assert not dive.optimal and not cert.optimal
    assert validate_certificate(g, cert)
    assert (dive.value, cert.value) == (4, 3)
    assert cert.lower_bound == dive.lower_bound <= cert.value


@pytest.mark.parametrize("seed", [2, 3])
def test_star_cover_order_30_proven(seed):
    # the search passes each child the budget its node can still use, so
    # subproblems that cannot beat the node's best stop early
    g = gen.random_connected(30, 0.25, random.Random(seed))
    cert = invariant_value(g, "insc", timeout=5)
    assert (cert.value, cert.optimal) == (6, True)
    assert validate_certificate(g, cert)


def brute_pieces(g, kind):
    return [m for m in range(1, 1 << g.order) if piece_shape_mask(g, m, kind)]


def by_size(masks):
    return sorted(masks, key=lambda m: (-m.bit_count(), m))


def check_maximal_pieces(g):
    for kind in PieceKind:
        shaped = brute_pieces(g, kind)
        got = enumerate_maximal_pieces(g, kind)
        assert got == by_size(got)
        assert len(got) == len(set(got))
        assert set(got) == {m for m in shaped
                            if not any(m & o == m and o != m for o in shaped)}, kind
        # a partition branches at u = V>=v on the pieces whose least vertex is v
        branch = solvers._partition_branch(g, kind)[1]
        for v in range(g.order):
            at = by_size(m for m in shaped if m & -m == 1 << v)
            # two nodes at u = V>=v read v's shared pieces in turn, each
            # from the start, one of them always ahead of the other
            pairs = list(zip_longest(branch(g.full_mask >> v << v, False),
                                     branch(g.full_mask >> v << v, False)))
            assert [a for a, _ in pairs] == [b for _, b in pairs] == at, (kind, v)
    # the path walker reaches each path through v once, in one orientation,
    # and with `maximal` keeps those that grow at neither end in g
    for ring, kind in ((None, PieceKind.PATH), (g.rings, PieceKind.ISOMETRIC_PATH)):
        for v in range(g.order):
            paths = solvers._paths_at(g, g.full_mask, v, ring, False)
            assert len(paths) == len(set(paths)), (kind, v)
            assert solvers._paths_at(g, g.full_mask, v, ring, True) == [
                m for m in paths if not any(
                    piece_shape_mask(g, m | 1 << w, kind)
                    for w in bits(g.full_mask & ~m))], (kind, v)


def broom(handle, bristles):
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + j) for j in range(bristles)]
    return build_graph(handle + bristles, edges)


def blowup(widths):
    """Path blow-up: consecutive independent layers joined completely."""
    starts = [sum(widths[:i]) for i in range(len(widths) + 1)]
    edges = [(a, b) for i in range(len(widths) - 1)
             for a in range(starts[i], starts[i + 1])
             for b in range(starts[i + 1], starts[i + 2])]
    return build_graph(starts[-1], edges)


NAMED_GRAPHS = (
    [(f"P{n}", gen.path(n)) for n in range(1, 10)]
    + [(f"C{n}", gen.cycle(n)) for n in range(3, 10)]
    + [(f"K{n}", gen.complete(n)) for n in range(1, 10)]
    + [(f"K1,{n}", gen.star(n)) for n in range(1, 9)]
    + [(f"broom{h},{b}", broom(h, b)) for h in range(1, 8) for b in range(1, 10 - h)]
    + [("blowup" + "".join(map(str, w)), blowup(w)) for k in range(1, 6)
       for w in ([1 + (i >> j & 1) for j in range(k)] for i in range(1 << k))
       if sum(w) <= 9]
)


@pytest.mark.parametrize("g", [g for _, g in NAMED_GRAPHS],
                         ids=[name for name, _ in NAMED_GRAPHS])
def test_maximal_pieces_match_brute_force_named(g):
    check_maximal_pieces(g)


@st.composite
def small_graphs(draw, max_order=9):
    n = draw(st.integers(1, max_order))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_maximal_pieces_match_brute_force_random(g):
    check_maximal_pieces(g)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_pieces_at_match_brute_force_random_within(g, data):
    within = data.draw(st.integers(1, g.full_mask))
    v = data.draw(st.sampled_from(list(bits(within))))
    for kind in PieceKind.PATH, PieceKind.ISOMETRIC_PATH:
        assert pieces_at(g, within, v, kind) == by_size(
            m for m in brute_pieces(g, kind) if m >> v & 1 and m & within == m), kind
    stars = [m for m in brute_pieces(g, PieceKind.STAR) if m >> v & 1 and m & within == m]
    for k in range(g.order + 2):
        raw = solvers._star_masks_at(g, within, v, k)
        assert len(raw) == len(set(raw)), k
        assert pieces_at(g, within, v, PieceKind.STAR, k) == sorted(
            m for m in stars if m.bit_count() == k), k
    # the union of stars and paths is read only through the partition branch,
    # here at a u inside `within` whose least vertex is v
    u = within >> v << v
    branch = solvers._partition_branch(g, PieceKind.SP_ANY)[1]
    assert list(branch(u, False)) == by_size(
        m for m in brute_pieces(g, PieceKind.SP_ANY) if m & -m == 1 << v and m & u == m)


def test_pieces_at_lists_stars_by_size_and_paths_unsized():
    g = gen.star(3)
    for kind, size in ((PieceKind.STAR, None), (PieceKind.SP_ANY, None),
                       (PieceKind.SP_ANY, 2), (PieceKind.PATH, 2),
                       (PieceKind.ISOMETRIC_PATH, 1), ("star", 2)):
        with pytest.raises(ValueError):
            pieces_at(g, g.full_mask, 0, kind, size)


def test_tracer_binds_solver_and_suite_names(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert solvers.invariant_value(gen.path(5), "inpp").value == 1
    finally:
        tracer.uninstall()
    assert tracer.metrics()["solvers.pieces_at.calls"] > 0
    assert all(callable(getattr(cli, f"_suite_{name}"))
               for name in ("lemma41", "lemma42", "theorems"))


def test_tracer_tables_name_coverlab_functions(tracing):
    # a renamed or removed function would otherwise drop out of traced runs
    # without an error: `Tracer.install` looks each one up by name
    for module, fn in [*tracing.SPANNED, *tracing.COUNTED]:
        mod = importlib.import_module(f"coverlab.{module}")
        assert callable(getattr(mod, fn, None)), f"coverlab.{module}.{fn}"


def test_traced_oracle_suite_calls_the_naive_oracles(tracing, capsys):
    # `verify oracle` must reach the brute-force oracles by their traced names
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "oracle", "--count", "4"]) == 0
    finally:
        tracer.uninstall()
    assert "4/4 checks passed" in capsys.readouterr().out
    metrics = tracer.metrics()
    assert metrics["naive.naive_min_cover.calls"] > 0
    assert metrics["naive.naive_min_partition.calls"] > 0


def brute_chromatic(g):
    for k in range(1, g.order + 1):
        def colorable(i, colors):
            if i == g.order:
                return True
            for c in range(k):
                if all(colors[w] != c for w in bits(g.adj[i] & ((1 << i) - 1))):
                    colors.append(c)
                    if colorable(i + 1, colors):
                        return True
                    colors.pop()
            return False
        if colorable(0, []):
            return k
    raise AssertionError


def brute_clique(g):
    best = 0
    for k in range(1, g.order + 1):
        for combo in combinations(range(g.order), k):
            m = mask_of(combo)
            if all(g.adj[v] & m == m & ~(1 << v) for v in combo):
                best = k
    return best


def test_classical_subroutines_match_brute_force():
    rng = random.Random(99)
    for trial in range(40):
        g = gen.random_connected(rng.randint(3, 7), rng.uniform(0.3, 0.8), rng)
        assert clique_number(g) == brute_clique(g)
        assert chromatic_number(g) == brute_chromatic(g)
    # deeper than the recursion limit: the search runs on an explicit stack
    assert clique_number(gen.complete(1100)) == 1100


def test_chromatic_coloring_is_proper_and_optimal():
    rng = random.Random(11)
    for trial in range(20):
        g = gen.random_connected(rng.randint(3, 8), 0.5, rng)
        classes = chromatic_coloring(g)
        assert len(classes) == brute_chromatic(g)
        total = 0
        for m in classes:
            assert is_independent(g, m)
            assert not total & m
            total |= m
        assert total == g.full_mask


def test_chromatic_number_deeper_than_recursion_limit():
    assert chromatic_number(gen.generate("kbar:1100")) == 1


def ref_chromatic_coloring(g):
    """The set-based search that `chromatic_coloring` ran before it kept
    its color classes as masks: the same positions, color order and
    symmetry cut, so the same classes."""
    if g.order == 0:
        return []
    order = g.by_degree

    def colorable(k):
        colors = [-1] * g.order
        used = [None] * len(order)
        used_max = [-1] * (len(order) + 1)
        next_c = [0] * len(order)
        i = 0
        while i < len(order):
            v = order[i]
            if next_c[i] == 0:
                used[i] = {colors[w] for w in bits(g.adj[v]) if colors[w] >= 0}
            limit = min(k, used_max[i] + 2)
            c = next_c[i]
            while c < limit and c in used[i]:
                c += 1
            if c < limit:
                colors[v] = c
                next_c[i] = c + 1
                used_max[i + 1] = max(used_max[i], c)
                i += 1
            else:
                colors[v] = -1
                next_c[i] = 0
                i -= 1
                if i < 0:
                    return None
        classes = [0] * k
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        return [m for m in classes if m]

    k = clique_number(g)
    while (got := colorable(k)) is None:
        k += 1
    return got


def test_chromatic_coloring_matches_set_based_reference():
    # `construct` prints these classes in its certificates
    rng = random.Random(23)
    graphs = [gen.generate(spec) for spec in ("complete:300", "complete:1100",
                                              "kbar:1100")]
    for trial in range(200):
        n, p = rng.randint(1, 14), rng.random()
        graphs.append(build_graph(n, [(u, v) for u in range(n)
                                      for v in range(u + 1, n) if rng.random() < p]))
    for g in graphs:
        assert chromatic_coloring(g) == ref_chromatic_coloring(g), formats.to_graph6(g)


def test_min_dominating_set():
    assert min_dominating_set(gen.star(6)) == [0]
    for n in (5, 9, 12):
        d = min_dominating_set(gen.path(n))
        assert len(d) == math.ceil(n / 3)
        dm = mask_of(d)
        g = gen.path(n)
        assert all((g.adj[v] | 1 << v) & dm for v in range(n))
    with pytest.raises(Disconnected):
        min_dominating_set(build_graph(4, [(0, 1), (2, 3)]))


@st.composite
def connected_graphs(draw, max_order=9):
    """A tree, each vertex joined to a drawn earlier one, plus drawn edges."""
    n = draw(st.integers(1, max_order))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(extra),
                         max_size=len(extra)))
    return build_graph(n, sorted(tree) + [e for e, k in zip(extra, keep) if k])


def dominates(g, d):
    dm = mask_of(d)
    return all((g.adj[v] | 1 << v) & dm for v in range(g.order))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_graphs())
def test_min_dominating_set_matches_brute_force(g):
    d = min_dominating_set(g)
    gamma = next(k for k in count(1) if any(
        dominates(g, c) for c in combinations(range(g.order), k)))
    assert len(d) == gamma
    assert dominates(g, d)
    assert d == sorted(set(d))


def twin_heavy_graphs():
    """K_n, K_a,b, or a connected graph with each vertex blown up into
    true or false twins: closed neighbourhoods that hold one another."""
    complete = st.integers(1, 9).map(gen.complete)
    bipartite = st.tuples(st.integers(1, 5), st.integers(1, 4)).map(
        lambda ab: build_graph(sum(ab), [(u, v) for u in range(ab[0])
                                         for v in range(ab[0], sum(ab))]))
    return st.one_of(complete, bipartite, connected_graphs(max_order=4).flatmap(
        lambda h: st.lists(st.tuples(st.integers(1, 2), st.booleans()),
                           min_size=h.order, max_size=h.order).map(
            lambda copies: twin_blowup(h, copies))).filter(is_connected))


def twin_blowup(h, copies):
    """h with vertex v replaced by copies[v] = (k, joined): k twins,
    adjacent to each other when `joined`, and each adjacent to every copy
    of v's neighbours in h."""
    starts = [0]
    for k, _ in copies:
        starts.append(starts[-1] + k)
    edges = [(a, b) for v, (k, joined) in enumerate(copies) if joined
             for a, b in combinations(range(starts[v], starts[v] + k), 2)]
    edges += [(a, b) for u, w in h.edges()
              for a in range(starts[u], starts[u + 1])
              for b in range(starts[w], starts[w + 1])]
    return build_graph(starts[-1], edges)


# only the inclusion-maximal closed neighbourhoods are cover pieces,
# one per set of twins: the size stays that of a least dominating set
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(twin_heavy_graphs())
def test_min_dominating_set_on_twins_matches_brute_force(g):
    d = min_dominating_set(g)
    gamma = next(k for k in count(1) if any(
        dominates(g, c) for c in combinations(range(g.order), k)))
    assert len(d) == gamma and dominates(g, d)


def test_min_dominating_set_of_a_sparse_bipartite_graph_is_fast():
    # every closed neighbourhood inside another one is dropped before the
    # search: here 13.4 s with all of them kept
    rng = random.Random(5)
    while True:
        g = build_graph(80, [(a, b) for a in range(40) for b in range(40, 80)
                             if rng.random() < 0.06])
        if is_connected(g):
            break
    start = time.monotonic()
    d = min_dominating_set(g)
    assert time.monotonic() - start < 2
    assert len(d) == 26 and dominates(g, d)


def test_known_small_values():
    c5 = gen.cycle(5)
    assert min_cover(c5, PieceKind.SP_ANY).value == 2
    assert min_partition(c5, PieceKind.SP_ANY).value == 2
    assert min_cover(gen.complete(4), PieceKind.PATH).value == 2
    assert min_partition(gen.path(6), PieceKind.PATH).value == 1
    # deeper than the recursion limit: path pieces grow on an explicit stack
    assert invariant_value(gen.path(1100), "inpp").value == 1
    assert min_partition(gen.star(4), PieceKind.PATH).value == 3


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(), st.data())
def test_independent_subsets_match_brute_force(g, data):
    within = data.draw(st.integers(0, g.full_mask))
    brute = [m for m in range(1 << g.order) if m & within == m and is_independent(g, m)]
    for k in range(-1, g.order + 2):
        assert sorted(solvers._independent_subsets(g, within, k)) == [
            m for m in brute if m.bit_count() == k], k


@st.composite
def triangle_free_graphs(draw, max_order=10):
    """A path, a cycle of at least four vertices, a tree or a bipartite
    graph with drawn edges between its two drawn sides."""
    n = draw(st.integers(1, max_order))
    shape = draw(st.sampled_from(["path", "cycle", "tree", "bipartite"]))
    if shape == "path":
        return gen.path(n)
    if shape == "cycle":
        return gen.cycle(max(n, 4))
    if shape == "tree":
        return build_graph(n, [(draw(st.integers(0, v - 1)), v) for v in range(1, n)])
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    across = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(across), max_size=len(across)))
    return build_graph(n, [e for e, k in zip(across, keep) if k])


def brute_maximal_independent_sets(g, within):
    sets = [m for m in range(1 << g.order) if m & within == m and is_independent(g, m)]
    return [m for m in sets if all(g.adj[v] & m for v in bits(within & ~m))]


# each neighbourhood of a triangle-free graph is independent, and its
# one maximal set is found at the root.  The example reaches the node
# r = {4}, p = {5}, x = {3}: p is independent, but 3 sees none of it, so
# {4, 5} is not maximal ({3, 4, 5} is) and the node lists nothing
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(triangle_free_graphs(), st.integers(0, (1 << 10) - 1))
@example(build_graph(6, [(0, 3), (0, 4), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5)]), 0)
def test_maximal_independent_sets_match_brute_force_triangle_free(g, drawn):
    for within in (g.full_mask, drawn & g.full_mask, *g.adj):
        got = solvers._maximal_independent_sets(g, within)
        assert sorted(got) == brute_maximal_independent_sets(g, within), within


def largest_star_by_brute_force(g):
    return max(m.bit_count() for m in brute_pieces(g, PieceKind.STAR))


def test_largest_star_skips_centres_a_clique_cover_rules_out(monkeypatch):
    # every neighbourhood of K_60 is one clique: once a star of two
    # vertices is found, no other centre needs its independence number
    real, calls = solvers._independence_number, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "_independence_number", counted)
    assert solvers._largest_star(gen.complete(60)) == 2
    assert len(calls) == 1


def test_largest_star_matches_brute_force_named():
    for name, g in NAMED_GRAPHS:
        assert solvers._largest_star(g) == largest_star_by_brute_force(g), name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_largest_star_matches_brute_force_random(g):
    assert solvers._largest_star(g) == largest_star_by_brute_force(g)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs())
def test_longest_path_matches_brute_force(g):
    # the largest piece size of a path partition's bound
    longest = max(m.bit_count() for m in brute_pieces(g, PieceKind.PATH))
    assert solvers._longest_path(g) == longest


def star_centre_last(k):
    """K_1,k with leaves 0..k-1 and centre k."""
    return build_graph(k + 1, [(i, k) for i in range(k)])


@pytest.mark.parametrize("name", ["insp", "inspp"])
@pytest.mark.parametrize("g", [gen.star(20), star_centre_last(20)],
                         ids=["centre-first", "centre-last"])
def test_partition_of_a_large_star_lists_few_pieces(monkeypatch, g, name):
    returned = []

    def counted(*args, pieces_at=solvers.pieces_at):
        out = pieces_at(*args)
        returned.append(len(out))
        return out

    monkeypatch.setattr(solvers, "pieces_at", counted)
    cert = invariant_value(g, name)
    assert (cert.value, cert.optimal) == (1, True)
    assert validate_certificate(g, cert)
    assert returned and sum(returned) < 100


# small_graphs draws each edge independently, so many of these graphs
# are disconnected
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=8))
def test_invariants_validate_and_order(g):
    for kind in PieceKind:
        cover, partition = min_cover(g, kind), min_partition(g, kind)
        for cert in (cover, partition):
            assert cert.optimal and cert.lower_bound == cert.value
            assert validate_certificate(g, cert)
        assert cover.value <= partition.value, kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=8))
def test_invariants_add_over_components(g):
    parts = [g.subgraph(list(bits(comp))) for comp in g.components]
    for name in INVARIANT_SPECS:
        assert invariant_value(g, name).value == sum(
            invariant_value(h, name).value for h in parts), name


def solve_all(g, names=tuple(INVARIANT_SPECS)):
    return {name: invariant_value(g, name) for name in names}


def test_one_graph_walks_each_maximal_path_once(monkeypatch):
    # inpc and inspc share the maximal paths, and inpp and inspp the
    # longest one, which is read off them once they are listed
    g = gen.random_connected(12, 0.3, random.Random(4))
    real, walks = solvers._paths_at, []

    def counted(h, within, v, ring, maximal):
        if ring is None and maximal:
            walks.append(v)
        return real(h, within, v, ring, maximal)

    monkeypatch.setattr(solvers, "_paths_at", counted)
    solve_all(g)
    assert sorted(walks) == list(range(g.order))


def test_one_graph_lists_each_centres_maximal_stars_once(monkeypatch):
    # insc and inspc share the maximal stars: one Bron-Kerbosch per centre
    g = gen.random_connected(12, 0.3, random.Random(4))
    real, calls = solvers._maximal_independent_sets, []

    def counted(h, within):
        calls.append(within)
        return real(h, within)

    monkeypatch.setattr(solvers, "_maximal_independent_sets", counted)
    solve_all(g)
    assert sorted(calls) == sorted(g.adj)


def test_shared_values_are_immutable():
    g = gen.random_connected(10, 0.4, random.Random(6))
    solve_all(g)
    kept = {builder: g.__dict__[builder.key] for builder in (
        solvers._maximal_paths, solvers._maximal_stars,
        solvers._longest_path, solvers._largest_star)}
    assert [type(v) for v in kept.values()] == [tuple, frozenset, int, int]
    assert all(builder(g) is value for builder, value in kept.items())
    # a cover's piece list is its own: changing it changes no later solve
    for kind in (PieceKind.PATH, PieceKind.STAR, PieceKind.SP_ANY):
        pieces = enumerate_maximal_pieces(g, kind)
        expected = list(pieces)
        pieces.clear()
        assert enumerate_maximal_pieces(g, kind) == expected, kind


# the results a graph keeps from one solve change no other solve's
# certificate: each invariant solved after the other seven on one graph
# matches a solve on a fresh copy of it, disconnected graphs included
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=9))
def test_shared_results_match_fresh_solves(g):
    for name in INVARIANT_SPECS:
        shared = Graph(g.order, g.adj)
        solve_all(shared, [other for other in INVARIANT_SPECS if other != name])
        assert invariant_value(shared, name) == invariant_value(
            Graph(g.order, g.adj), name), name


# the memo keeps exact optima and lower bounds found under a budget;
# answers read back under another budget must not change the value.  On
# the two explicit graphs, taking a child's exact answer from the memo
# although it is no better than the node's best gives inspp = inpp = 6
# and insp = 6 where the optima are 4.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=9))
@example(build_graph(9, [(0, 6), (0, 7), (1, 2), (1, 4), (1, 6), (2, 3), (2, 4),
                         (3, 4), (3, 6), (3, 7), (3, 8), (6, 7), (7, 8)]))
@example(build_graph(8, [(0, 1), (0, 2), (0, 7), (1, 2), (1, 4), (1, 7), (2, 4),
                         (4, 5)]))
def test_budgeted_search_matches_naive(g):
    for name, (kind, mode) in INVARIANT_SPECS.items():
        cert = invariant_value(g, name)
        oracle = (naive.naive_min_cover if mode == "cover"
                  else naive.naive_min_partition)
        assert cert.optimal and cert.value == oracle(
            g, naive.all_piece_masks(g)[kind]), name
        assert validate_certificate(g, cert), name


# a node under a limit of 2 takes only the first candidate, and only if it
# holds all of u: the one-piece branch lists just that one, with no sort
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=9))
def test_one_piece_branch_is_the_first_candidate_that_holds_u(g):
    for kind in PieceKind:
        branch = solvers._cover_branch(g.order, enumerate_maximal_pieces(g, kind),
                                       g.components)
        for u in range(1, g.full_mask + 1):
            holding = [m for m in branch(u, False) if m & u == u]
            assert branch(u, True) == holding[:1], (kind, u)


# under no time at all, each component answers its first solution with
# the bound ceil(|component| / largest piece size), and the answers add up
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=7))
def test_timeout_answers_bracket_the_optimum(g):
    for name, (kind, mode) in INVARIANT_SPECS.items():
        cert = invariant_value(g, name, timeout=0)
        oracle = (naive.naive_min_cover if mode == "cover"
                  else naive.naive_min_partition)
        best = oracle(g, naive.all_piece_masks(g)[kind])
        assert validate_certificate(g, cert), name
        assert cert.lower_bound <= best <= cert.value, name
        assert not cert.optimal or cert.lower_bound == best == cert.value, name


def _stirling2(n, k):
    """Partitions of an n-set into k non-empty blocks."""
    row = [1] + [0] * k  # S(0, 0..k)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def test_k_block_partitions_are_each_partition_once():
    assert [sum(_stirling2(n, k) for k in range(n + 1)) for n in range(9)] == [
        1, 1, 2, 5, 15, 52, 203, 877, 4140]  # Bell numbers
    for n in range(9):
        for k in range(n + 2):
            parts = list(naive._k_block_partitions(n, k))
            assert len(parts) == _stirling2(n, k), (n, k)
            assert len({frozenset(p) for p in parts}) == len(parts), (n, k)
            for part in parts:
                assert len(part) == k and all(part), (n, k, part)
                assert sum(part) == (1 << n) - 1, (n, k, part)  # disjoint cover
            if k > n or (k == 0 and n >= 1):
                assert parts == [], (n, k)


def _whole_bell_min_partition(g, masks):
    """Reference minimum: the fewest blocks over all Bell(n) set
    partitions of V whose blocks are all in `masks`, walked recursively."""
    def partitions(items):
        if not items:
            yield []
            return
        for part in partitions(items[1:]):
            for i in range(len(part)):
                yield part[:i] + [part[i] | 1 << items[0]] + part[i + 1:]
            yield part + [1 << items[0]]

    pieces = set(masks)
    return min(len(p) for p in partitions(list(range(g.order)))
               if all(m in pieces for m in p))


# one subset scan lists each kind's pieces as piece_shape_mask does, and
# growing k finds the same minimum as the walk over all set partitions
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(max_order=8))
@example(build_graph(0, []))
def test_naive_oracle_matches_whole_bell_walk(g):
    pieces = naive.all_piece_masks(g)
    assert set(pieces) == set(PieceKind)
    for kind in PieceKind:
        assert pieces[kind] == [m for m in range(1, 1 << g.order)
                                if piece_shape_mask(g, m, kind)], kind
        assert (naive.naive_min_partition(g, pieces[kind])
                == _whole_bell_min_partition(g, pieces[kind])), kind


STAR_AND_ISOLATED = build_graph(2201, [(0, i) for i in range(1, 1101)])


# each of these graphs once ran out of recursion depth: the search took
# one level per piece
@pytest.mark.parametrize("name", ["insp", "inspp"])
def test_star_and_isolated_vertices_partition(name):
    cert = invariant_value(STAR_AND_ISOLATED, name)
    assert (cert.value, cert.optimal) == (1101, True)
    assert validate_certificate(STAR_AND_ISOLATED, cert)


def test_star_and_isolated_vertices_cover():
    cert = invariant_value(STAR_AND_ISOLATED, "insc")
    assert (cert.value, cert.optimal) == (1101, True)
    assert validate_certificate(STAR_AND_ISOLATED, cert)


def test_caterpillar_star_cover():
    # a path of 1100 vertices with leaf 1100 + i on vertex i: no star
    # holds two of the leaves, since no vertex sees both
    g = build_graph(2200, [(i, i + 1) for i in range(1099)]
                    + [(i, 1100 + i) for i in range(1100)])
    cert = invariant_value(g, "insc")
    assert (cert.value, cert.optimal) == (1100, True)
    assert validate_certificate(g, cert)


def test_large_spider_partition_times_out_with_a_certificate():
    g = gen.generate("sstar:1100")
    cert = invariant_value(g, "insp", timeout=1)
    assert validate_certificate(g, cert)
    assert cert.lower_bound <= cert.value


def test_order_zero_graph():
    g = build_graph(0, [])
    for name in INVARIANT_SPECS:
        cert = invariant_value(g, name)
        assert (cert.value, cert.optimal, cert.lower_bound) == (0, True, 0), name
        assert validate_certificate(g, cert)
    assert solvers.chromatic_coloring(g) == []
    assert solvers.chromatic_number(g) == 0
    assert solvers.min_dominating_set(g) == []


@pytest.mark.parametrize("solve", [min_cover, min_partition,
                                   solvers.enumerate_maximal_pieces])
@pytest.mark.parametrize("order", [0, 5])
def test_unknown_kind_is_rejected(solve, order):
    with pytest.raises(ValueError, match="unknown kind 'star'"):
        solve(gen.path(order) if order else build_graph(0, []), "star")
