import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coverlab import generators as gen, solvers
from coverlab.errors import Disconnected
from coverlab.graph import (PieceKind, bits, build_graph, is_independent,
                            mask_of, piece_shape_mask)
from coverlab.solvers import (INVARIANT_SPECS, PieceCertificate, SolveConfig,
                              chromatic_coloring, chromatic_number,
                              clique_number, enumerate_maximal_pieces,
                              independence_number, invariant_value, min_cover,
                              min_dominating_set, min_partition,
                              validate_certificate)
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


def test_timeout_returns_incumbent():
    g = gen.random_connected(12, 0.5, random.Random(3))
    cert = min_partition(g, PieceKind.SP_ANY, SolveConfig(timeout=0.0))
    assert not cert.optimal
    assert validate_certificate(g, cert)
    assert cert.lower_bound <= cert.value
    cert = min_cover(g, PieceKind.SP_ANY, SolveConfig(timeout=0.0))
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

    def slow_enumeration(g, kind, enumerate_pieces=enumerate_maximal_pieces):
        clock[0] += 10.0  # enumeration alone uses up the budget
        return enumerate_pieces(g, kind)

    monkeypatch.setattr(solvers.time, "monotonic", monotonic)
    monkeypatch.setattr(solvers, "enumerate_maximal_pieces", slow_enumeration)
    cert = solve(g, PieceKind.SP_ANY, SolveConfig(timeout=1.0))
    # the search stops at its root: one deadline check, no node expanded
    assert late_reads == [10.0]
    assert not cert.optimal
    assert validate_certificate(g, cert)
    assert cert.lower_bound <= cert.value


def brute_maximal_pieces(g, kind):
    shaped = [m for m in range(1, 1 << g.order) if piece_shape_mask(g, m, kind)]
    return {m for m in shaped
            if not any(m & o == m and o != m for o in shaped)}


def check_maximal_pieces(g):
    for kind in PieceKind:
        got = enumerate_maximal_pieces(g, kind)
        assert got == sorted(got, key=lambda m: (-m.bit_count(), m))
        assert len(got) == len(set(got))
        assert set(got) == brute_maximal_pieces(g, kind), kind


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
        comp = gen.complement(g)
        assert independence_number(g) == brute_clique(comp) if comp.order else True


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


def test_known_small_values():
    c5 = gen.cycle(5)
    assert min_cover(c5, PieceKind.SP_ANY).value == 2
    assert min_partition(c5, PieceKind.SP_ANY).value == 2
    assert min_cover(gen.complete(4), PieceKind.PATH).value == 2
    assert min_partition(gen.path(6), PieceKind.PATH).value == 1
    # deeper than the recursion limit: path pieces grow on an explicit stack
    assert invariant_value(gen.path(1100), "inpp").value == 1
    assert min_partition(gen.star(4), PieceKind.PATH).value == 3
