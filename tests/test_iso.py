import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from coverlab import generators as gen
from coverlab.errors import DisconnectedMember
from coverlab.graph import build_graph
from coverlab.iso import (Embedding, ForbiddenFamily, _pattern_order,
                          characterize, contains_induced, family_leq,
                          freeness_witness, is_family_free, target_family)
from coverlab.solvers import INVARIANT_SPECS
from coverlab.verify import theorems


def brute_contains_induced(host, pattern):
    """Reference check: try every injective vertex map."""
    if pattern.order > host.order:
        return False
    for combo in combinations(range(host.order), pattern.order):
        for perm in permutations(combo):
            ok = True
            for a in range(pattern.order):
                for b in range(a + 1, pattern.order):
                    if pattern.adj[a] >> b & 1 != host.adj[perm[a]] >> perm[b] & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def random_graph(rng, order, p):
    edges = [(i, j) for i in range(order) for j in range(i + 1, order)
             if rng.random() < p]
    return build_graph(order, edges)


def test_contains_induced_matches_brute_force():
    rng = random.Random(42)
    for trial in range(300):
        host = random_graph(rng, rng.randint(3, 8), rng.uniform(0.2, 0.8))
        pattern = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
        got = contains_induced(host, pattern) is not None
        assert got == brute_contains_induced(host, pattern)


def test_empty_pattern_embeds_everywhere():
    for host in (build_graph(0, []), gen.path(3)):
        assert contains_induced(host, build_graph(0, [])) == Embedding(())


def test_embedding_is_induced():
    rng = random.Random(7)
    found = 0
    for trial in range(200):
        host = random_graph(rng, rng.randint(4, 8), 0.5)
        pattern = random_graph(rng, rng.randint(2, 4), 0.5)
        emb = contains_induced(host, pattern)
        if emb is None:
            continue
        found += 1
        assert len(set(emb.map)) == pattern.order
        for a in range(pattern.order):
            for b in range(a + 1, pattern.order):
                assert pattern.adj[a] >> b & 1 == host.adj[emb.map[a]] >> emb.map[b] & 1
    assert found > 50


def test_containment_known_cases():
    assert contains_induced(gen.complete(5), gen.complete(3)) is not None
    assert contains_induced(gen.complete(5), gen.path(3)) is None  # P_3 not induced in K_5
    assert contains_induced(gen.cycle(6), gen.path(4)) is not None
    assert contains_induced(gen.path(4), gen.cycle(4)) is None
    assert contains_induced(gen.s_tilde(3), gen.s_star(3)) is None  # extra edges break it
    assert contains_induced(gen.f3(3), gen.f4(3)) is not None


def test_stilde_excludes_sstar():
    # every vertex of S~_10 sees x_1, so no image is left for a z_i of S*_9;
    # without look-ahead this is about 10! * 2^9 partial maps
    assert contains_induced(gen.s_tilde(10), gen.s_star(9)) is None


def least_embedding(host, pattern):
    """The induced embedding whose images, read in `_pattern_order` and
    ranked by host degree descending (index ascending), are least."""
    order = _pattern_order(pattern)
    by_degree = sorted(range(host.order), key=lambda v: (-host.degrees[v], v))
    rank = {h: i for i, h in enumerate(by_degree)}
    best = None
    for images in permutations(range(host.order), pattern.order):
        if all(pattern.adj[a] >> b & 1 == host.adj[images[a]] >> images[b] & 1
               for a, b in combinations(range(pattern.order), 2)):
            key = tuple(rank[images[p]] for p in order)
            if best is None or key < best[0]:
                best = (key, images)
    return None if best is None else best[1]


def test_first_embedding_is_least():
    rng = random.Random(2024)
    found = 0
    for trial in range(300):
        host = random_graph(rng, rng.randint(1, 7), rng.uniform(0.2, 0.8))
        pattern = random_graph(rng, rng.randint(1, 4), rng.uniform(0.2, 0.8))
        emb = contains_induced(host, pattern)
        assert (emb and emb.map) == least_embedding(host, pattern)
        found += emb is not None
    assert 100 < found < 300


@st.composite
def small_graphs(draw, max_order):
    n = draw(st.integers(1, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_graphs(10), small_graphs(6))
def test_contains_induced_matches_networkx(host, pattern):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(g.edges())
        return h

    expected = GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_is_isomorphic()
    assert (contains_induced(host, pattern) is not None) == expected


def test_freeness_and_witness():
    fam = target_family("inspc", 4)
    assert is_family_free(gen.path(20), fam)
    hit = freeness_witness(gen.complete(4), fam)
    assert hit is not None
    member, emb = hit
    assert member.label == "K_4"
    assert sorted(emb.image()) == [0, 1, 2, 3]


@pytest.fixture(scope="module")
def theorem_checks():
    return theorems()


def _holds(checks, prefix, count):
    picked = {name: ok for name, ok in checks if name.startswith(prefix)}
    assert len(picked) == count and all(picked.values()), picked


def test_family_leq_reflexive_and_monotone(theorem_checks):
    for inv in INVARIANT_SPECS:
        f4 = target_family(inv, 4)
        assert family_leq(f4, f4)
    _holds(theorem_checks, "target(", 3 * len(INVARIANT_SPECS))


def test_family_leq_transitive_spot():
    for inv in ("inspc", "inpp"):
        a = target_family(inv, 4)
        c = target_family(inv, 6)
        assert family_leq(a, c)


def test_characterize_self(theorem_checks):
    _holds(theorem_checks, "characterize(target(", 2 * len(INVARIANT_SPECS))


def test_characterize_none_and_errors(theorem_checks):
    _holds(theorem_checks, "characterize({P_4}", 1)
    with pytest.raises(DisconnectedMember):
        characterize(ForbiddenFamily((build_graph(4, [(0, 1)]),)), "inspc")
    with pytest.raises(ValueError):
        characterize(ForbiddenFamily(()), "inspc")
    with pytest.raises(ValueError):
        target_family("nope", 4)
