import random
from itertools import combinations, permutations

import pytest

from coverlab import generators as gen
from coverlab.errors import DisconnectedMember
from coverlab.graph import build_graph
from coverlab.iso import (INVARIANTS, ForbiddenFamily, characterize,
                          contains_induced, family_leq, freeness_witness,
                          is_family_free, target_family)
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
                    if pattern.has_edge(a, b) != host.has_edge(perm[a], perm[b]):
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
                assert pattern.has_edge(a, b) == host.has_edge(emb.map[a], emb.map[b])
    assert found > 50


def test_containment_known_cases():
    assert contains_induced(gen.complete(5), gen.complete(3)) is not None
    assert contains_induced(gen.complete(5), gen.path(3)) is None  # P_3 not induced in K_5
    assert contains_induced(gen.cycle(6), gen.path(4)) is not None
    assert contains_induced(gen.path(4), gen.cycle(4)) is None
    assert contains_induced(gen.s_tilde(3), gen.s_star(3)) is None  # extra edges break it
    assert contains_induced(gen.f3(3), gen.f4(3)) is not None


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
    for inv in INVARIANTS:
        f4 = target_family(inv, 4)
        assert family_leq(f4, f4)
    _holds(theorem_checks, "target(", 3 * len(INVARIANTS))


def test_family_leq_transitive_spot():
    for inv in ("inspc", "inpp"):
        a = target_family(inv, 4)
        c = target_family(inv, 6)
        assert family_leq(a, c)


def test_characterize_self(theorem_checks):
    _holds(theorem_checks, "characterize(target(", 2 * len(INVARIANTS))


def test_characterize_none_and_errors(theorem_checks):
    _holds(theorem_checks, "characterize({P_4}", 1)
    with pytest.raises(DisconnectedMember):
        characterize(ForbiddenFamily((build_graph(4, [(0, 1)]),)), "inspc")
    with pytest.raises(ValueError):
        characterize(ForbiddenFamily(()), "inspc")
    with pytest.raises(ValueError):
        target_family("nope", 4)
