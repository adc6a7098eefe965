import hashlib
import random

import pytest

from coverlab import generators as gen
from coverlab.errors import BadParameter, ParseError
from coverlab.graph import is_connected
from coverlab.iso import contains_induced


def test_complete_and_empty():
    k = gen.complete(5)
    assert k.order == 5 and k.edge_count() == 10
    e = gen.empty_complement(4)
    assert e.order == 4 and e.edge_count() == 0


def test_star_path_cycle_sizes():
    for n in range(2, 8):
        assert gen.star(n).order == n + 1
        assert gen.star(n).edge_count() == n
        assert gen.path(n).edge_count() == n - 1
        if n >= 3:
            assert gen.cycle(n).edge_count() == n


def test_spider_family_sizes():
    for n in range(2, 7):
        s = gen.s_star(n)
        assert s.order == 2 * n + 1 and s.edge_count() == 2 * n
        st = gen.s_tilde(n)
        assert st.order == 2 * n + 1 and st.edge_count() == 3 * n
        assert gen.f1(n).order == 2 * n + 2
        assert gen.f1(n).edge_count() == 3 + 2 * (n - 1)
        assert gen.f2(n).order == 2 * n + 1
        assert gen.f2(n).edge_count() == 3 + 2 * (n - 1)
        assert gen.f3(n).order == 3 * n
        assert gen.f3(n).edge_count() == 2 * n + 2 * (n - 1)
        assert gen.f4(n).order == 2 * n + 2
        assert gen.f4(n).edge_count() == 4 + 2 * (n - 1)
        assert gen.f5(n).order == 2 * n + 2
        assert gen.f5(n).edge_count() == 5 + 2 * (n - 1)
        ks = gen.k_star(n)
        assert ks.order == 2 * n
        assert ks.edge_count() == n * (n - 1) // 2 + n


def test_f_family_relations():
    for n in (2, 3, 4):
        # the two-apex variant arises from the all-apex variant by deletion
        assert contains_induced(gen.f3(n), gen.f4(n)) is not None
        # adding one apex edge turns the one into the other
        f4, f5 = gen.f4(n), gen.f5(n)
        assert f5.edge_count() == f4.edge_count() + 1
        assert f5.adj[0] >> 1 & 1 and not f4.adj[0] >> 1 & 1


def test_chained_family_sizes():
    for m in (2, 3, 4):
        for n in (3, 4):
            assert gen.h1(m, n).order == m * n + 2 * (m - 1)
            assert gen.h2(m, n).order == m * n + (m - 1)
            assert gen.h3(m, n).order == m * n + (m - 1) * m
            assert gen.h4(m, n).order == m * n + 2 * (m - 1)
            assert gen.h5(m, n).order == m * n + 2 * (m - 1)
            assert gen.h5(m, n).edge_count() == gen.h4(m, n).edge_count() + m - 1
            for fn in (gen.h1, gen.h2, gen.h3, gen.h4, gen.h5):
                assert is_connected(fn(m, n))


def test_h2_junctions_are_triangles():
    g = gen.h2(2, 3)
    # path ends 2 and 3 plus the connector form a triangle
    assert g.adj[2] >> 3 & 1
    v = 2 * 3  # connector index
    assert g.adj[v] >> 2 & 1 and g.adj[v] >> 3 & 1


def test_parameter_validation():
    with pytest.raises(BadParameter):
        gen.s_star(1)
    with pytest.raises(BadParameter):
        gen.cycle(2)
    with pytest.raises(BadParameter):
        gen.h1(1, 3)
    with pytest.raises(BadParameter):
        gen.h1(2, 2)


def test_random_connected_is_connected_and_deterministic():
    a = gen.random_connected(9, 0.3, random.Random(7))
    b = gen.random_connected(9, 0.3, random.Random(7))
    assert a.adj == b.adj
    assert is_connected(a)


def test_random_connected_rejects_an_order_below_one():
    with pytest.raises(BadParameter, match="order >= 1 required"):
        gen.random_connected(0, 0.5, random.Random(0))


@pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
def test_random_connected_rejects_p_that_never_connects(p):
    rng = random.Random(0)
    with pytest.raises(BadParameter, match="p > 0 required"):
        gen.random_connected(2, p, rng)
    assert rng.random() == random.Random(0).random()  # no draw was made
    assert gen.random_connected(1, p, rng).order == 1  # K_1 is connected


def test_generate_parsing():
    assert gen.generate("sstar:3").order == 7
    assert gen.generate("h3:2,3").order == 8
    assert gen.generate("K:4").edge_count() == 6  # case-insensitive
    assert gen.generate("p:5").order == 5
    with pytest.raises(ParseError):
        gen.generate("f9:4")
    with pytest.raises(ParseError):
        gen.generate("sstar")
    with pytest.raises(ParseError):
        gen.generate("sstar:2,3")
    with pytest.raises(ParseError):
        gen.generate("h1:4")
    with pytest.raises(ParseError):
        gen.generate("path:x")


# sha256 over (order, adj, label) of H^(k)_{m,n} for m in 2..6, n in 3..7
H_DIGESTS = {
    "h1": "895bce021d449d8cffb137decd4ad7f4a98a392d14ea03d318371d1dcaa380bd",
    "h2": "054df1d380410d189919ff7d6ddf7aba251f98e2f2ccf35d5d6b91b9846f3c69",
    "h3": "4f1098e18e05a4101f4b4d5bbd8253a39327c96f9ef33122161b7ac1dbd62c1c",
    "h4": "e2ebb486a6f17bc0ee543fdd9e5285946e1946dceed7ec3e6e92b058ca315854",
    "h5": "9a32d489a15962cf17458a166028caa089faa644dcd31a5043c42069a93e2f6d",
}


@pytest.mark.parametrize("name", sorted(H_DIGESTS))
def test_chained_family_layout_digest(name):
    build = getattr(gen, name)
    h = hashlib.sha256()
    for m in range(2, 7):
        for n in range(3, 8):
            g = build(m, n)
            h.update(repr((g.order, g.adj, g.label)).encode())
    assert h.hexdigest() == H_DIGESTS[name]
    for m, n in ((1, 3), (2, 2)):
        with pytest.raises(BadParameter) as exc:
            build(m, n)
        assert str(exc.value) == f"{name}: m >= 2 and n >= 3 required"
