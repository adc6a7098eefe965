import random

import pytest

from coverlab import generators as gen
from coverlab.errors import FormatError
from coverlab.formats import (from_edge_list, from_graph6, read_graph,
                              to_edge_list, to_graph6, write_graph)


CORPUS = [
    gen.complete(1), gen.complete(4), gen.empty_complement(5), gen.path(9),
    gen.cycle(7), gen.star(6), gen.s_star(3), gen.s_tilde(4), gen.f1(3),
    gen.f3(4), gen.k_star(3), gen.h1(2, 3), gen.h3(3, 3), gen.path(62),
]


def test_graph6_roundtrip():
    for g in CORPUS:
        assert from_graph6(to_graph6(g)).adj == g.adj


def test_edge_list_roundtrip():
    for g in CORPUS:
        assert from_edge_list(to_edge_list(g)).adj == g.adj


def test_graph6_known_strings():
    # published encodings: K_4 and the 4-path 0-1-2-3
    assert to_graph6(gen.complete(4)) == "C~"
    assert from_graph6("Ch").adj == gen.path(4).adj
    assert to_graph6(gen.path(4)) == "Ch"
    # 5-cycle
    assert from_graph6("DqK").order == 5


def test_graph6_header_prefix_accepted():
    assert from_graph6(">>graph6<<C~").adj == gen.complete(4).adj


def test_graph6_large_order_header():
    g = gen.path(70)
    s = to_graph6(g)
    assert s.startswith("~")
    assert from_graph6(s).adj == g.adj


def test_graph6_errors():
    with pytest.raises(FormatError):
        from_graph6("")
    with pytest.raises(FormatError):
        from_graph6("C~~~~")  # wrong body length
    with pytest.raises(FormatError):
        from_graph6("~A")  # truncated order
    with pytest.raises(FormatError, match="bad graph6 character '!'"):
        from_graph6("C!")  # a body byte below 63


@pytest.mark.parametrize("text", ["!", "~!!!", "~?!?", "~~!!!!!!", "~~?????!"])
def test_graph6_order_prefix_rejects_bad_characters(text):
    # each order form (1, 4 and 8 bytes) takes only bytes 63..126
    with pytest.raises(FormatError, match="bad graph6 character '!'"):
        from_graph6(text)


def test_edge_list_parsing_details():
    g = from_edge_list("# comment\np 3\n0 1 # tail comment\n\n1 2\n")
    assert g.adj == gen.path(3).adj


def test_edge_list_errors():
    with pytest.raises(FormatError):
        from_edge_list("0 1\n")  # edge before header
    with pytest.raises(FormatError):
        from_edge_list("p 3\np 3\n")
    with pytest.raises(FormatError):
        from_edge_list("p x\n")
    with pytest.raises(FormatError):
        from_edge_list("p 3\n0 1 2\n")
    with pytest.raises(FormatError):
        from_edge_list("p 3\n0 9\n")  # out of range
    with pytest.raises(FormatError):
        from_edge_list("")


@pytest.mark.parametrize("text, message", [
    ("p 3 4\n", "line 1: header must be 'p <order>'"),
    ("p 3\n1 x\n", "line 2: bad vertex index"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        from_edge_list(text)
    assert str(exc.value) == message


def test_dispatch():
    g = gen.cycle(5)
    for fmt in ("g6", "edges"):
        assert read_graph(write_graph(g, fmt), fmt).adj == g.adj
    with pytest.raises(FormatError):
        write_graph(g, "dot")
    with pytest.raises(FormatError):
        read_graph("x", "dot")


def test_random_roundtrip():
    rng = random.Random(1)
    for trial in range(50):
        g = gen.random_connected(rng.randint(1, 20), rng.random(), rng)
        assert from_graph6(to_graph6(g)).adj == g.adj
        assert from_edge_list(to_edge_list(g)).adj == g.adj
