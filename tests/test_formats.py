import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from coverlab import formats, generators as gen
from coverlab.errors import FormatError
from coverlab.formats import (from_edge_list, from_graph6, read_graph,
                              to_edge_list, to_graph6, to_json, write_graph)
from coverlab.graph import Graph, build_graph


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


# each error branch of from_edge_list, with its exact message and line
@pytest.mark.parametrize("text, message", [
    ("p 3\np 3\n", "line 2: duplicate header"),
    ("p 3\n0 1\np 3\n", "line 3: duplicate header"),
    ("p\n", "line 1: header must be 'p <order>'"),
    ("p 3 4\n", "line 1: header must be 'p <order>'"),
    ("p x\n", "line 1: bad order"),
    ("0 1\n", "line 1: edge before 'p' header"),
    ("p 3\n0 1 2\n", "line 2: expected 'u v'"),
    ("p 3\n5\n", "line 2: expected 'u v'"),
    ("p 3\n1 x\n", "line 2: bad vertex index"),
    ("\n\np 3\n0 1\n1 x #c\n", "line 5: bad vertex index"),
    ("", "missing 'p <order>' header"),
    ("# only a comment\n\n", "missing 'p <order>' header"),
    ("p 3\n1 1\n", "self-loop at vertex 1"),
    ("p 3\n0 1\n\n  # c\n2 2 # x\n", "self-loop at vertex 2"),
    ("p 3\n0 9\n", "edge (0,9) outside [0,3)"),
    ("p 3\n-1 2\n", "edge (-1,2) outside [0,3)"),
    ("p -2\n", "order must be non-negative"),
])
def test_edge_list_error_messages(text, message):
    with pytest.raises(FormatError) as exc:
        from_edge_list(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text", [
    "# c\n\np 3 # h\n0 1 # e\n  \n1 2\n",  # comments and blank lines
    "p 3\r\n0 1\r\n1 2\r\n",              # CRLF line ends
    "p +3\n+0 +1\n1 2\n",                   # a sign int() accepts
    "p\t3\n0\t1\n1 \t 2\n",                 # tabs between the fields
    "p 3\n1 2\n0 1\n2 1\n",                 # any order, repeats coalesce
])
def test_edge_list_accepts(text):
    assert from_edge_list(text).adj == gen.path(3).adj


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


# -- graph6 against the per-bit reference -------------------------------


def reference_to_graph6(g):
    """The per-bit encoder formats.to_graph6 replaced, kept as an oracle."""
    out = [formats._g6_encode_order(g.order)]
    acc = 0
    nbits = 0
    for j in range(1, g.order):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def reference_from_graph6(s):
    """The per-bit decoder formats.from_graph6 replaced, kept as an oracle."""
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    n, pos = formats._g6_decode_order(s)
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[pos:]
    if len(body) != need:
        raise FormatError(
            f"graph6 body length {len(body)} does not match order {n}")
    edges = []
    for ch in body:
        c = ord(ch) - 63
        if not 0 <= c <= 63:
            raise FormatError(f"bad graph6 character {ch!r}")
    k = 0
    for j in range(1, n):
        for i in range(j):
            ch = ord(body[k // 6]) - 63
            if ch >> (5 - k % 6) & 1:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def random_graph(n, p, rng):
    return build_graph(n, [(i, j) for j in range(n) for i in range(j)
                           if rng.random() < p])


def assert_matches_reference(g):
    text = to_graph6(g)
    assert text == reference_to_graph6(g)
    assert from_graph6(text) == reference_from_graph6(text) == Graph(g.order, g.adj)


def test_graph6_matches_reference_at_every_order_to_70():
    # the order prefix switches from one byte to four at 63
    rng = random.Random(31)
    for n in range(71):
        for g in (gen.path(n) if n else build_graph(0, []),
                  random_graph(n, 0.5, rng), random_graph(n, 1.0, rng)):
            assert_matches_reference(g)


def test_graph6_matches_reference_on_random_graphs():
    rng = random.Random(6)
    for _ in range(60):
        assert_matches_reference(random_graph(rng.randint(0, 120), rng.random(), rng))


def test_graph6_decodes_like_reference_with_nonzero_padding():
    # both ignore the unused low bits of the last character
    for text in ("A~", "B~", "D~~", "E~~~"):
        assert from_graph6(text) == reference_from_graph6(text)


def test_graph6_long_path_roundtrip():
    g = gen.path(3000)
    t = time.perf_counter()
    text = to_graph6(g)
    back = from_graph6(text)
    # the per-bit codec took 1-2 s here; a generous bound against a regression
    assert time.perf_counter() - t < 1.0
    assert back.adj == g.adj
    assert len(text) == 4 + (3000 * 2999 // 2 + 5) // 6


# -- the JSON writer against json.dumps ---------------------------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.sampled_from(["é", "ünïcödé", "日本", "\U0001f600", "a\"b\\c\n"]))
_KEYS = (st.text(), st.integers(-2**70, 2**70), st.booleans(),
         st.floats(allow_nan=False))
_VALUES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.lists(st.integers(-10, 2**64), max_size=8),
    *(st.dictionaries(keys, kids, max_size=5) for keys in _KEYS)), max_leaves=40)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_to_json_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [1, True, 2], [True, False], [None],
    {1: "x", 2: "y", 10: "z"}, {None: 1}, {"": [0, -1, 2**100]},
    [math.nan, math.inf, -math.inf], {1.5: 2, -0.0: 3}, "\u2028\x00",
])
def test_to_json_edge_values(value):
    assert to_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{(1, 2): 3}, [object()], {"a": {1, 2}}])
def test_to_json_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        to_json(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)
