"""Serialization: graph6, a plain edge-list format and the CLI's JSON.

The edge-list format is line-oriented: a header line ``p <order>``
followed by one ``u v`` line per edge; blank lines and ``#`` comments
are ignored.  Each codec takes one Python-level step per line, graph6
column, edge or JSON container, so its time is linear in its text; the
characters and bits move in C string, int and binascii operations.
"""

from __future__ import annotations

import binascii
import json
import re

from .errors import FormatError
from .graph import Graph, build_graph

# json.dumps with `indent` set runs json's pure-Python encoder; to_json
# lays out the same text itself and leaves each scalar to the C one
_scalar = json.JSONEncoder().encode


def to_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte."""
    out = []
    _put_json(obj, "\n", out)
    return "".join(out)


def _put_json(obj, nl: str, out: list) -> None:
    """Append the JSON of obj to out; nl is a newline and the indent of
    obj's own line.  A report's depth is fixed by the code that builds it."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, obj)) == {int}:  # no bool: json writes true/false
            out.append("[" + inner + sep.join(map(int.__repr__, obj)) + nl + "]")
            return
        lead = "[" + inner
        for x in obj:
            out.append(lead)
            lead = sep
            _put_json(x, inner, out)
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "," + inner
        lead = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _scalar(key)  # json quotes the scalar: "1", "true"
            out.append(lead + _scalar(key) + ": ")
            lead = sep
            _put_json(value, inner, out)
        out.append(nl + "}")
    else:
        out.append(_scalar(obj))


def _g6_encode_order(n: int) -> str:
    if n < 0:
        raise FormatError("order must be non-negative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 63) + 63) for s in
                              (30, 24, 18, 12, 6, 0))
    raise FormatError("order too large for graph6")


def _g6_decode_order(s: str) -> tuple[int, int]:
    """Return (order, number of characters consumed)."""
    if not s:
        raise FormatError("empty graph6 string")
    if s[0] != "~":
        width, skip = 1, 0
    elif len(s) >= 2 and s[1] != "~":
        width, skip = 3, 1
    else:
        width, skip = 6, 2
    digits = s[skip:skip + width]
    if len(digits) < width:
        raise FormatError("truncated graph6 order")
    n = 0
    for ch in digits:
        if not 63 <= ord(ch) <= 126:
            raise FormatError(f"bad graph6 character {ch!r}")
        n = n << 6 | (ord(ch) - 63)
    return n, skip + width


# graph6 packs six bits into each character chr(63 + x), as base64 packs
# them into its alphabet: the codec runs through binascii and translates
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)
_G6_BAD = re.compile(r"[^?-~]")


def to_graph6(g: Graph) -> str:
    # column j holds the bits of j's neighbours i < j, in ascending i
    adj = g.adj
    bitstr = "".join([format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1]
                      for j in range(1, g.order)])
    nbits = len(bitstr)
    pad = -nbits % 24
    raw = (int(bitstr or "0", 2) << pad).to_bytes((nbits + pad) // 8, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)
    return _g6_encode_order(g.order) + body[:(nbits + 5) // 6].decode("ascii")


def from_graph6(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    n, pos = _g6_decode_order(s)
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[pos:]
    if len(body) != need:
        raise FormatError(
            f"graph6 body length {len(body)} does not match order {n}")
    bad = _G6_BAD.search(body)
    if bad:
        raise FormatError(f"bad graph6 character {bad.group()!r}")
    raw = binascii.a2b_base64(body.encode("ascii").translate(_G6_TO_B64)
                              + b"A" * (-len(body) % 4))
    bitstr = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    rows = [0] * n
    for j in range(1, n):
        off = j * (j - 1) // 2
        lower = int(bitstr[off:off + j][::-1], 2)
        rows[j] |= lower
        while lower:
            low = lower & -lower
            rows[low.bit_length() - 1] |= 1 << j
            lower ^= low
    return Graph(n, tuple(rows))


def to_edge_list(g: Graph) -> str:
    lines = [f"p {g.order}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    order = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        parts = line.split()
        if len(parts) == 2 and order is not None and parts[0] != "p":
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex index") from None
            continue
        if not parts:
            continue
        if parts[0] == "p":
            if order is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: header must be 'p <order>'")
            try:
                order = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad order") from None
            continue
        if order is None:
            raise FormatError(f"line {lineno}: edge before 'p' header")
        raise FormatError(f"line {lineno}: expected 'u v'")
    if order is None:
        raise FormatError("missing 'p <order>' header")
    try:
        return build_graph(order, edges)
    except Exception as exc:
        # a MemoryError, say, has no text of its own
        raise FormatError(str(exc) or type(exc).__name__) from exc


def write_graph(g: Graph, fmt: str) -> str:
    if fmt == "g6":
        return to_graph6(g) + "\n"
    if fmt == "edges":
        return to_edge_list(g)
    raise FormatError(f"unknown format {fmt!r}")


def read_graph(text: str, fmt: str) -> Graph:
    if fmt == "g6":
        return from_graph6(text)
    if fmt == "edges":
        return from_edge_list(text)
    raise FormatError(f"unknown format {fmt!r}")
