"""Graph serialization: graph6 and a plain edge-list format.

The edge-list format is line-oriented: a header line ``p <order>``
followed by one ``u v`` line per edge; blank lines and ``#`` comments
are ignored.
"""

from __future__ import annotations

from .errors import FormatError
from .graph import Graph, build_graph


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


def to_graph6(g: Graph) -> str:
    out = [_g6_encode_order(g.order)]
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


def to_edge_list(g: Graph) -> str:
    lines = [f"p {g.order}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    order = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: bad vertex index") from None
        edges.append((u, v))
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
