"""Deterministic constructors for the named graph families.

Every generator documents its vertex index layout so that certificates
referring to vertex indices are reproducible run to run.
"""

from __future__ import annotations

import random

from .errors import BadParameter, ParseError
from .graph import Graph, build_graph, is_connected


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameter("complete: n >= 1 required")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)],
                       label=f"K_{n}")


def empty_complement(n: int) -> Graph:
    if n < 1:
        raise BadParameter("empty: n >= 1 required")
    return build_graph(n, [], label=f"Kbar_{n}")


def star(n: int) -> Graph:
    """K_{1,n}: center 0, leaves 1..n."""
    if n < 1:
        raise BadParameter("star: n >= 1 required")
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)], label=f"K_1,{n}")


def path(n: int) -> Graph:
    """P_n: vertices 0..n-1 in path order."""
    if n < 1:
        raise BadParameter("path: n >= 1 required")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], label=f"P_{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter("cycle: n >= 3 required")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], label=f"C_{n}")


# -- spider-type forbidden graphs --------------------------------------
#
# Layout convention for the S/F families: the x-block first, then the
# y-block, then the z-block, each in subscript order.  (Chosen from the
# formal edge lists, not the figure drawings.)


def s_star(n: int) -> Graph:
    """S*_n: x_1=0, y_i=i, z_i=n+i.  Edges x_1 y_i and y_i z_i."""
    if n < 2:
        raise BadParameter("sstar: n >= 2 required")
    edges = []
    for i in range(1, n + 1):
        edges.append((0, i))
        edges.append((i, n + i))
    return build_graph(2 * n + 1, edges, label=f"S*_{n}")


def s_tilde(n: int) -> Graph:
    """S~_n: S*_n plus the n edges x_1 z_i."""
    if n < 2:
        raise BadParameter("stilde: n >= 2 required")
    g = s_star(n)
    edges = g.edges() + [(0, n + i) for i in range(1, n + 1)]
    return build_graph(2 * n + 1, edges, label=f"S~_{n}")


# F^(1)..F^(5)_n: two n-vertex paths y_1..y_n and z_1..z_n hung from a
# head of `heads` vertices.  Layout: the head 0..heads-1, then
# y_i = heads-1+i, then z_i = heads-1+n+i; each family gives its head
# edges as a function of y_1 and z_1.


def _two_paths(family: int, n: int, heads: int, head_edges) -> Graph:
    if n < 2:
        raise BadParameter(f"f{family}: n >= 2 required")
    y1, z1 = heads, heads + n
    edges = head_edges(y1, z1)
    for start in (y1, z1):
        edges += [(v, v + 1) for v in range(start, start + n - 1)]
    return build_graph(heads + 2 * n, edges, label=f"F{family}_{n}")


def f1(n: int) -> Graph:
    """F^(1)_n: x_1=0, x_2=1, y_i=1+i, z_i=1+n+i.

    Edges x_1 x_2, x_1 y_1, x_1 z_1 plus the two paths on the y- and
    z-blocks.
    """
    return _two_paths(1, n, 2, lambda y1, z1: [(0, 1), (0, y1), (0, z1)])


def f2(n: int) -> Graph:
    """F^(2)_n: x_1=0, y_i=i, z_i=n+i; triangle x_1 y_1 z_1 plus two paths."""
    return _two_paths(2, n, 1, lambda y1, z1: [(0, y1), (0, z1), (y1, z1)])


def f3(n: int) -> Graph:
    """F^(3)_n: x_i=i-1, y_i=n+i-1, z_i=2n+i-1.

    Every x_i is adjacent to y_1 and z_1; the y- and z-blocks are paths.
    """
    return _two_paths(3, n, n, lambda y1, z1: [(x, w) for x in range(n)
                                               for w in (y1, z1)])


def f4(n: int) -> Graph:
    """F^(4)_n: F^(3)_n with x_3..x_n deleted.  x_1=0, x_2=1, y_i=1+i, z_i=1+n+i."""
    return _two_paths(4, n, 2, lambda y1, z1: [(0, y1), (0, z1), (1, y1), (1, z1)])


def f5(n: int) -> Graph:
    """F^(5)_n: F^(4)_n plus the edge x_1 x_2."""
    return _two_paths(5, n, 2, lambda y1, z1: [(0, 1), (0, y1), (0, z1),
                                               (1, y1), (1, z1)])


def k_star(n: int) -> Graph:
    """K*_n: K_n on 0..n-1 with pendant i+n attached to each vertex i."""
    if n < 1:
        raise BadParameter("kstar: n >= 1 required")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges += [(i, n + i) for i in range(n)]
    return build_graph(2 * n, edges, label=f"K*_{n}")


# -- chained extremal families -----------------------------------------
#
# H^(1)..H^(5)_{m,n}: m n-vertex paths Q_1..Q_m joined in a chain.
# Layout: the Q-paths first (u^(j)_i at (i-1)*n + (j-1)), then `width`
# connectors per junction, the i-th junction's at m*n + (i-1)*width + j
# for j = 0..width-1; each family gives a junction's edges as a function
# of Q_i's end a, Q_{i+1}'s start b and the junction's connectors.


def _chained(family: int, m: int, n: int, width: int, junction) -> Graph:
    if m < 2 or n < 3:
        raise BadParameter(f"h{family}: m >= 2 and n >= 3 required")
    base = m * n
    edges = [(v, v + 1) for v in range(base - 1) if (v + 1) % n]
    for i in range(1, m):
        c = base + (i - 1) * width
        edges += junction(i * n - 1, i * n, range(c, c + width))
    return build_graph(base + (m - 1) * width, edges, label=f"H{family}_{m},{n}")


def h1(m: int, n: int) -> Graph:
    """H^(1)_{m,n}: Q-paths, then v_1,w_1,...,v_{m-1},w_{m-1}; v_i is
    joined to w_i and to the ends of the junction."""
    return _chained(1, m, n, 2, lambda a, b, c: [(c[0], c[1]), (c[0], a), (c[0], b)])


def h2(m: int, n: int) -> Graph:
    """H^(2)_{m,n}: Q-paths, then v_1..v_{m-1}; junctions are triangles."""
    return _chained(2, m, n, 1, lambda a, b, c: [(c[0], a), (c[0], b), (a, b)])


def h3(m: int, n: int) -> Graph:
    """H^(3)_{m,n}: Q-paths, then v_{i,j} at base + (i-1)*m + (j-1), each
    joined to both ends of its junction."""
    return _chained(3, m, n, m, lambda a, b, c: [(v, x) for v in c for x in (a, b)])


def h4(m: int, n: int) -> Graph:
    """H^(4)_{m,n}: H^(3) keeping only v_{i,1},v_{i,2} (at base+2(i-1)+{0,1})."""
    return _chained(4, m, n, 2, lambda a, b, c: [(v, x) for v in c for x in (a, b)])


def h5(m: int, n: int) -> Graph:
    """H^(5)_{m,n}: H^(4) plus the m-1 edges v_{i,1} v_{i,2}."""
    return _chained(5, m, n, 2, lambda a, b, c: [(c[0], c[1])]
                    + [(v, x) for v in c for x in (a, b)])


def random_connected(order: int, p: float, rng: random.Random) -> Graph:
    """A connected G(order, p) sample (rejection sampling).

    Each try draws order*(order-1)/2 random numbers, and the expected
    number of tries is 1 / P(G(order, p) is connected): a few near
    p = ln(order)/order, but for p well below it almost every sample has
    an isolated vertex (at order 18 and p = 1.2/18, 20 samples took a
    median of about 800 tries and at most about 5000).  With order >= 2
    and p <= 0 or NaN no sample is ever connected, so that raises
    BadParameter.
    """
    if order < 1:
        raise BadParameter("order >= 1 required")
    if order >= 2 and not p > 0:
        raise BadParameter(f"p > 0 required for a connected graph on "
                           f"{order} vertices, got {p}")
    while True:
        edges = [(i, j) for i in range(order) for j in range(i + 1, order)
                 if rng.random() < p]
        g = build_graph(order, edges)
        if is_connected(g):
            return g


_ONE_PARAM = {
    "complete": complete, "k": complete,
    "kbar": empty_complement, "empty": empty_complement,
    "star": star, "k1": star,
    "path": path, "p": path,
    "cycle": cycle, "c": cycle,
    "sstar": s_star, "stilde": s_tilde,
    "f1": f1, "f2": f2, "f3": f3, "f4": f4, "f5": f5,
    "kstar": k_star,
}

_TWO_PARAM = {"h1": h1, "h2": h2, "h3": h3, "h4": h4, "h5": h5}


def generate(spec: str) -> Graph:
    """Build a named graph from a spec string like "sstar:3" or "h1:2,3"."""
    if ":" not in spec:
        raise ParseError(f"bad graph spec {spec!r}: expected family:params")
    family, _, params = spec.partition(":")
    family = family.strip().lower()
    try:
        args = [int(t) for t in params.split(",")]
    except ValueError:
        raise ParseError(f"bad parameters in graph spec {spec!r}") from None
    if family in _ONE_PARAM:
        if len(args) != 1:
            raise ParseError(f"{family} takes one parameter")
        return _ONE_PARAM[family](args[0])
    if family in _TWO_PARAM:
        if len(args) != 2:
            raise ParseError(f"{family} takes two parameters (m,n)")
        return _TWO_PARAM[family](args[0], args[1])
    raise ParseError(f"unknown graph family {family!r}")
