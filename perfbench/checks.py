"""Output checks that do not trust coverlab: networkx re-validation of
certificates, pinned values, and the published Ramsey numbers."""

from __future__ import annotations

import hashlib
import json

import networkx as nx

KIND_OF = {
    "inspc": "sp_any", "inspp": "sp_any", "insc": "star", "insp": "star",
    "inpc": "path", "inpp": "path", "ispc": "isometric_path",
    "ispp": "isometric_path",
}
MODE_OF = {inv: "cover" if inv.endswith("c") else "partition" for inv in KIND_OF}

# cover value <= partition value, and the chain inequalities between kinds
CHAINS = (
    ("inspc", "insc"), ("insc", "insp"), ("inspp", "insp"),
    ("inspc", "inpc"), ("inpc", "inpp"), ("inspp", "inpp"),
    ("inspc", "inspp"), ("inpc", "ispc"), ("inpp", "ispp"), ("ispc", "ispp"),
)

PUBLISHED_RAMSEY = {(3, 3): 6, (3, 4): 9}


def parse_edge_list(text: str) -> nx.Graph:
    """Read the `p <order>` / `u v` edge-list format without coverlab."""
    g = nx.Graph()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "p":
            g.add_nodes_from(range(int(parts[1])))
        else:
            g.add_edge(int(parts[0]), int(parts[1]))
    return g


def digest(g: nx.Graph) -> str:
    """Labelled-graph fingerprint: order plus the sorted edge list."""
    edges = sorted((min(u, v), max(u, v)) for u, v in g.edges())
    text = f"{g.number_of_nodes()}:" + ",".join(f"{u}-{v}" for u, v in edges)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _is_star(h: nx.Graph) -> bool:
    k = h.number_of_nodes()
    return h.number_of_edges() == k - 1 and max(d for _, d in h.degree()) == k - 1


def _path_ends(h: nx.Graph):
    k = h.number_of_nodes()
    if h.number_of_edges() != k - 1 or not nx.is_connected(h):
        return None
    if max(d for _, d in h.degree()) > 2:
        return None
    return [v for v, d in h.degree() if d == 1]


def piece_error(g: nx.Graph, piece, kind: str):
    """None if g[piece] is a valid piece of `kind`, else a reason."""
    if not piece or len(set(piece)) != len(piece):
        return f"empty or repeated piece {piece}"
    if any(v not in g for v in piece):
        return f"piece {piece} leaves the graph"
    if len(piece) == 1:
        return None
    h = g.subgraph(piece)
    if kind == "star":
        ok = _is_star(h)
    elif kind == "path":
        ok = _path_ends(h) is not None
    elif kind == "isometric_path":
        ends = _path_ends(h)
        ok = ends is not None and nx.shortest_path_length(g, *ends) == len(piece) - 1
    elif kind == "sp_any":
        ok = _is_star(h) or _path_ends(h) is not None
    else:
        return f"unknown kind {kind!r}"
    return None if ok else f"piece {piece} is not an induced {kind}"


def certificate_error(g: nx.Graph, pieces, kind: str, mode: str):
    """None if the pieces are valid and cover V (disjointly for partitions)."""
    seen: set[int] = set()
    for piece in pieces:
        err = piece_error(g, piece, kind)
        if err:
            return err
        if mode == "partition" and seen & set(piece):
            return f"piece {piece} overlaps an earlier piece"
        seen |= set(piece)
    if seen != set(g.nodes):
        return f"pieces miss {len(set(g.nodes) - seen)} vertices"
    return None


def chain_errors(values: dict) -> list[str]:
    """Violated cover <= partition and chain inequalities among `values`."""
    return [f"{lo}={values[lo]} > {hi}={values[hi]}" for lo, hi in CHAINS
            if lo in values and hi in values and values[lo] > values[hi]]


def check_solve(item, out: str, g: nx.Graph, pin: dict):
    inv = item["inv"]
    report = json.loads(out)["invariants"][inv]
    if not report["optimal"]:
        return "optimal: false"
    if report["value"] != len(report["pieces"]):
        return "value differs from the number of pieces"
    if report["value"] != pin["values"][inv]:
        return f"value {report['value']} != pinned {pin['values'][inv]}"
    return certificate_error(g, report["pieces"], KIND_OF[inv], MODE_OF[inv])


def check_construct(item, out: str, g: nx.Graph, pin: dict):
    result = json.loads(out)["result"]
    if result["mode"] != item["mode"]:
        return f"mode {result['mode']} != {item['mode']}"
    if result["value"] != len(result["pieces"]):
        return "value differs from the number of pieces"
    want = pin["values"][f"{item['mode']}{item['n']}"]
    if result["value"] != want:
        return f"value {result['value']} != pinned {want}"
    return certificate_error(g, result["pieces"], result["kind"], result["mode"])


def check_verify(item, out: str, pins: dict):
    lines = out.strip().splitlines()
    if item["suite"] in pins["suites"]:
        n = pins["suites"][item["suite"]]
    else:
        n = int(item["argv"][item["argv"].index("--count") + 1])
    want = f"{n}/{n} checks passed"
    return None if want in lines else f"no line {want!r}"


def check_constants(item, out: str, pins: dict):
    want = pins["constants"][str(item["n"])]
    return None if out.strip().splitlines() == want else "constants differ from pinned"


def check_ramsey(item, out: str):
    want = PUBLISHED_RAMSEY[(item["s"], item["t"])]
    return None if out.strip() == str(want) else f"R({item['s']},{item['t']}) != {want}"
