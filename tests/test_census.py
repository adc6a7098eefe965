"""Exhaustive census of the small graphs, on fixed lists.

Every graph of networkx's atlas (the 1,253 graphs of order 0-7) and every
tree of order 2-9 is solved for all eight invariants and checked against
the brute-force oracles of `naive`; `contains_induced` is checked against
networkx's induced-subgraph matcher on every atlas pattern of order 1-4
in every atlas host of order at most 6.  The atlas is loaded once.
"""

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from coverlab import naive, verify
from coverlab.graph import Graph, build_graph
from coverlab.iso import contains_induced
from coverlab.solvers import INVARIANT_SPECS, invariant_value, validate_certificate

ATLAS = nx.graph_atlas_g()  # by order, then edge count: G0 .. G1252


def _graph(h: nx.Graph) -> Graph:
    """The coverlab graph with networkx's vertices 0..n-1."""
    return build_graph(h.number_of_nodes(), list(h.edges()))


def assert_census(g: Graph) -> None:
    """All eight invariants of g equal the oracles', with valid optimal
    certificates, and their cross-checks hold."""
    pieces = naive.all_piece_masks(g)
    values = {}
    for name, (kind, mode) in INVARIANT_SPECS.items():
        cert = invariant_value(g, name)
        oracle = naive.naive_min_cover if mode == "cover" else naive.naive_min_partition
        assert cert.value == oracle(g, pieces[kind]), name
        assert cert.optimal and cert.lower_bound == cert.value, name
        assert validate_certificate(g, cert), name
        values[name] = cert.value
    checks, _ = verify.cross_checks(g, values)
    assert all(checks.values()), checks


@pytest.mark.parametrize("order", range(8))
def test_atlas_invariants_match_the_oracles(order):
    graphs = [h for h in ATLAS if h.number_of_nodes() == order]
    assert len(graphs) == (1, 1, 2, 4, 11, 34, 156, 1044)[order]
    for h in graphs:
        assert_census(_graph(h))


def test_contains_induced_matches_networkx():
    patterns = [h for h in ATLAS if 1 <= h.number_of_nodes() <= 4]
    hosts = [h for h in ATLAS if h.number_of_nodes() <= 6]
    assert (len(patterns), len(hosts)) == (18, 209)
    for pattern in patterns:
        p = _graph(pattern)
        for host in hosts:
            g = _graph(host)
            emb = contains_induced(g, p)
            assert (emb is not None) == GraphMatcher(host, pattern).subgraph_is_isomorphic()
            if emb is not None:
                assert len(set(emb.map)) == p.order
                assert all((g.adj[emb.map[u]] >> emb.map[v] & 1) == (p.adj[u] >> v & 1)
                           for u in range(p.order) for v in range(p.order))


@pytest.mark.parametrize("order", range(2, 10))
def test_tree_invariants_match_the_oracles(order):
    trees = list(nx.nonisomorphic_trees(order))
    assert len(trees) == (1, 1, 2, 3, 6, 11, 23, 47)[order - 2]
    for t in trees:
        assert_census(_graph(t))
