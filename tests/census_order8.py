"""Order-8 census, run by hand: every graph of order 8 against the oracles.

The 12,346 graphs of order 8, disconnected ones included, are built as
one-vertex extensions of the 1,044 order-7 graphs of networkx's atlas
(deleting any vertex of an order-8 graph leaves an order-7 one), then
deduplicated by `weisfeiler_lehman_graph_hash` and, within each hash
bucket, by `nx.is_isomorphic`.  The class count is checked before any
graph is solved; then `test_census.assert_census` checks all eight
invariants of each class against the brute-force oracles.

Run from the repository root:

    PYTHONPATH=src python tests/census_order8.py

pytest does not collect it, as its name does not start with `test_`.
"""

import itertools
import time

import networkx as nx

from test_census import ATLAS, _graph, assert_census

ORDER8_GRAPHS = 12346


def order8_classes() -> list[nx.Graph]:
    """One graph per isomorphism class of order 8."""
    buckets: dict[str, list[nx.Graph]] = {}
    for h in ATLAS:
        if h.number_of_nodes() != 7:
            continue
        for size in range(8):
            for hood in itertools.combinations(range(7), size):
                g = h.copy()
                g.add_node(7)
                g.add_edges_from((7, v) for v in hood)
                reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), [])
                if not any(nx.is_isomorphic(g, rep) for rep in reps):
                    reps.append(g)
    return [g for reps in buckets.values() for g in reps]


def main() -> None:
    start = time.perf_counter()
    classes = order8_classes()
    assert len(classes) == ORDER8_GRAPHS, len(classes)
    built = time.perf_counter()
    for h in classes:
        assert_census(_graph(h))
    done = time.perf_counter()
    print(f"{len(classes)} graphs of order 8: classes built in {built - start:.1f} s, "
          f"census passed in {done - built:.1f} s")


if __name__ == "__main__":
    main()
