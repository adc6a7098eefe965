"""Large partition probes, run by hand.

Each probe solves one partition invariant on one large graph, in a child
process of its own, so that each peak RSS is that probe's alone.  The
child prints the value, whether it is optimal, the lower bound, the
seconds of the solve (the graph's build excluded) and its own
`ru_maxrss`.  The probes are the cases where finding the longest induced
path used to cost the most:

- `c:1500` `inpp`: one long cycle, whose longest path is found by the
  walk from vertex 0 alone;
- `complete:1100` `inpp`: every vertex is a root of many short paths;
- `p:1100` `inpp`: one long path, the memory floor;
- `inspp` on K_1,1100 plus 1,100 isolated vertices: a component of
  604,450 induced P_3 and many one-vertex components.

Run from the repository root:

    python tests/partition_probes.py

It imports coverlab from this checkout's `src/` and reads nothing else.
pytest does not collect it, as its name does not start with `test_`.
"""

import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBES = ("c:1500 inpp", "complete:1100 inpp", "p:1100 inpp", "star+isolated:1100 inspp")


def graph_for(spec: str):
    from coverlab import generators as gen
    from coverlab.graph import build_graph
    if spec == "star+isolated:1100":
        return build_graph(2201, [(0, i) for i in range(1, 1101)])
    return gen.generate(spec)


def child(probe: str) -> None:
    from coverlab.solvers import invariant_value
    spec, name = probe.split()
    g = graph_for(spec)
    start = time.perf_counter()
    cert = invariant_value(g, name)
    secs = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{probe:26} value {cert.value:5} optimal {cert.optimal!s:5} "
          f"lower bound {cert.lower_bound:5} {secs:7.3f} s {rss_mb:6.1f} MB", flush=True)


def main() -> None:
    for probe in PROBES:
        subprocess.run([sys.executable, os.path.abspath(__file__), probe], check=True)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if len(sys.argv) > 1:
        child(sys.argv[1])
    else:
        main()
