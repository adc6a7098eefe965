"""Recompute the pinned values in perfbench/pins/ from the current code.

    python3 perfbench/pin.py --workload solve-cover

Run it only when a change is meant to alter answers or the corpus; the
benchmark counts any value that differs from its pin as a failure.  The
committed pins were computed by the seed revision of coverlab (1.0.0).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coverlab import cli, constructive, formats, solvers  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
from run import WORKLOADS  # noqa: E402

SOURCE = ("computed by the seed revision of coverlab 1.0.0 (git 51955e2) "
          "with perfbench/pin.py")


def _entry(key: str, values: dict) -> dict:
    g = checks.parse_edge_list(formats.to_edge_list(corpus.graph_for(key)))
    return {"digest": checks.digest(g), "values": values}


def solve_pins(keys, invariants) -> dict:
    out = {}
    for key in keys:
        g = corpus.graph_for(key)
        values = {inv: solvers.invariant_value(g, inv).value for inv in invariants}
        errors = checks.chain_errors(values)
        if errors:
            raise SystemExit(f"{key}: chain inequality fails: {errors}")
        out[key] = _entry(key, values)
    return out


def construct_pins(keys, modes) -> dict:
    out = {}
    for key in keys:
        g = corpus.graph_for(key)
        values = {}
        for mode in modes:
            fn = (constructive.sp_cover_construct if mode == "cover"
                  else constructive.sp_partition_construct)
            for n in corpus.CONSTRUCT_NS:
                values[f"{mode}{n}"] = fn(g, n).result.value
        out[key] = _entry(key, values)
    return out


def verify_pins() -> dict:
    suites = {}
    for suite in corpus.SUITES:
        suites[suite] = len(getattr(cli, f"_suite_{suite}")())
    constants = {}
    for n in corpus.CONSTANTS_NS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["bounds", "constants", str(n)])
        constants[str(n)] = buf.getvalue().strip().splitlines()
    return {"suites": suites, "constants": constants}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    args = ap.parse_args()
    t0 = time.perf_counter()
    if args.workload == "solve-cover":
        keys = corpus.random_keys(corpus.COVER_ORDERS)
        body = {"graphs": solve_pins(keys, corpus.COVER_INVARIANTS)}
    elif args.workload == "solve-partition":
        keys = corpus.random_keys(corpus.PARTITION_ORDERS) + corpus.star_keys()
        body = {"graphs": solve_pins(keys, checks.KIND_OF)}
    elif args.workload == "construct":
        body = {"graphs": {
            **construct_pins(corpus.thin_keys(), ("partition",)),
            **construct_pins(corpus.cover_keys() + corpus.blowup_keys(), ("cover",)),
            **construct_pins(corpus.short_keys(), ("cover", "partition"))}}
    else:
        body = verify_pins()
    path = os.path.join(HERE, "pins", f"{args.workload}.json")
    with open(path, "w") as fh:
        json.dump({"source": SOURCE, **body}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path} in {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
