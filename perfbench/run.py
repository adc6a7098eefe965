"""coverlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve-cover --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; coverlab is imported from the
checkout's `src/`.  The workload runs in a child process of its own
(perfbench/worker.py), so caches and peak RSS never carry over between
workloads.  Set-up is measured in that child and in SETUP_SAMPLES - 1
set-up-only children, and reported as the median.  This process then
checks every output independently (checks.py) and prints, last, one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from
a traced pass (tracing.py), whose spans are written to .perfbench/.

Times are reported in reference-host seconds: each measured time is
divided by the time of the calibration loop (worker.calibrate) run next
to it and multiplied by REFERENCE_CAL_S.  On a shared 2-vCPU VM the speed
of plain Python code moves by up to 70% for tens of seconds at a time;
the item-to-calibration ratio moved by 4% over the same stretches.  The
summary lines also print the raw times and the calibration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-cover", "solve-partition", "construct", "verify")
SETUP_SAMPLES = 11
# seconds of worker.calibrate() on the reference host: an idle 2-vCPU VM
REFERENCE_CAL_S = 0.0006
DEADLINE_S = 170  # the whole run, checks included, ends before 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "p50_ms": "ms", "p90_ms": "ms",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile: at least a tenth of the samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(0.9 * len(ordered)) - 1, 0)]


def _check(item: dict, res: dict, graphs: dict, pins: dict, cache: dict):
    """None if the item's output is correct, else the reason it is not."""
    import checks  # networkx: loaded after the workers ran, to keep their RSS clean
    if res["rc"] is None:
        return "exception: " + res["err"].strip().splitlines()[-1]
    if res["rc"] != 0:
        return f"exit code {res['rc']}: {res['err'].strip()[-200:]}"
    if res["mismatch"]:
        return f"output differs between passes ({res['mismatch']} times)"
    kind = item["type"]
    if kind == "verify":
        return checks.check_verify(item, res["out"], pins)
    if kind == "constants":
        return checks.check_constants(item, res["out"], pins)
    if kind == "ramsey":
        return checks.check_ramsey(item, res["out"])
    key = item["graph"]
    if key not in cache:
        with open(graphs[key]) as fh:
            cache[key] = checks.parse_edge_list(fh.read())
    g, pin = cache[key], pins["graphs"].get(key)
    if pin is None:
        return f"no pinned value for {key}"
    pinned = g
    if "perm" in item:  # the file holds the pinned graph with its labels permuted
        pinned = checks.nx.relabel_nodes(g, {new: old for old, new in enumerate(item["perm"])})
    if checks.digest(pinned) != pin["digest"]:
        return f"graph {key} differs from the pinned graph"
    check = checks.check_solve if kind == "solve" else checks.check_construct
    try:
        return check(item, res["out"], g, pin)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {exc!r}"


def run(args) -> dict:
    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "coverlab", "cli.py")):
        raise BenchError(f"no coverlab sources under {ROOT}/src")
    base = os.path.join(ROOT, ".perfbench")
    work = os.path.join(base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    common = [args.workload, str(args.seed)]
    flags = [str(args.seconds), str(args.trace), "1" if args.tiny else "0"]
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            proc = _child(common + [os.path.join(work, f"setup{i}"), "setup", *flags],
                          DEADLINE_S - (time.monotonic() - start))
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            shutil.rmtree(os.path.join(work, f"setup{i}"))
        run_dir = os.path.join(work, "run")
        _child(common + [run_dir, "run", *flags], DEADLINE_S - (time.monotonic() - start))
        with open(os.path.join(run_dir, "result.json")) as fh:
            raw = json.load(fh)
        with open(os.path.join(HERE, "pins", f"{args.workload}.json")) as fh:
            pins = json.load(fh)
        cache: dict = {}
        failures = []
        for i, (item, res) in enumerate(zip(raw["items"], raw["results"])):
            reason = _check(item, res, raw["graphs"], pins, cache)
            if reason:
                failures.append((i, item["id"], reason))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(raw)
    setup_s = [REFERENCE_CAL_S * s["setup_s"] / s["setup_cal"] for s in setups]
    # an item's time is the median over its sends of latency / calibration
    per_item = [REFERENCE_CAL_S * statistics.median(t / c for t, c in zip(lat, cal))
                for lat, cal in zip(raw["latencies"], raw["cals"])]
    raw_item = [statistics.median(lat) for lat in raw["latencies"]]
    cal_ms = 1000 * statistics.median(c for cal in raw["cals"] for c in cal)
    sends = [len(lat) + args.trace for lat in raw["latencies"]]
    attempted = sum(sends)
    failed = sum(sends[i] for i, _, _ in failures)
    for _, item_id, reason in failures[:20]:
        print(f"FAIL {item_id}: {reason}", file=sys.stderr)
    e2e = {
        "setup_s": statistics.median(setup_s),
        "wall_s": sum(per_item),
        "p50_ms": 1000 * statistics.median(per_item),
        "p90_ms": 1000 * _p90(per_item),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    n = len(per_item)
    timed = sorted(len(lat) for lat in raw["latencies"])
    print(f"workload {args.workload} seed {args.seed}: {n} items, {len(raw['walls'])} untraced "
          f"pass(es), {timed[0]}-{timed[-1]} timed sends per item"
          f"{', + 1 traced pass' if args.trace else ''}; closed loop, 1 client, 1 thread")
    print(f"  times in reference-host units: calibration median {cal_ms:.4f} ms here, "
          f"{1000 * REFERENCE_CAL_S:.4f} ms on the reference host")
    notes = {"setup_s": f"median of {len(setups)} set-ups; raw "
                         f"{statistics.median(s['setup_s'] for s in setups):.4f} s",
             "wall_s": f"one pass, each item its median; raw {sum(raw_item):.4f} s",
             "p50_ms": f"{n} samples", "p90_ms": f"{n} samples, {n - math.ceil(0.9 * n) + 1} at or above",
             "peak_rss_mb": "workload process"}
    for name, unit in END_TO_END.items():
        print(f"  {name:12s} {e2e[name]:12.4f} {unit:5s} ({notes[name]})")
    print(f"  {'fail_ratio':12s} {failed / attempted:12.4f} {'ratio':5s} ({failed}/{attempted})")
    if args.trace:
        import tracing
        units = tracing.metric_units()
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
        for name, m in metrics.items():
            print(f"  {name:46s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one coverlab benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few items per workload, for the harness self-test")
    args = ap.parse_args()
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
