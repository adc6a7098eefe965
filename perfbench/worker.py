"""One workload in one process: set up, then send the items one at a time.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR PHASE SECONDS TRACE TINY

PHASE `setup` only sets up and prints its set-up time.  PHASE `run` sets
up, then runs passes over the corpus through `coverlab.cli.main`
in-process (a closed loop: one client, one thread, each item sent after
the previous one returns) and writes the raw results to WORKDIR for
run.py to check.  Untraced, passes repeat while the next one is
predicted to end within SECONDS; an item that took more than
HEAVY_SHARE of the first pass is sent only in every HEAVY_EVERY-th pass,
so that the other items get more samples.  Traced, one untraced pass
runs, then a traced one whose outputs must equal it.

Every timed stretch (each item, and the set-up) is bracketed by runs of a
fixed calibration loop, which also runs every CAL_INTERVAL_S during an
item, and the loop's time is recorded with it: run.py divides by it, so
that a shared host's changes of speed, which last from seconds to
minutes, cancel out of the reported times.
"""

import contextlib
import io
import os
import signal
import statistics
import sys
import time
import traceback


CAL_ROUNDS = 1500
CAL_REPEATS = 3
CAL_INTERVAL_S = 0.1
HEAVY_SHARE = 1 / 3
HEAVY_EVERY = 3


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kind coverlab does: int and bit
    operations, a dict and a list; about 0.6 ms on an idle 2-vCPU VM."""
    acc, m, seen, out = 0, 0x5DEECE66D, {}, []
    for i in range(CAL_ROUNDS):
        m = (m * 25214903917 + 11) & 0xFFFFFFFFFFFF
        acc += (m & -m).bit_length() + (m >> 7 & 0xFF).bit_count()
        seen[m & 1023] = i
        if i & 7 == 0:
            out.append(acc)
    return acc + len(seen) + len(out)


def calibrate() -> float:
    """Seconds of the calibration loop now: the best of a few runs."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t = clock()
        _calibration_loop()
        best = min(best, clock() - t)
    return best


def _setup(root, workload, seed, workdir, tiny):
    """Import coverlab, build the corpus and write its input files."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import corpus
    from coverlab import cli, formats
    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src")):
        raise SystemExit(f"coverlab imported from {cli.__file__}, not {root}/src")
    items = corpus.items_for(workload, seed, tiny)
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for item in items:
        key = item.get("graph")
        if key is None or key in paths:
            continue
        paths[key] = os.path.join(workdir, f"{key}.edges")
        g = corpus.graph_for(key)
        if "perm" in item:
            g = corpus.relabel(g, item["perm"])
        with open(paths[key], "w") as fh:
            fh.write(formats.write_graph(g, "edges"))
    for item in items:
        if "argv" in item:
            item["argv"] = [a.replace("{graph}", paths.get(item.get("graph"), ""))
                            for a in item["argv"]]
    return items, paths, time.perf_counter() - t0


def _attempt(cli, bounds, item):
    """Send one item; returns (exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if item["type"] == "ramsey":
                print(bounds.ramsey_exact_search(item["s"], item["t"]))
                rc = 0
            else:
                rc = cli.main(item["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class _Sampler:
    """Runs calibrate() every CAL_INTERVAL_S while an item runs, from a
    SIGALRM handler, so that an item of seconds is scaled by the host's
    speed while it ran; the handler's own time is taken off the item."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _pass(cli, bounds, items, send, results, tracer=None):
    """One pass over the items numbered in `send`; returns (elapsed
    seconds, their latencies, their calibrations).  An item's calibration
    is the mean of the runs before it, after it and during it; the traced
    pass is not calibrated.  The first pass must send every item, in order."""
    clock = time.perf_counter
    latencies, cals = [], []
    start = clock()
    sampler = None if tracer else _Sampler()
    before = None if tracer else calibrate()
    for i in send:
        item = items[i]
        if tracer:
            tracer.request = f"{i}:{item['id']}"
            rec = tracer.open("item")
        else:
            sampler.start()
        t = clock()
        got = _attempt(cli, bounds, item)
        if tracer:
            latencies.append(clock() - t)
            tracer.close(rec)
            tracer.counts["cli.out_bytes"] += len(got[1])
        else:
            sampler.stop()
            latencies.append(clock() - t - sampler.spent)
            after = calibrate()
            cals.append(statistics.fmean([before, after, *sampler.samples]))
            before = after
        if len(results) <= i:
            results.append({"rc": got[0], "out": got[1], "err": got[2],
                            "mismatch": 0})
        elif (got[0], got[1]) != (results[i]["rc"], results[i]["out"]):
            results[i]["mismatch"] += 1
    return clock() - start, latencies, cals


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  Unlike ru_maxrss, VmHWM starts afresh at
    exec, so it does not include the RSS of the parent at fork time."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    workload, seed, workdir, phase, seconds, trace, tiny = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    before = calibrate()
    items, paths, setup_s = _setup(root, workload, int(seed), workdir, tiny == "1")
    setup_cal = (before + calibrate()) / 2
    # imported after set-up, so that coverlab's own import of json is timed
    import json
    if phase == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_cal": setup_cal}))
        return
    from coverlab import bounds, cli
    everything = range(len(items))
    results, walls = [], []
    # per item: the latency and the calibration of each untraced send
    latencies, cals = [[] for _ in items], [[] for _ in items]

    def timed_pass(send):
        wall, lat, cal = _pass(cli, bounds, items, send, results)
        walls.append(wall)
        for i, t, c in zip(send, lat, cal):
            latencies[i].append(t)
            cals[i].append(c)
        return wall, lat

    t0 = time.perf_counter()
    wall, lat = timed_pass(everything)
    per_layer = None
    if trace == "1":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced_lat, _ = _pass(cli, bounds, items, everything, results, tracer)
        finally:
            tracer.uninstall()
        per_layer = tracer.metrics()
        per_layer["trace.overhead_ratio"] = sum(traced_lat) / sum(lat)
        tracer.dump(os.path.join(root, ".perfbench", f"spans-{workload}-{seed}.json"))
    else:
        heavy = {i for i in everything if lat[i] > HEAVY_SHARE * sum(lat)}
        overhead = wall / sum(lat)  # calibration and bookkeeping per item second
        while True:
            send = [i for i in everything
                    if i not in heavy or len(walls) % HEAVY_EVERY == 0]
            predicted = overhead * sum(latencies[i][-1] for i in send)
            if time.perf_counter() - t0 + predicted > float(seconds):
                break
            timed_pass(send)
    rss_mb = _peak_rss_mb()
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"setup_s": setup_s, "setup_cal": setup_cal, "walls": walls,
                   "latencies": latencies, "cals": cals,
                   "items": items, "graphs": paths, "results": results,
                   "peak_rss_mb": rss_mb, "per_layer": per_layer}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
