"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on its tiny corpus: once untraced, asserting each
end-to-end metric of BENCHMARK.json is reported with its unit, and twice
traced, asserting the same of each per-layer metric and that every count
repeats exactly between the two traced runs.  Last, it checks that the
benchmark fails, printing no result, in a directory without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "bytes")


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, f"{workload}: {proc.stderr}"
    return result


def _assert_metrics(workload: str, got: dict, spec: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    assert set(got) == set(want), f"{workload}: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{workload}: {name} unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), f"{workload}: {name}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        plain = _result(workload, 0)
        _assert_metrics(workload, plain["metrics"], bench["end_to_end"])
        first, second = _result(workload, 1), _result(workload, 1)
        for traced in (first, second):
            _assert_metrics(workload, traced["metrics"], bench["per_layer"])
        for name, m in first["metrics"].items():
            if m["unit"] in EXACT_UNITS:
                again = second["metrics"][name]["value"]
                assert m["value"] == again, f"{workload}: {name} {m['value']} != {again}"
        print(f"ok {workload}: {plain['attempted']} item runs, "
              f"{len(first['metrics'])} per-layer metrics repeat")
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run("verify", 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
