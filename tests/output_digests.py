"""Output digests of the benchmark corpus, run by hand.

For each workload of `perfbench/run.py` at seed 1, the items are built by
`perfbench/worker._setup` and sent one at a time, in order, through
`perfbench/worker._attempt` (in process, as the benchmark sends them).
One sha256 per workload takes `repr((id, exit code, stdout))` of each
item; its first 16 hex digits are printed.  Two checkouts whose digests
agree gave every item the same exit code and the same stdout.

Run from the repository root:

    python tests/output_digests.py

It reads `perfbench/` and writes only the graph files of the corpus, into
a temporary directory.  pytest does not collect it, as its name does not
start with `test_`.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import WORKLOADS  # noqa: E402
from worker import _attempt, _setup  # noqa: E402

SEED = 1


def digest(workload: str, workdir: str) -> str:
    items, _, _ = _setup(ROOT, workload, SEED, workdir, False)
    from coverlab import bounds, cli
    h = hashlib.sha256()
    for item in items:
        rc, out, _ = _attempt(cli, bounds, item)
        h.update(repr((item["id"], rc, out)).encode())
    return h.hexdigest()[:16]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            print(workload, digest(workload, os.path.join(tmp, workload)), flush=True)


if __name__ == "__main__":
    main()
