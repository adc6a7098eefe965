"""Per-layer tracing from outside the package.

`Tracer.install` replaces each traced public function of coverlab with a
wrapper in every coverlab module namespace that holds it (modules that
did `from .x import f` keep their own binding), and `uninstall` puts the
originals back.  Wrapped functions record one span per call: name,
parent, start and end.  The two hot functions, `solvers.pieces_at` and
`bounds.ramsey`, only add to aggregate counters, though their time still
counts against the enclosing span's self time.  Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function) -> counters derived from each call: (name, unit, fn(args, result))
_CONSTRUCT_COUNTS = (
    ("constructive.pieces", "count", lambda a, r: r.result.value),
    ("constructive.long_branch", "count", lambda a, r: r.intermediate.get("branch") == "long"),
)
SPANNED = {
    ("cli", "main"): (),
    ("formats", "read_graph"): (("formats.in_bytes", "bytes", lambda a, r: len(a[0])),),
    ("solvers", "invariant_value"): (),
    ("solvers", "min_cover"): (),
    ("solvers", "min_partition"): (),
    ("solvers", "enumerate_maximal_pieces"):
        (("solvers.enumerate_maximal_pieces.kept", "count", lambda a, r: len(r)),),
    ("solvers", "validate_certificate"): (),
    ("solvers", "chromatic_number"): (),
    ("solvers", "chromatic_coloring"): (),
    ("solvers", "min_dominating_set"): (),
    ("iso", "contains_induced"):
        (("iso.contains_induced.found", "count", lambda a, r: r is not None),),
    ("iso", "family_leq"): (),
    ("iso", "characterize"): (),
    ("constructive", "sp_cover_construct"): _CONSTRUCT_COUNTS,
    ("constructive", "sp_partition_construct"): _CONSTRUCT_COUNTS,
    ("constructive", "insc_bounded"): (),
    ("constructive", "insp_bounded"): (),
    ("bounds", "ramsey_exact_search"): (),
    ("bounds", "paper_constants"): (),
    ("naive", "naive_min_cover"): (),
    ("naive", "naive_min_partition"): (),
}
# hot functions: aggregate counters only, no span per call
COUNTED = {
    ("solvers", "pieces_at"): (("solvers.pieces_at.returned", "count", lambda a, r: len(r)),),
    ("bounds", "ramsey"): (),
}
SELF_TIMED = ("cli.main", "solvers.min_cover", "solvers.min_partition",
              "constructive.sp_cover_construct", "constructive.sp_partition_construct")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"cli.out_bytes": "bytes", "trace.overhead_ratio": "ratio"}
    for table in (SPANNED, COUNTED):
        for (module, fn), extras in table.items():
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.s"] = "s"
            units.update((name, unit) for name, unit, _ in extras)
    for name in SELF_TIMED:
        units[f"{name}.self_s"] = "s"
    return dict(sorted(units.items()))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, child_s, request)
        self.stack: list[list] = []    # open spans: [id, parent, name, start, child_s]
        self.request = None            # the item being sent; shared by its spans
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        rec = [len(self.spans) + len(self.stack), parent, name,
               time.perf_counter(), 0.0]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - rec[3]
        if self.stack:
            self.stack[-1][4] += dur
        self.spans.append((rec[0], rec[1], rec[2], rec[3], end, rec[4], self.request))

    def _spanned(self, name: str, fn, extras):
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            for counter, _, count in extras:
                self.counts[counter] += count(args, result)
            return result
        return wrapper

    def _counted(self, name: str, fn, extras):
        counts, stack, clock = self.counts, self.stack, time.perf_counter
        calls, secs = f"{name}.calls", f"{name}.s"

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                counts[calls] += 1
                counts[secs] += dur
                if stack:
                    stack[-1][4] += dur
            for counter, _, count in extras:
                counts[counter] += count(args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coverlab" or key.startswith("coverlab.")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for (module, fn_name), extras in table.items():
                original = getattr(sys.modules[f"coverlab.{module}"], fn_name)
                wrapper = make(f"{module}.{fn_name}", original, extras)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name in metric_units()}
        for _, _, name, start, end, child, _ in self.spans:
            if f"{name}.calls" not in out:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            if name in SELF_TIMED:
                out[f"{name}.self_s"] += end - start - child
        for name, value in self.counts.items():
            out[name] += value
        return out

    def dump(self, path: str) -> None:
        rows = [{"id": i, "parent": p, "request": r, "name": n,
                 "start": s - self._origin, "end": e - self._origin}
                for i, p, n, s, e, _, r in sorted(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
