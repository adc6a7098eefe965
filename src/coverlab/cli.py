"""Command-line interface.

Exit codes: 0 success, 2 validation/verification failure, 3 timeout,
4 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import bounds as bounds_mod
from . import constructive, formats, generators as gen, solvers, verify
from .errors import (BadInput, BadParameter, Disconnected, DisconnectedMember,
                     FormatError, FreenessViolated, IndexOutOfRange,
                     InternalInvariantBroken, ParseError, PathTooLong,
                     SelfLoop, StarTooLarge)
from .graph import Graph, PieceKind
from .iso import (INVARIANTS, ForbiddenFamily, characterize, family_leq,
                  freeness_witness, target_family)

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_TIMEOUT = 3
EXIT_INPUT = 4

_INPUT_ERRORS = (ParseError, FormatError, BadParameter, BadInput,
                 IndexOutOfRange, SelfLoop)
_CHECK_ERRORS = (FreenessViolated, InternalInvariantBroken, Disconnected,
                 DisconnectedMember, PathTooLong, StarTooLarge)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_graph(path: str, fmt: str) -> Graph:
    return formats.read_graph(_read_text(path), fmt)


def _parse_family(spec: str) -> ForbiddenFamily:
    head = spec.split(":", 1)[0].strip().lower()
    if head in INVARIANTS:
        try:
            n = int(spec.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad target family spec {spec!r}") from None
        return target_family(head, n)
    members = tuple(gen.generate(part.strip()) for part in spec.split("+"))
    return ForbiddenFamily(members, name=spec)


# -- commands ----------------------------------------------------------


def cmd_gen(args) -> int:
    g = gen.generate(args.spec)
    _write_out(formats.write_graph(g, args.format), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    g = _load_graph(args.graph, args.format)
    names = [s.strip() for s in args.invariants.split(",")]
    for name in names:
        if name not in solvers.INVARIANT_SPECS:
            raise ParseError(f"unknown invariant {name!r}")
    cfg = solvers.SolveConfig(timeout=args.timeout)
    report = {
        "graph": {"order": g.order, "edges": g.edge_count(),
                  "graph6": formats.to_graph6(g)},
        "invariants": {},
        "cross_checks": {},
    }
    timed_out = False
    values = {}
    for name in names:
        cert = solvers.invariant_value(g, name, cfg)
        if cert.optimal and not solvers.validate_certificate(g, cert):
            raise InternalInvariantBroken(f"{name}: certificate failed validation")
        timed_out |= not cert.optimal
        values[name] = cert.value
        report["invariants"][name] = {
            "value": cert.value,
            "optimal": cert.optimal,
            "lower_bound": cert.lower_bound,
            "pieces": [list(p) for p in cert.pieces],
        }
    for lo, hi in verify.CHAIN_PAIRS:
        if lo in values and hi in values:
            report["cross_checks"][f"{lo}<={hi}"] = values[lo] <= values[hi]
    if "inspc" in values:
        chi = solvers.chromatic_number(g)
        report["cross_checks"]["chi<=2*inspc"] = chi <= 2 * values["inspc"]
        report["cross_checks"]["chi"] = chi
    _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
    if timed_out:
        return EXIT_TIMEOUT
    if not all(v is True for k, v in report["cross_checks"].items()
               if k != "chi"):
        return EXIT_FAIL
    return EXIT_OK


def cmd_check_free(args) -> int:
    g = _load_graph(args.graph, args.format)
    family = _parse_family(args.family)
    hit = freeness_witness(g, family)
    if hit is None:
        print("free")
        return EXIT_OK
    member, emb = hit
    print(f"not free: {member.label or 'member'} at {sorted(emb.image())}")
    return EXIT_FAIL


def cmd_check_order(args) -> int:
    f1 = _parse_family(args.family1)
    f2 = _parse_family(args.family2)
    le = family_leq(f1, f2)
    ge = family_leq(f2, f1)
    rel = {(True, True): "equivalent", (True, False): "<=",
           (False, True): ">=", (False, False): "incomparable"}[(le, ge)]
    print(f"{args.family1} {rel} {args.family2}")
    return EXIT_OK


def cmd_characterize(args) -> int:
    family = _parse_family(args.family)
    n = characterize(family, args.invariant)
    print("none" if n is None else str(n))
    return EXIT_OK


def cmd_construct(args) -> int:
    g = _load_graph(args.graph, args.format)
    if args.mode == "cover":
        trace = constructive.sp_cover_construct(g, args.n, root=args.root)
    else:
        trace = constructive.sp_partition_construct(g, args.n, root=args.root)
    _write_out(trace.to_json(), args.out)
    return EXIT_OK


def cmd_convert_cover(args) -> int:
    g = _load_graph(args.graph, args.format)
    cert = solvers.min_cover(g, PieceKind.SP_ANY,
                             solvers.SolveConfig(timeout=args.timeout))
    if args.to == "star":
        out = constructive.cover_to_star_cover(g, cert, args.n)
    else:
        out = constructive.cover_to_path_cover(g, cert, args.n)
    report = {
        "from": [list(p) for p in cert.pieces],
        "to": [list(p) for p in out.pieces],
        "kind": out.kind.value,
        "mode": out.mode,
        "value": out.value,
    }
    _write_out(json.dumps(report, sort_keys=True, indent=2), args.out)
    return EXIT_OK if cert.optimal else EXIT_TIMEOUT


def cmd_bounds(args) -> int:
    if args.what == "ramsey":
        bv = bounds_mod.ramsey(args.a, args.b,
                               max_search_order=args.search_order)
        print(f"R({args.a},{args.b}) = {bv}")
        return EXIT_OK
    table = bounds_mod.paper_constants(args.a, max_digits=args.max_digits,
                                       c_chi=args.c_chi)
    for key in sorted(table):
        print(f"{key} = {table[key]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.SUITES[args.suite](args.seed, args.count or 200, args.jobs)
    failed = 0
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_FAIL


# perfbench/pin.py counts each table's checks through these names
_suite_lemma41, _suite_lemma42, _suite_theorems = (
    verify.lemma41, verify.lemma42, verify.theorems)


# -- argument parsing --------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coverlab",
        description="Induced star/path cover and partition invariants.")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p, graph=False):
        p.add_argument("--format", choices=("g6", "edges"), default="edges",
                       help="graph file format (default: edges)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if graph:
            p.add_argument("graph", help="graph file, or - for stdin")

    p = sub.add_parser("gen", help="generate a named graph")
    p.add_argument("spec", help="family:params, e.g. sstar:3 or h1:2,3")
    add_common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", help="compute invariants exactly")
    add_common(p, graph=True)
    p.add_argument("--invariants", default="inspc,inspp",
                   help="comma-separated invariant names")
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check-free", help="test forbidden-family freeness")
    add_common(p, graph=True)
    p.add_argument("family", help="target spec like inspc:4, or specs joined by +")
    p.set_defaults(fn=cmd_check_free)

    p = sub.add_parser("check-order",
                       help="compare two forbidden families under containment")
    p.add_argument("family1")
    p.add_argument("family2")
    p.set_defaults(fn=cmd_check_order)

    p = sub.add_parser("characterize",
                       help="least target size dominating a family")
    p.add_argument("family")
    p.add_argument("--invariant", choices=INVARIANTS, required=True)
    p.set_defaults(fn=cmd_characterize)

    p = sub.add_parser("construct", help="run a constructive cover/partition")
    add_common(p, graph=True)
    p.add_argument("--mode", choices=("cover", "partition"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", type=int, default=0)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("convert-cover",
                       help="solve an SP cover and convert it to pure stars/paths")
    add_common(p, graph=True)
    p.add_argument("--to", choices=("star", "path"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(fn=cmd_convert_cover)

    p = sub.add_parser("bounds", help="Ramsey values and derived constants")
    p.add_argument("what", choices=("ramsey", "constants"))
    p.add_argument("a", type=int, help="s (ramsey) or n (constants)")
    p.add_argument("b", type=int, nargs="?", default=None, help="t (ramsey)")
    p.add_argument("--search-order", type=int, default=6)
    p.add_argument("--max-digits", type=int, default=100_000)
    p.add_argument("--c-chi", type=int, default=None)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bounds" and args.what == "ramsey" and args.b is None:
        parser.error("bounds ramsey needs two arguments")
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _CHECK_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
