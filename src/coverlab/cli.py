"""Command-line interface.

Exit codes: 0 success, 2 a check failed (validation or verification, and
nothing else), 3 timeout, 4 input error (malformed input, a bad argument or
an out-of-range parameter), 5 resource failure (a MemoryError, or a
RecursionError, kept as a guard: the solver searches on an explicit stack,
one component at a time, so K_1,1100 plus 1100 isolated vertices now
answers insp = 1101).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import bounds as bounds_mod
from . import constructive, formats, generators as gen, solvers, verify
from .errors import (BadInput, BadParameter, Disconnected, DisconnectedMember,
                     FormatError, FreenessViolated, IndexOutOfRange,
                     InternalInvariantBroken, ParseError, PathTooLong,
                     SelfLoop, StarTooLarge)
from .graph import Graph, PieceKind
from .iso import characterize, family_leq, freeness_witness, target_family

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_TIMEOUT = 3
EXIT_INPUT = 4
EXIT_RESOURCE = 5

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
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _load_graph(path: str, fmt: str) -> Graph:
    return formats.read_graph(_read_text(path), fmt)


def _parse_family(spec: str) -> tuple[Graph, ...]:
    head = spec.split(":", 1)[0].strip().lower()
    if head in solvers.INVARIANT_SPECS:
        try:
            n = int(spec.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ParseError(f"bad target family spec {spec!r}") from None
        return target_family(head, n)
    return tuple(gen.generate(part.strip()) for part in spec.split("+"))


def _check_timeout(timeout: Optional[float]) -> None:
    # a NaN deadline would compare false everywhere and never fire
    if timeout is not None and not (math.isfinite(timeout) and timeout >= 0):
        raise BadParameter(f"--timeout must be a finite number >= 0, got {timeout}")


# -- commands ----------------------------------------------------------


def cmd_gen(args) -> int:
    g = gen.generate(args.spec)
    _write_out(formats.write_graph(g, args.format), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    _check_timeout(args.timeout)
    g = _load_graph(args.graph, args.format)
    # each name once, in the order given
    names = list(dict.fromkeys(s.strip() for s in args.invariants.split(",")))
    for name in names:
        if name not in solvers.INVARIANT_SPECS:
            raise ParseError(f"unknown invariant {name!r}")
    report = {
        "graph": {"order": g.order, "edges": g.edge_count(),
                  "graph6": formats.to_graph6(g)},
        "invariants": {},
    }
    timed_out = False
    certs = {}
    # covers first: a partition then finds the longest path among the
    # maximal paths a cover listed, instead of walking them again; the
    # report's keys are sorted, so the order shows nowhere
    for name in sorted(names, key=lambda n: solvers.INVARIANT_SPECS[n][1] != "cover"):
        cert = solvers.invariant_value(g, name, timeout=args.timeout)
        if not solvers.validate_certificate(g, cert):
            raise InternalInvariantBroken(f"{name}: certificate failed validation")
        timed_out |= not cert.optimal
        certs[name] = cert
        report["invariants"][name] = {
            "value": cert.value,
            "optimal": cert.optimal,
            "lower_bound": cert.lower_bound,
            "pieces": [list(p) for p in cert.pieces],
        }
    checks, chi = verify.cross_checks(g, certs)
    report["cross_checks"] = checks if chi is None else {**checks, "chi": chi}
    _write_out(formats.to_json(report), args.out)
    if timed_out:
        return EXIT_TIMEOUT
    if not all(checks.values()):
        return EXIT_FAIL
    return EXIT_OK


def cmd_check_free(args) -> int:
    g = _load_graph(args.graph, args.format)
    family = _parse_family(args.family)
    hit = freeness_witness(g, family)
    if hit is None:
        _write_out("free\n", args.out)
        return EXIT_OK
    member, emb = hit
    _write_out(f"not free: {member.label or 'member'} at {sorted(emb.image())}\n",
               args.out)
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
    _check_timeout(args.timeout)
    if args.n < 1:  # before the solve, which can take long
        raise BadParameter(f"n >= 1 required, got {args.n}")
    g = _load_graph(args.graph, args.format)
    cert = solvers.min_cover(g, PieceKind.SP_ANY, timeout=args.timeout)
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
    _write_out(formats.to_json(report), args.out)
    return EXIT_OK if cert.optimal else EXIT_TIMEOUT


def cmd_bounds(args) -> int:
    if args.what == "ramsey" and args.b is None:
        raise ParseError("bounds ramsey needs two arguments")
    if args.what == "constants" and args.b is not None:
        raise ParseError("bounds constants takes one argument")
    try:  # bounds rejects out-of-range parameters with ValueError
        if args.what == "ramsey":
            table = {f"R({args.a},{args.b})": bounds_mod.ramsey(
                args.a, args.b, max_search_order=args.search_order)}
        else:
            table = bounds_mod.paper_constants(
                args.a, max_digits=args.max_digits, c_chi=args.c_chi)
    except ValueError as exc:
        raise BadParameter(str(exc)) from None
    for key in sorted(table):
        print(f"{key} = {table[key]}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.count < 1:
        raise BadParameter(f"--count must be at least 1, got {args.count}")
    if args.jobs < 1:
        raise BadParameter(f"--jobs must be at least 1, got {args.jobs}")
    results = verify.SUITES[args.suite](args.seed, args.count, args.jobs)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ParseError (exit 4) instead
    of exiting 2; subparsers inherit it as their `parser_class`."""

    def error(self, message):
        raise ParseError(message)


def _add_common(p, graph=False):
    p.add_argument("--format", choices=("g6", "edges"), default="edges",
                   help="graph file format (default: edges)")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    if graph:
        p.add_argument("graph", help="graph file, or - for stdin")


def _gen_args(p):
    p.add_argument("spec", help="family:params, e.g. sstar:3 or h1:2,3")
    _add_common(p)


def _solve_args(p):
    _add_common(p, graph=True)
    p.add_argument("--invariants", default="inspc,inspp",
                   help="comma-separated invariant names")
    p.add_argument("--timeout", type=float, default=None)


def _check_free_args(p):
    _add_common(p, graph=True)
    p.add_argument("family", help="target spec like inspc:4, or specs joined by +")


def _check_order_args(p):
    p.add_argument("family1")
    p.add_argument("family2")


def _characterize_args(p):
    p.add_argument("family")
    p.add_argument("--invariant", choices=solvers.INVARIANT_SPECS, required=True)


def _construct_args(p):
    _add_common(p, graph=True)
    p.add_argument("--mode", choices=("cover", "partition"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--root", type=int, default=0)


def _convert_cover_args(p):
    _add_common(p, graph=True)
    p.add_argument("--to", choices=("star", "path"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--timeout", type=float, default=None)


def _bounds_args(p):
    p.add_argument("what", choices=("ramsey", "constants"))
    p.add_argument("a", type=int, help="s (ramsey) or n (constants)")
    p.add_argument("b", type=int, nargs="?", default=None, help="t (ramsey)")
    p.add_argument("--search-order", type=int, default=6)
    p.add_argument("--max-digits", type=int, default=100_000)
    p.add_argument("--c-chi", type=int, default=None)


def _verify_args(p):
    p.add_argument("suite", choices=verify.SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--jobs", type=int, default=1)


# name -> (help, handler, function adding the command's arguments), in the
# order `coverlab --help` lists them
COMMANDS = {
    "gen": ("generate a named graph", cmd_gen, _gen_args),
    "solve": ("compute invariants exactly", cmd_solve, _solve_args),
    "check-free": ("test forbidden-family freeness", cmd_check_free,
                   _check_free_args),
    "check-order": ("compare two forbidden families under containment",
                    cmd_check_order, _check_order_args),
    "characterize": ("least target size dominating a family",
                     cmd_characterize, _characterize_args),
    "construct": ("run a constructive cover/partition", cmd_construct,
                  _construct_args),
    "convert-cover": ("solve an SP cover and convert it to pure stars/paths",
                      cmd_convert_cover, _convert_cover_args),
    "bounds": ("Ramsey values and derived constants", cmd_bounds, _bounds_args),
    "verify": ("run a verification suite", cmd_verify, _verify_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """A new parser for every command, or for `command` alone.  `main`
    builds each one once per process, on first use, through `_parser`:
    building took most of the CLI's own time per call, and a call runs one
    command, so it never needs the other eight subparsers."""
    top = _Parser(
        prog="coverlab",
        description="Induced star/path cover and partition invariants.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, fn, add_args) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            add_args(p)
            p.set_defaults(fn=fn)
    return top


# each parser kept for the life of the process: parse_args only reads it and
# makes a new Namespace each call, and the only defaults set are the handlers
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = _parser(command).parse_args(argv)
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
    except RecursionError as exc:
        print(f"error: input too large for the solver: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        # a MemoryError has no text of its own as a rule
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
