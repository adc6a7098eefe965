"""Verification suites: the paper's checkable claims as lists of checks.

Every suite returns ``[(name, ok)]``.  ``coverlab verify`` prints these
lists and the acceptance gate (``tests/test_acceptance.py``) asserts
them, so each closed form, lower bound, characterization and chain pair
is written down here only; ``coverlab solve`` prints ``cross_checks``.
"""

from __future__ import annotations

import math
import os
import random
from functools import partial
from typing import Optional

from . import generators as gen, naive, solvers
from .graph import Graph, PieceKind
from .iso import characterize, family_leq, target_family

Check = tuple[str, bool]

# (lo, hi): lo <= hi on every graph
CHAIN_PAIRS = [
    ("inspc", "insc"), ("insc", "insp"), ("inspp", "insp"),
    ("inspc", "inpc"), ("inpc", "inpp"), ("inspp", "inpp"),
    ("inspc", "inspp"), ("inpc", "ispc"), ("inpp", "ispp"),
    ("ispc", "ispp"),
]


def lemma41() -> list[Check]:
    """Lemma 4.1: closed-form values on K_n, S*_n, S~_n, K_1,n and P_n."""
    cases = []
    for n in range(2, 9):
        cases += [(gen.complete(n), "inspc", math.ceil(n / 2)),
                  (gen.s_star(n), "inspc", math.ceil(n / 2))]
    cases += [(gen.s_tilde(n), "inspp", n + 1) for n in range(2, 7)]
    cases += [(gen.star(n), "inpc", math.ceil(n / 2)) for n in range(2, 11)]
    cases += [(gen.path(n), "insc", math.ceil(n / 3)) for n in range(2, 13)]
    return [(f"{inv}({g.label}) == {want}",
             solvers.invariant_value(g, inv).value == want)
            for g, inv, want in cases]


def lemma42() -> list[Check]:
    """Lemma 4.2: lower bounds on the chained families H1-H5."""
    out = []
    for m in (2, 3, 4):
        for n in (3, 4):
            for g, inv, lower in ((gen.h1(m, n), "inspc", (m + 2) // 2),
                                  (gen.h2(m, n), "inspc", (m + 2) // 2),
                                  (gen.h3(m, n), "inspc", m),
                                  (gen.h4(m, n), "inspp", m),
                                  (gen.h5(m, n), "inspp", m)):
                v = solvers.invariant_value(g, inv).value
                out.append((f"{inv}({g.label}) = {v} >= {lower}", v >= lower))
    return out


def theorems() -> list[Check]:
    """Each invariant's target family characterizes it, and the
    families are ordered by their parameter."""
    out = []
    for inv in solvers.INVARIANT_SPECS:
        for n in (4, 5):
            got = characterize(target_family(inv, n), inv)
            out.append((f"characterize(target({inv},{n})) == {n}", got == n))
    out.append(("characterize({P_4}, inspc) is none",
                characterize((gen.path(4),), "inspc") is None))
    for inv in solvers.INVARIANT_SPECS:
        for n in range(4, 7):
            ok = family_leq(target_family(inv, n), target_family(inv, n + 1))
            out.append((f"target({inv},{n}) <= target({inv},{n+1})", ok))
    return out


def cross_checks(g: Graph, certs: dict[str, solvers.PieceCertificate]
                 ) -> tuple[dict, Optional[int]]:
    """Each CHAIN_PAIRS inequality "lo<=hi" between the given invariant
    certificates of g and, given inspc, chi <= 2*inspc; with chi, or
    None.  A timed-out certificate's value is only an upper bound, so a
    check fails only when the solved numbers contradict it: lo's lower
    bound above hi's value, or chi (exact) above twice inspc's value."""
    checks = {f"{lo}<={hi}": certs[lo].lower_bound <= certs[hi].value
              for lo, hi in CHAIN_PAIRS if lo in certs and hi in certs}
    chi = None
    if "inspc" in certs:
        chi = solvers.chromatic_number(g)
        checks["chi<=2*inspc"] = chi <= 2 * certs["inspc"].value
    return checks, chi


def chains_hold(g: Graph) -> bool:
    """Every cross-check between the eight invariants holds on g."""
    certs = {name: solvers.invariant_value(g, name) for name in solvers.INVARIANT_SPECS}
    return all(cross_checks(g, certs)[0].values())


def oracle_agrees(g: Graph) -> bool:
    """The exact solvers match the brute-force oracles on every piece kind."""
    pieces = naive.all_piece_masks(g)  # one scan, read by both brute-force searches
    for kind in PieceKind:
        masks = pieces[kind]
        if (solvers.min_cover(g, kind).value != naive.naive_min_cover(g, masks)
                or (solvers.min_partition(g, kind).value
                    != naive.naive_min_partition(g, masks))):
            return False
    return True


# seeded suite -> (predicate, least and largest order of its random graphs)
_SEEDED = {"chains": (chains_hold, 4, 10), "oracle": (oracle_agrees, 4, 7)}


def _random_graph(seed: int, lo: int, hi: int) -> Graph:
    rng = random.Random(seed)
    order = rng.randint(lo, hi)
    p = rng.uniform(0.25, 0.75)
    return gen.random_connected(order, p, rng)


def _seeded_case(suite: str, seed: int) -> Check:
    predicate, lo, hi = _SEEDED[suite]
    g = _random_graph(seed, lo, hi)
    return f"{suite}(seed={seed}, order={g.order})", predicate(g)


def seeded(suite: str, seed: int = 0, count: int = 200,
           jobs: int = 1) -> list[Check]:
    """One check of a seeded suite per seed in seed .. seed+count-1,
    spread over `jobs` processes, but no more than there are cases or
    CPUs."""
    cases = [(suite, s) for s in range(seed, seed + count)]
    jobs = min(jobs, len(cases), os.cpu_count() or 1)
    if jobs > 1:
        # imported here, so that only a run with jobs > 1 pays for it
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            return pool.starmap(_seeded_case, cases)
    return [_seeded_case(*case) for case in cases]


# suite name -> function of (seed, count, jobs); the fixed tables ignore them
SUITES = {
    "lemma41": lambda *_: lemma41(),
    "lemma42": lambda *_: lemma42(),
    "theorems": lambda *_: theorems(),
    "chains": partial(seeded, "chains"),
    "oracle": partial(seeded, "oracle"),
}
