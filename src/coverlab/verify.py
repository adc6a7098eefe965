"""Verification suites: the paper's checkable claims as lists of checks.

Every suite returns ``[(name, ok)]``.  ``coverlab verify`` prints these
lists and the acceptance gate (``tests/test_acceptance.py``) asserts
them, so each closed form, lower bound, characterization and chain pair
is written down here only.
"""

from __future__ import annotations

import math
import random
from functools import partial
from multiprocessing import Pool

from . import generators as gen, naive, solvers
from .graph import Graph, PieceKind
from .iso import (INVARIANTS, ForbiddenFamily, characterize, family_leq,
                  target_family)

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
    for inv in INVARIANTS:
        for n in (4, 5):
            got = characterize(target_family(inv, n), inv)
            out.append((f"characterize(target({inv},{n})) == {n}", got == n))
    fam_p4 = ForbiddenFamily((gen.path(4),), name="P_4")
    out.append(("characterize({P_4}, inspc) is none",
                characterize(fam_p4, "inspc") is None))
    for inv in INVARIANTS:
        for n in range(4, 7):
            ok = family_leq(target_family(inv, n), target_family(inv, n + 1))
            out.append((f"target({inv},{n}) <= target({inv},{n+1})", ok))
    return out


def chains_hold(g: Graph) -> bool:
    """Every CHAIN_PAIRS inequality, and chi <= 2*inspc <= 2*inspp, on g."""
    vals = {name: solvers.invariant_value(g, name).value for name in INVARIANTS}
    return (all(vals[lo] <= vals[hi] for lo, hi in CHAIN_PAIRS)
            and solvers.chromatic_number(g) <= 2 * vals["inspc"] <= 2 * vals["inspp"])


def oracle_agrees(g: Graph) -> bool:
    """The exact solvers match the brute-force oracles on every piece kind."""
    return all(solvers.min_cover(g, kind).value == naive.naive_min_cover(g, kind)
               and (solvers.min_partition(g, kind).value
                    == naive.naive_min_partition(g, kind))
               for kind in PieceKind)


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
    spread over `jobs` processes."""
    cases = [(suite, s) for s in range(seed, seed + count)]
    if jobs > 1:
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
