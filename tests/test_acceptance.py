"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import random
import time

from coverlab import generators as gen
from coverlab.bounds import ramsey_exact_search
from coverlab.constructive import (sp_cover_construct, sp_partition_construct,
                                   star_partition_neighborhood)
from coverlab.graph import (PieceKind, build_graph, is_connected, mask_of,
                            piece_shape_mask)
from coverlab.iso import is_family_free, target_family
from coverlab.solvers import invariant_value, validate_certificate
from coverlab.verify import (chains_hold, lemma41, lemma42, oracle_agrees,
                             theorems)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _report_checks(criterion: str, checks):
    """Report a table of (name, ok) checks, naming any that failed."""
    failed = [name for name, ok in checks if not ok]
    _report(criterion, not failed, "; ".join(failed))


def test_criterion_1_closed_forms():
    _report_checks("criterion 1: closed-form invariant values", lemma41())


def test_criterion_2_extremal_lower_bounds():
    _report_checks("criterion 2: chained-family lower bounds, full (m,n) grid",
                   lemma42())


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(33001)
    count = 5000
    ok = True
    for trial in range(count):
        order = rng.randint(4, 7)
        g = gen.random_connected(order, rng.uniform(0.25, 0.75), rng)
        ok &= oracle_agrees(g)
        if not ok:
            break
    dt = time.monotonic() - t0
    _report("criterion 3: solver/oracle equivalence", ok and dt < 600,
            f"{count} graphs in {dt:.1f}s")


def test_criterion_4_chains_and_coloring_bound():
    rng = random.Random(44001)
    ok = True
    for trial in range(200):
        g = gen.random_connected(rng.randint(4, 10), rng.uniform(0.2, 0.8), rng)
        ok &= chains_hold(g)
    _report("criterion 4: inequality chains and coloring bound, 200 graphs", ok)


def _caterpillar(rng):
    spine = rng.randint(6, 22)
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        if rng.random() < 0.3:
            edges.append((i, nxt))
            nxt += 1
    return build_graph(nxt, edges)


def _corpus(family, rng):
    """50 connected graphs free of the family, headed by long paths."""
    out = [gen.path(25), gen.path(30), gen.path(40)]
    assert all(is_family_free(g, family) for g in out)
    candidates = [gen.path(k) for k in (5, 9, 14, 19, 22)]
    candidates += [gen.cycle(k) for k in (4, 6, 9, 13, 18)]
    while len(out) < 50:
        if candidates:
            g = candidates.pop()
        elif rng.random() < 0.4:
            g = _caterpillar(rng)
        else:
            order = rng.randint(8, 18)
            g = gen.random_connected(order, rng.uniform(1.2, 2.2) / order, rng)
        if is_connected(g) and is_family_free(g, family):
            out.append(g)
    return out


def _construct_ok(g, trace, invariant):
    if not validate_certificate(g, trace.result):
        return False
    for piece in trace.result.pieces:
        m = mask_of(piece)
        if not piece_shape_mask(g, m, PieceKind.STAR) \
                and not piece_shape_mask(g, m, PieceKind.ISOMETRIC_PATH):
            return False
    if g.order <= 20:
        if trace.result.value < invariant_value(g, invariant).value:
            return False
    return True


def test_criterion_5_constructive_validity():
    rng = random.Random(55001)
    ok = True
    for g in _corpus(target_family("inspc", 4), rng):
        trace = sp_cover_construct(g, 4)  # InternalInvariantBroken would raise
        ok &= _construct_ok(g, trace, "inspc")
    for g in _corpus(target_family("inspp", 4), rng):
        trace = sp_partition_construct(g, 4)
        ok &= _construct_ok(g, trace, "inspp")
    _report("criterion 5: constructive validity on 2x50 corpus graphs", ok)


def test_criterion_6_neighborhood_partition_bound():
    rng = random.Random(66001)
    filt = (gen.complete(4), gen.s_tilde(4))
    done = 0
    ok = True
    while done < 100:
        size = rng.randint(1, 15)
        edges = [(0, i) for i in range(1, size + 1)]
        edges += [(i, j) for i in range(1, size + 1)
                  for j in range(i + 1, size + 1)
                  if rng.random() < rng.choice((0.05, 0.15, 0.3))]
        g = build_graph(size + 1, edges)
        if not is_family_free(g, filt):
            continue
        done += 1
        t = star_partition_neighborhood(g, 0, range(1, size + 1), 4)
        ok &= t.result.value <= 9
        ok &= t.intermediate["depth"] <= 2
        total = 0
        for piece in t.result.pieces:
            m = mask_of(piece)
            ok &= piece_shape_mask(g, m, PieceKind.STAR)
            ok &= not (total & m)
            total |= m
        ok &= total == g.full_mask
    _report("criterion 6: neighborhood star partition bound, 100 instances", ok)


def test_criterion_7_ramsey_exactness():
    t0 = time.monotonic()
    r33 = ramsey_exact_search(3, 3, max_order=9)
    r34 = ramsey_exact_search(3, 4, max_order=10)
    dt = time.monotonic() - t0
    _report("criterion 7: Ramsey values by exhaustive search",
            r33 == 6 and r34 == 9 and dt < 900, f"{dt:.1f}s")


def test_criterion_8_characterization_consistency():
    _report_checks("criterion 8: characterization self-consistency", theorems())
