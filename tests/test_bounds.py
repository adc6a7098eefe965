import json
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from coverlab import bounds as B
from coverlab.errors import FormatError


def test_trivial_identities():
    assert B.ramsey(1, 9).value == 1
    assert B.ramsey(2, 7) == B.ramsey(7, 2)
    assert B.ramsey(2, 7).value == 7
    assert B.ramsey(2, 7).status is B.Status.EXACT
    with pytest.raises(ValueError):
        B.ramsey(0, 3)


def test_table_values():
    expected = {(3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18, (3, 7): 23,
                (3, 8): 28, (3, 9): 36, (4, 4): 18, (4, 5): 25}
    for (s, t), v in expected.items():
        assert B.ramsey(s, t).value == v


def test_search_rederives_small_value():
    bv = B.ramsey(3, 3)
    assert bv == B.BoundValue(6, B.Status.EXACT)


def test_exhaustive_search_direct():
    assert B.ramsey_exact_search(3, 3, max_order=7) == 6
    with pytest.raises(B.SearchBudgetExceeded):
        B.ramsey_exact_search(3, 4, max_order=5)


def test_larger_value_stays_table_exact_by_default():
    assert B.ramsey(3, 4).status in (B.Status.TABLE_EXACT, B.Status.EXACT)
    assert B.ramsey(4, 4).status is B.Status.TABLE_EXACT


def test_binomial_fallback():
    bv = B.ramsey(4, 30)
    assert bv.status is B.Status.UPPER_BOUND_ONLY
    assert bv.value == math.comb(32, 3)


def test_weakest_status_ordering():
    assert B.weakest(B.Status.EXACT, B.Status.TABLE_EXACT) is B.Status.TABLE_EXACT
    assert B.weakest(B.Status.TABLE_EXACT,
                     B.Status.UPPER_BOUND_ONLY) is B.Status.UPPER_BOUND_ONLY
    assert B.weakest(B.Status.EXACT) is B.Status.EXACT


def test_alpha_recursion():
    assert B.alpha_value(4, 1).value == 1
    # second level: R(4, 3*1+1) - 1 = R(4,4) - 1 = 17
    a2 = B.alpha_value(4, 2)
    assert a2.value == 17
    # third level: R(4, 3*17+1) = R(4,52) has no table entry
    a3 = B.alpha_value(4, 3)
    assert a3.value == math.comb(54, 3) - 1
    assert a3.status is B.Status.UPPER_BOUND_ONLY


def test_alpha_digit_budget():
    a = B.alpha_value(4, 12, max_digits=100)
    assert a.value is None
    assert a.status is B.Status.UPPER_BOUND_ONLY
    assert "budget" in a.note


def test_xi_values():
    # nu = R(3,4) - 1 = 8; xi_{4,2} = (8^2 - 1) / 7 = 9
    assert B.xi_value(4, 2).value == 9
    assert B.xi_value(4, 1).value == 1
    # nu = R(4,5) - 1 = 24 at n = 5
    assert B.xi_value(5, 3).value == (24 ** 3 - 1) // 23


def test_paper_constants_structure():
    pc = B.paper_constants(4)
    assert pc["nu"].value == 8
    assert pc["xi"].value == 9
    assert pc["c_inspc"].constant_term.value == (4 - 1) ** 2 * 8
    # the dominating-set component is far beyond any digit budget
    assert pc["dom_large"].value is None
    assert pc["c_inspp"].value is None
    with pytest.raises(ValueError):
        B.paper_constants(3)


def test_symbolic_constant_evaluation():
    zero = B.BoundValue(0, B.Status.EXACT)
    five = B.BoundValue(5, B.Status.TABLE_EXACT)
    sym = B.SymbolicConstant(zero, five)
    got = sym.evaluate(7)
    assert got.value == 35
    assert got.status is B.Status.UPPER_BOUND_ONLY  # external c_chi is a bound
    assert "c_chi" in str(sym)


def test_status_propagates_through_arithmetic():
    # constants built only from table values keep table_exact status
    pc = B.paper_constants(4)
    assert pc["nu"].status is B.Status.TABLE_EXACT
    assert pc["xi"].status is B.Status.TABLE_EXACT
    assert pc["c_inspc"].constant_term.status is B.Status.TABLE_EXACT


def test_table_override(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"3,3": 99}))
    monkeypatch.setenv(B.TABLE_ENV_VAR, str(path))
    # avoid the search path (and its cache) so the table value is visible
    B._search_cache.clear()
    bv = B.ramsey(3, 3, max_search_order=0)
    assert bv.value == 99
    monkeypatch.delenv(B.TABLE_ENV_VAR)
    assert B.ramsey(3, 4).value == 9


def test_negative_search_order_is_rejected():
    for s, t in ((3, 4), (1, 5)):
        with pytest.raises(ValueError, match="max_search_order >= 0"):
            B.ramsey(s, t, max_search_order=-1)
    assert B.ramsey(3, 4, max_search_order=0).value == 9  # 0: no search


def test_dominating_set_bound_small_cases():
    # l0 = 2: R(4,4) * alpha_{4,2} + 1 = 18*17 + 1
    bv = B.dominating_set_bound(4, 2)
    assert bv.value == 18 * 17 + 1
    assert bv.status is B.Status.TABLE_EXACT


# -- the alpha chain against the step-by-step recursion ------------------

def _ref_alpha_value(n, h, max_digits=100_000):
    """alpha_{n,h} walked from alpha_{n,1} on every call: O(h) Ramsey
    values per call, so O(l0^2) for a dominating-set sum."""
    value = 1
    status = B.Status.EXACT
    for _ in range(h - 1):
        r = B.ramsey(n, (n - 1) * value + 1)
        status = B.weakest(status, r.status)
        value = r.value - 1
        if value.bit_length() > max_digits * 4:
            return B.BoundValue(None, B.Status.UPPER_BOUND_ONLY,
                                note=f"exceeds {max_digits}-digit budget")
    return B.BoundValue(value, status)


def _ref_dominating_set_bound(n, l0, max_digits=100_000):
    rnn = B.ramsey(n, n)
    status = rnn.status
    total = 0
    for h in range(2, l0 + 1):
        a = _ref_alpha_value(n, h, max_digits=max_digits)
        if a.value is None:
            return B.BoundValue(None, B.Status.UPPER_BOUND_ONLY, note=a.note)
        status = B.weakest(status, a.status)
        total += a.value
    return B.BoundValue(rnn.value * total + 1, status)


def _ref_paper_constants(n, max_digits=100_000, c_chi=None):
    r = B.ramsey(n - 1, n)
    nu = B.BoundValue(r.value - 1, r.status)
    xi = B.xi_value(n, n - 2)
    lead = B.BoundValue((n - 1) ** 2 * nu.value, nu.status)
    over = B.BoundValue(None, B.Status.UPPER_BOUND_ONLY,
                        note=f"exceeds {max_digits}-digit budget")
    nu, xi, lead = [over if v.value.bit_length() > max_digits * 4 else v
                    for v in (nu, xi, lead)]
    dom_small = _ref_dominating_set_bound(n, n * n - 1, max_digits)
    dom_large = _ref_dominating_set_bound(n, n * n + 2 * n - 1, max_digits)

    def times(a, b):
        if a.value is None or b.value is None:
            return B.BoundValue(None, B.Status.UPPER_BOUND_ONLY,
                                note="component not materialized")
        return B.BoundValue(a.value * b.value, B.weakest(a.status, b.status))

    def plus(a, b):
        if a.value is None or b.value is None:
            return B.BoundValue(None, B.Status.UPPER_BOUND_ONLY,
                                note="component not materialized")
        return B.BoundValue(a.value + b.value, B.weakest(a.status, b.status))

    zero = B.BoundValue(0, B.Status.EXACT)
    c1_small = B.SymbolicConstant(zero, dom_small)
    c1_large = B.SymbolicConstant(zero, dom_large)
    c2_small = times(dom_small, xi)
    c2_large = times(dom_large, xi)
    c_inspc = B.SymbolicConstant(lead, plus(times(lead, dom_small), dom_large))
    c_inspp = plus(B.BoundValue((n - 1) ** 2, B.Status.EXACT),
                   plus(times(lead, c2_small), c2_large))
    out = {"nu": nu, "xi": xi, "dom_small": dom_small, "dom_large": dom_large,
           "c1_small": c1_small, "c1_large": c1_large, "c2_small": c2_small,
           "c2_large": c2_large, "c_inspc": c_inspc, "c_inspp": c_inspp}
    if c_chi is not None:
        out["c1_small_eval"] = c1_small.evaluate(c_chi)
        out["c1_large_eval"] = c1_large.evaluate(c_chi)
        out["c_inspc_eval"] = c_inspc.evaluate(c_chi)
    return out


def _assert_chain_matches_reference(n, max_digits, c_chi):
    small, large = n * n - 1, n * n + 2 * n - 1
    for h in range(1, large + 1):
        want = _ref_alpha_value(n, h, max_digits)
        assert B.alpha_value(n, h, max_digits) == want, h
        if want.value is None:  # so is every later alpha_{n,h}
            assert B.alpha_value(n, large, max_digits) == want
            break
    for l0 in (0, 1, 2, small, large):
        assert (B.dominating_set_bound(n, l0, max_digits)
                == _ref_dominating_set_bound(n, l0, max_digits)), l0
    got = B.paper_constants(n, max_digits, c_chi)
    want = _ref_paper_constants(n, max_digits, c_chi)
    assert got.keys() == want.keys()
    for key in want:  # BoundValue/SymbolicConstant compare value, status, note
        assert got[key] == want[key], key


@pytest.mark.parametrize("c_chi", [None, 3])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_alpha_chain_matches_reference_at_default_budget(n, c_chi):
    _assert_chain_matches_reference(n, 100_000, c_chi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 7), max_digits=st.integers(1, 3000),
       c_chi=st.sampled_from([None, 3]))
@example(n=4, max_digits=2858, c_chi=None)  # alpha_{4,9}: 11,432 bits, kept
@example(n=4, max_digits=2857, c_chi=3)  # the same alpha, over budget
def test_alpha_chain_matches_reference(n, max_digits, c_chi):
    _assert_chain_matches_reference(n, max_digits, c_chi)


def test_budget_edge_keeps_a_value_of_exactly_four_bits_per_digit():
    assert B.alpha_value(4, 9, max_digits=2858).value.bit_length() == 4 * 2858
    assert B.alpha_value(4, 9, max_digits=2857).value is None


def test_paper_constants_skip_over_budget_binomials(monkeypatch):
    calls, bits = [], []
    ramsey, binomial_bound = B.ramsey, B.binomial_bound

    def counted_ramsey(*args, **kwargs):
        calls.append(args)
        return ramsey(*args, **kwargs)

    def sized_binomial(s, t):
        value = binomial_bound(s, t)
        bits.append(value.bit_length())
        return value

    monkeypatch.setattr(B, "ramsey", counted_ramsey)
    monkeypatch.setattr(B, "binomial_bound", sized_binomial)
    B.paper_constants(4)
    B.paper_constants(5)
    # the step-by-step recursion makes 254 calls; its largest binomial
    # has 926,078 bits, over the 400,000-bit budget of 100,000 digits
    assert len(calls) <= 30
    assert bits and max(bits) <= 400_000


# -- the Ramsey search ----------------------------------------------------

def _ref_good_graph_exists(s, t, order):
    """The search trying every neighbourhood mask of each new vertex."""
    rows = [0] * order
    lower = [0] * order

    def feasible(k, mask):
        if B._has_clique_in(rows, mask, s - 1):
            return False
        return not B._has_clique_in(rows, ((1 << k) - 1) & ~mask, t - 1, -1)

    def extend(k):
        if k == order:
            return list(rows)
        for mask in range(1 << k):
            if k >= 2:
                bit = mask >> (k - 1) & 1
                swapped_prev = mask & ~(1 << (k - 1))
                swapped_last = lower[k - 1] | (bit << (k - 1))
                if (swapped_prev, swapped_last) < (lower[k - 1], mask):
                    continue
            if not feasible(k, mask):
                continue
            lower[k] = mask
            rows[k] = mask
            for v in range(k):
                if mask >> v & 1:
                    rows[v] |= 1 << k
            found = extend(k + 1)
            if found is not None:
                return found
            for v in range(k):
                if mask >> v & 1:
                    rows[v] &= ~(1 << k)
            rows[k] = 0
        return None

    return extend(0)


def _clique_and_independence_numbers(order):
    """{(omega(G), alpha(G))} over every graph G on vertices 0..order-1."""
    pairs = list(combinations(range(order), 2))
    inside = []  # per vertex subset: (its size, the pairs inside it as a mask)
    for sub in range(1 << order):
        pm = sum(1 << i for i, (u, v) in enumerate(pairs)
                 if sub >> u & 1 and sub >> v & 1)
        inside.append((sub.bit_count(), pm))
    return {(max(k for k, pm in inside if pm & edges == pm),
             max(k for k, pm in inside if not pm & edges))
            for edges in range(1 << len(pairs))}


@st.composite
def rows_and_within(draw, max_order=8):
    """Adjacency rows of a graph on at most `max_order` vertices, and a
    vertex subset of it."""
    n = draw(st.integers(0, max_order))
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if draw(st.booleans()):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return rows, draw(st.integers(0, (1 << n) - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows_and_within())
def test_has_clique_in_matches_brute_force(graph):
    # flip=-1 complements every row, so it asks for an independent set
    rows, drawn = graph
    n = len(rows)
    for within in (drawn, (1 << n) - 1):
        subsets = [sub for sub in range(within + 1) if sub & within == sub]
        for flip, edge in ((0, True), (-1, False)):
            for size in range(n + 2):
                brute = any(all((rows[u] >> v & 1) == edge for u, v in combinations(
                    [w for w in range(n) if sub >> w & 1], 2))
                    for sub in subsets if sub.bit_count() == size)
                assert B._has_clique_in(rows, within, size, flip) == brute, (flip, size)


@pytest.mark.parametrize("order", range(7))
def test_good_graph_search_matches_brute_force(order):
    numbers = _clique_and_independence_numbers(order)
    for s in (2, 3, 4):
        for t in (2, 3, 4):
            exists = any(omega < s and alpha < t for omega, alpha in numbers)
            rows = B._good_graph_exists(s, t, order)
            assert (rows is not None) == exists, (s, t)
            if rows is not None:
                assert not B._has_clique_in(rows, (1 << order) - 1, s)
                assert not B._has_clique_in(rows, (1 << order) - 1, t, -1)


@pytest.mark.parametrize("s, t", [(3, 4), (4, 3)])
def test_good_graph_witness_matches_reference(s, t):
    for order in range(9):
        assert B._good_graph_exists(s, t, order) == _ref_good_graph_exists(s, t, order)


def test_search_derives_r43():
    assert B.ramsey_exact_search(4, 3, max_order=9) == 9


def test_search_runs_with_s_at_most_t(monkeypatch):
    # R(s,t) = R(t,s), and the search prunes best with the smaller clique
    real, calls = B._good_graph_exists, []

    def spy(s, t, order):
        calls.append((s, t))
        return real(s, t, order)

    monkeypatch.setattr(B, "_good_graph_exists", spy)
    assert B.ramsey_exact_search(4, 3, max_order=9) == 9
    assert calls and all(s <= t for s, t in calls)


def test_refuted_table_entry_raises(tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"4,3": 5}))
    monkeypatch.setenv(B.TABLE_ENV_VAR, str(path))
    monkeypatch.setattr(B, "_search_cache", {})
    # the search finds (K_3, I_4)-free graphs up to order 6: R(3,4) > 6
    with pytest.raises(FormatError) as exc:
        B.ramsey(3, 4, max_search_order=6)
    assert str(exc.value) == (f'Ramsey table {path}: entry "3,4": 5 is refuted: '
                              'the search to order 6 found R(3,4) > 6')
    with pytest.raises(FormatError, match="is refuted"):
        B.paper_constants(4)
    # above the search order the entry is not searched
    assert B.ramsey(4, 3, max_search_order=4) == B.BoundValue(5, B.Status.TABLE_EXACT)
    assert B.ramsey(3, 4, max_search_order=0) == B.BoundValue(5, B.Status.TABLE_EXACT)



@pytest.mark.parametrize("entry", (5, 7))
def test_table_entry_the_search_contradicts_raises(tmp_path, monkeypatch, entry):
    # R(3,3) = 6 is found within order 7, so an entry of 5 or 7 is wrong
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"3,3": entry}))
    monkeypatch.setenv(B.TABLE_ENV_VAR, str(path))
    monkeypatch.setattr(B, "_search_cache", {})
    message = (f'Ramsey table {path}: entry "3,3": {entry} is refuted: '
               'the search to order 7 found R(3,3) = 6')
    for _ in range(2):  # the value found is never kept as exact
        with pytest.raises(FormatError) as exc:
            B.ramsey(3, 3, max_search_order=7)
        assert str(exc.value) == message
    assert B._search_cache == {}

@pytest.mark.parametrize("fn, args, message", [
    (B.alpha_value, (0, 1), "n >= 1 and h >= 1 required"),
    (B.xi_value, (2, 1), "n >= 3 and i >= 1 required"),
], ids=["alpha", "xi"])
def test_derived_quantities_reject_out_of_range_parameters(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)


def test_nu_value():
    assert B.nu_value(4).value == 8  # R(3,4) - 1
    assert B.nu_value(3) == B.BoundValue(2, B.Status.EXACT)  # R(2,3) - 1
    assert B.paper_constants(5)["nu"] == B.nu_value(5)
    with pytest.raises(ValueError, match="n >= 2 required"):
        B.nu_value(1)
