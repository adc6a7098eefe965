"""Ramsey numbers and derived size constants, with explicit exactness status."""

from __future__ import annotations

import json
import math
import os
import sys
from enum import Enum
from typing import NamedTuple, Optional

from .errors import FormatError


class Status(Enum):
    """Provenance of a number, declared from strongest to weakest."""

    EXACT = "exact"
    TABLE_EXACT = "table_exact"
    UPPER_BOUND_ONLY = "upper_bound_only"


_STRONGEST_FIRST = list(Status)


def weakest(*statuses: Status) -> Status:
    return max(statuses, key=_STRONGEST_FIRST.index)


class BoundValue(NamedTuple):
    """A non-negative integer with provenance.

    value is None when the number is well-defined but too large to
    materialize (see note); such values always carry UPPER_BOUND_ONLY.
    """

    value: Optional[int]
    status: Status
    note: str = ""

    def __str__(self):
        v = "<not materialized>" if self.value is None else _decimal(self.value)
        suffix = f" ({self.note})" if self.note else ""
        return f"{v} [{self.status.value}]{suffix}"


def _decimal(value: int) -> str:
    """value in full: Python's int-to-text digit limit is lifted for this
    one conversion (3.10.0-3.10.6 have neither the limit nor its setter)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return str(value)
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


# Published exact Ramsey values (small-case table); key (s,t) with s <= t.
DEFAULT_TABLE = {
    (3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18, (3, 7): 23,
    (3, 8): 28, (3, 9): 36, (4, 4): 18, (4, 5): 25,
}

TABLE_ENV_VAR = "COVERLAB_TABLE_PATH"


def _load_table() -> dict[tuple[int, int], int]:
    """The table at $COVERLAB_TABLE_PATH, else the built-in one.  A file
    that is not a JSON object of "s,t": value entries, each a positive
    integer, raises FormatError."""
    path = os.environ.get(TABLE_ENV_VAR)
    if not path:
        return dict(DEFAULT_TABLE)
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise FormatError(f"Ramsey table {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise FormatError(f'Ramsey table {path}: want an object of "s,t": value entries')
    table = {}
    for key, value in raw.items():
        try:
            s, t = (int(x) for x in key.split(","))
        except ValueError:
            s = t = 0
        if min(s, t) < 1 or type(value) is not int or value < 1:
            raise FormatError(f'Ramsey table {path}: bad entry "{key}": '
                              f'{json.dumps(value)}; want "s,t": value, '
                              'all positive integers')
        table[(min(s, t), max(s, t))] = value
    return table


# -- exhaustive search -------------------------------------------------


def _has_clique_in(rows: list[int], within: int, size: int, flip: int = 0) -> bool:
    """True iff the graph restricted to `within` has a clique of `size`;
    with `flip=-1` each row is complemented, so an independent set."""
    if size == 0:
        return True
    if within.bit_count() < size:
        return False
    m = within
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if _has_clique_in(rows, (rows[v] ^ flip) & m, size - 1, flip):
            return True
    return False


class SearchBudgetExceeded(Exception):
    pass


def _good_graph_exists(s: int, t: int, order: int) -> Optional[list[int]]:
    """Search for a graph on `order` vertices with no K_s and no I_t.

    Returns adjacency rows of a witness, or None after exhausting the
    space.  Vertex k takes as neighbours among 0..k-1 only sets that hold
    no K_{s-1}, tried in ascending mask order; adjacent-transposition
    canonicity prunes relabellings of the last two vertices.
    """
    rows = [0] * order

    def neighbourhoods(k: int) -> list[int]:
        # every K_{s-1}-free subset of 0..k-1, in ascending mask order:
        # the sets found before v is added are all below 1 << v, and v
        # joins a set when its neighbours in the set hold no K_{s-2}
        # (at s = 1 even the empty set holds K_0, so there are none)
        masks = [] if _has_clique_in(rows, 0, s - 1) else [0]
        for v in range(k):
            bit = 1 << v
            masks += [m | bit for m in masks
                      if not _has_clique_in(rows, rows[v] & m, s - 2)]
        return masks

    def extend(k: int) -> Optional[list[int]]:
        if k == order:
            return list(rows)
        prev = (1 << k) - 1
        for mask in neighbourhoods(k):
            if k >= 2:
                # canonicity: swapping vertices k-1 and k must not
                # lower the lexicographic lower-row code.  Row k-1 holds
                # only earlier vertices: vertex k is not placed yet
                bit = mask >> (k - 1) & 1
                swapped_prev = mask & ~(1 << (k - 1))
                swapped_last = rows[k - 1] | (bit << (k - 1))
                if (swapped_prev, swapped_last) < (rows[k - 1], mask):
                    continue
            if _has_clique_in(rows, prev & ~mask, t - 1, -1):
                continue
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


def ramsey_exact_search(s: int, t: int, max_order: int = 9) -> int:
    """R(s,t) by exhaustive search: least N with no (K_s, I_t)-avoiding graph.

    R is symmetric, and the search prunes best with s <= t, so it runs
    on (min(s, t), max(s, t)).  Raises SearchBudgetExceeded if the
    answer exceeds max_order.
    """
    lo, hi = min(s, t), max(s, t)
    for order in range(1, max_order + 1):
        if _good_graph_exists(lo, hi, order) is None:
            return order
    raise SearchBudgetExceeded(f"R({s},{t}) > {max_order}")


_search_cache: dict[tuple[int, int], int] = {}


def binomial_bound(s: int, t: int) -> int:
    return math.comb(s + t - 2, s - 1)


def ramsey(s: int, t: int, max_search_order: int = 6) -> BoundValue:
    """R(s,t) with the strongest status obtainable within the search budget.

    Trivial identities and completed searches give EXACT; the embedded
    table gives TABLE_EXACT; otherwise the binomial bound applies.
    Raising max_search_order (e.g. to 9) lets R(3,4) be re-derived by
    exhaustive search; 0 means no search.  A table entry up to
    max_search_order is searched, and one the search refutes, from above
    or below, raises FormatError; only a confirmed value is kept.
    """
    if s < 1 or t < 1:
        raise ValueError("Ramsey arguments must be positive")
    if max_search_order < 0:
        raise ValueError(f"max_search_order >= 0 required, got {max_search_order}")
    s, t = min(s, t), max(s, t)
    if s == 1:
        return BoundValue(1, Status.EXACT, note="R(1,t)=1")
    if s == 2:
        return BoundValue(t, Status.EXACT, note="R(2,t)=t")
    if (s, t) not in _search_cache:
        hint = _load_table().get((s, t))
        if hint is None:
            return BoundValue(binomial_bound(s, t), Status.UPPER_BOUND_ONLY,
                              note="binomial bound")
        if hint > max_search_order:
            return BoundValue(hint, Status.TABLE_EXACT)
        try:
            value = ramsey_exact_search(s, t, max_order=max_search_order)
        except SearchBudgetExceeded:  # a good graph on hint vertices exists
            value = None
        if value != hint:
            path = os.environ.get(TABLE_ENV_VAR) or "(built-in)"
            found = (f"R({s},{t}) > {max_search_order}" if value is None
                     else f"R({s},{t}) = {value}")
            raise FormatError(f'Ramsey table {path}: entry "{s},{t}": {hint} is '
                              f'refuted: the search to order {max_search_order} '
                              f'found {found}')
        _search_cache[(s, t)] = value
    return BoundValue(_search_cache[(s, t)], Status.EXACT)


# -- derived quantities ------------------------------------------------


def _over_budget(n: int, t: int, bits: int, table: dict) -> bool:
    """True when R(n, t) would come from the binomial bound and that
    bound, C(t+n-2, n-1) >= (t/k)^k > 2^L with k = n-1 and
    L = k * (bit_length(t) - 1 - bit_length(k)), already has more than
    `bits` bits, so it need not be computed."""
    key = (min(n, t), max(n, t))
    if key[0] < 3 or key in table or key in _search_cache:
        return False
    k = n - 1
    return k * (t.bit_length() - 1 - k.bit_length()) > bits


def _alpha_chain(n: int, h: int, max_digits: int) -> list[BoundValue]:
    """[alpha_{n,1}, ..., alpha_{n,h}], each step from the one before.

    The list ends early, at the first value over the max_digits budget,
    with that value as a not-materialized BoundValue.
    """
    bits = max_digits * 4  # ~digits * log2(10)
    over = BoundValue(None, Status.UPPER_BOUND_ONLY,
                      note=f"exceeds {max_digits}-digit budget")
    table = _load_table()
    chain = [BoundValue(1, Status.EXACT)]
    while len(chain) < h:
        prev = chain[-1]
        t = (n - 1) * prev.value + 1
        if _over_budget(n, t, bits, table):
            chain.append(over)
            break
        r = ramsey(n, t)
        value = r.value - 1
        if value.bit_length() > bits:
            chain.append(over)
            break
        chain.append(BoundValue(value, weakest(prev.status, r.status)))
    return chain


def alpha_value(n: int, h: int, max_digits: int = 100_000) -> BoundValue:
    """alpha_{n,h}: alpha_{n,1}=1, alpha_{n,h}=R(n,(n-1)alpha_{n,h-1}+1)-1."""
    if n < 1 or h < 1:
        raise ValueError("n >= 1 and h >= 1 required")
    return _alpha_chain(n, h, max_digits)[-1]


def _combine(op, *parts: BoundValue, note: str = "") -> BoundValue:
    """op of the parts' values, at the weakest of their statuses; not
    materialized if any part is not."""
    values = [p.value for p in parts]
    if None in values:
        return BoundValue(None, Status.UPPER_BOUND_ONLY,
                          note="component not materialized")
    return BoundValue(op(*values), weakest(*[p.status for p in parts]), note)


def nu_value(n: int) -> BoundValue:
    """nu_n = R(n-1,n) - 1, the slice-size bound of the long branch."""
    if n < 2:
        raise ValueError("n >= 2 required")
    r = ramsey(n - 1, n)
    return BoundValue(r.value - 1, r.status)


def xi_value(n: int, i: int) -> BoundValue:
    """xi_{n,i} = (nu_n^i - 1) / (nu_n - 1)."""
    if n < 3 or i < 1:
        raise ValueError("n >= 3 and i >= 1 required")
    nu = nu_value(n)
    return BoundValue((nu.value ** i - 1) // (nu.value - 1), nu.status)


def _dominating_sum(rnn: BoundValue, chain: list[BoundValue],
                    l0: int) -> BoundValue:
    """R(n,n) * sum_{2<=h<=l0} alpha_{n,h} + 1 from an alpha chain that
    reaches h = l0 or ends over budget before it."""
    alphas = chain[1:l0]
    if alphas and alphas[-1].value is None:  # the chain ended over budget
        return alphas[-1]
    return _combine(lambda r, *a: r * sum(a) + 1, rnn, *alphas)


def dominating_set_bound(n: int, l0: int, max_digits: int = 100_000) -> BoundValue:
    """R(n,n) * sum_{2<=h<=l0} alpha_{n,h} + 1 (dominating-set size bound)."""
    rnn = ramsey(n, n)
    return _dominating_sum(rnn, _alpha_chain(n, l0, max_digits), l0)


class SymbolicConstant(NamedTuple):
    """constant_term + coefficient * c_chi(n), with c_chi unknown.

    The chi-bounding constant for {K_n, F^(1)_n}-free graphs has no
    published closed form, so values that depend on it stay in
    coefficient form until a numeric override is supplied.
    """

    constant_term: BoundValue
    coefficient: BoundValue

    def evaluate(self, c_chi: int) -> BoundValue:
        # an externally supplied c_chi is only an upper bound
        return _combine(lambda a, b, c: a + b * c, self.constant_term,
                        self.coefficient, BoundValue(c_chi, Status.UPPER_BOUND_ONLY),
                        note="c_chi supplied externally")

    def __str__(self):
        return f"{self.constant_term} + {self.coefficient} * c_chi"


def paper_constants(n: int, max_digits: int = 100_000,
                    c_chi: Optional[int] = None) -> dict:
    """All derived constants at parameter n.

    c_1 and c_inspc are symbolic in c_chi(n) unless c_chi is supplied.
    nu, xi, the lead term (n-1)^2 * nu, each alpha and all built on them
    are flagged, not materialized, past 4 * max_digits bits; xi is not
    computed if nu^(n-3) is past it.
    """
    if n < 4:
        raise ValueError("n >= 4 required")
    if max_digits < 1:
        raise ValueError(f"max_digits >= 1 required, got {max_digits}")
    if c_chi is not None and c_chi < 0:
        raise ValueError(f"c_chi >= 0 required, got {c_chi}")
    bits = max_digits * 4
    over = BoundValue(None, Status.UPPER_BOUND_ONLY, note=f"exceeds {max_digits}-digit budget")
    nu, xi = nu_value(n), over
    if (n - 3) * (nu.value.bit_length() - 1) < bits:  # nu^(n-3) <= xi
        if (exact := xi_value(n, n - 2)).value.bit_length() <= bits:
            xi = exact
    # xi and the lead term are at least nu, so both are flagged when nu is
    lead = BoundValue((n - 1) ** 2 * nu.value, nu.status)
    nu, lead = [v if v.value.bit_length() <= bits else over for v in (nu, lead)]
    small, large = n * n - 1, n * n + 2 * n - 1
    rnn = ramsey(n, n)
    chain = _alpha_chain(n, large, max_digits)  # dom_small sums a prefix of it
    dom_small = _dominating_sum(rnn, chain, small)
    dom_large = _dominating_sum(rnn, chain, large)

    zero = BoundValue(0, Status.EXACT)
    c1_small = SymbolicConstant(zero, dom_small)
    c1_large = SymbolicConstant(zero, dom_large)
    c2_small = _combine(lambda d, x: d * x, dom_small, xi)
    c2_large = _combine(lambda d, x: d * x, dom_large, xi)
    c_inspc = SymbolicConstant(
        lead, _combine(lambda a, d, e: a * d + e, lead, dom_small, dom_large))
    c_inspp = _combine(lambda a, c, e: (n - 1) ** 2 + a * c + e,
                       lead, c2_small, c2_large)
    out = {
        "nu": nu,
        "xi": xi,
        "dom_small": dom_small,
        "dom_large": dom_large,
        "c1_small": c1_small,
        "c1_large": c1_large,
        "c2_small": c2_small,
        "c2_large": c2_large,
        "c_inspc": c_inspc,
        "c_inspp": c_inspp,
    }
    if c_chi is not None:
        out["c1_small_eval"] = c1_small.evaluate(c_chi)
        out["c1_large_eval"] = c1_large.evaluate(c_chi)
        out["c_inspc_eval"] = c_inspc.evaluate(c_chi)
    return out
