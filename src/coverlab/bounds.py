"""Ramsey numbers and derived size constants, with explicit exactness status."""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class Status(Enum):
    EXACT = "exact"
    TABLE_EXACT = "table_exact"
    UPPER_BOUND_ONLY = "upper_bound_only"


_STATUS_RANK = {Status.EXACT: 0, Status.TABLE_EXACT: 1, Status.UPPER_BOUND_ONLY: 2}


def weakest(*statuses: Status) -> Status:
    return max(statuses, key=_STATUS_RANK.__getitem__)


@dataclass(frozen=True)
class BoundValue:
    """A non-negative integer with provenance.

    value is None when the number is well-defined but too large to
    materialize (see note); such values always carry UPPER_BOUND_ONLY.
    """

    value: Optional[int]
    status: Status
    note: str = ""
    witness: Optional[dict] = None

    def __str__(self):
        v = "<not materialized>" if self.value is None else str(self.value)
        suffix = f" ({self.note})" if self.note else ""
        return f"{v} [{self.status.value}]{suffix}"


# Published exact Ramsey values (small-case table); key (s,t) with s <= t.
DEFAULT_TABLE = {
    (3, 3): 6, (3, 4): 9, (3, 5): 14, (3, 6): 18, (3, 7): 23,
    (3, 8): 28, (3, 9): 36, (4, 4): 18, (4, 5): 25,
}

TABLE_ENV_VAR = "COVERLAB_TABLE_PATH"


def _load_table() -> dict[tuple[int, int], int]:
    path = os.environ.get(TABLE_ENV_VAR)
    if not path:
        return dict(DEFAULT_TABLE)
    with open(path) as fh:
        raw = json.load(fh)
    table = {}
    for key, value in raw.items():
        s, t = (int(x) for x in key.split(","))
        table[(min(s, t), max(s, t))] = int(value)
    return table


# -- exhaustive search -------------------------------------------------


def _has_clique_in(rows: list[int], within: int, size: int) -> bool:
    """True iff the graph restricted to `within` has a clique of `size`."""
    if size == 0:
        return True
    if within.bit_count() < size:
        return False
    m = within
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if _has_clique_in(rows, rows[v] & m, size - 1):
            return True
    return False


def _has_independent_in(rows: list[int], full: int, within: int, size: int) -> bool:
    if size == 0:
        return True
    if within.bit_count() < size:
        return False
    m = within
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if _has_independent_in(rows, full, m & ~rows[v], size - 1):
            return True
    return False


class SearchBudgetExceeded(Exception):
    pass


def _good_graph_exists(s: int, t: int, order: int,
                       deadline: Optional[float]) -> Optional[list[int]]:
    """Search for a graph on `order` vertices with no K_s and no I_t.

    Returns adjacency rows of a witness, or None after exhausting the
    space.  Adjacent-transposition canonicity prunes relabellings of the
    last two vertices.
    """
    rows = [0] * order
    lower = [0] * order  # row restricted to earlier vertices

    def feasible(k: int, mask: int) -> bool:
        # vertex k with neighbors `mask` among 0..k-1
        if _has_clique_in(rows, mask, s - 1):
            return False
        prev = (1 << k) - 1
        if _has_independent_in(rows, prev, prev & ~mask, t - 1):
            return False
        return True

    def extend(k: int) -> Optional[list[int]]:
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetExceeded()
        if k == order:
            return list(rows)
        for mask in range(1 << k):
            if k >= 2:
                # canonicity: swapping vertices k-1 and k must not
                # lower the lexicographic lower-row code
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


def ramsey_exact_search(s: int, t: int, max_order: int = 9,
                        time_budget: Optional[float] = None) -> int:
    """R(s,t) by exhaustive search: least N with no (K_s, I_t)-avoiding graph.

    Raises SearchBudgetExceeded if the answer exceeds max_order or the
    time budget runs out.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    for order in range(1, max_order + 2):
        if order > max_order:
            raise SearchBudgetExceeded(f"R({s},{t}) > {max_order}")
        if _good_graph_exists(s, t, order, deadline) is None:
            return order
    raise SearchBudgetExceeded()


_search_cache: dict[tuple[int, int], int] = {}


def binomial_bound(s: int, t: int) -> int:
    return math.comb(s + t - 2, s - 1)


def ramsey(s: int, t: int, max_search_order: int = 6,
           time_budget: Optional[float] = None) -> BoundValue:
    """R(s,t) with the strongest status obtainable within the search budget.

    Trivial identities and completed searches give EXACT; the embedded
    table gives TABLE_EXACT; otherwise the binomial bound applies.
    Raising max_search_order (e.g. to 9) lets R(3,4) be re-derived by
    exhaustive search.
    """
    if s < 1 or t < 1:
        raise ValueError("Ramsey arguments must be positive")
    s, t = min(s, t), max(s, t)
    if s == 1:
        return BoundValue(1, Status.EXACT, note="R(1,t)=1")
    if s == 2:
        return BoundValue(t, Status.EXACT, note="R(2,t)=t")
    if (s, t) in _search_cache:
        v = _search_cache[(s, t)]
        return BoundValue(v, Status.EXACT,
                          witness={"method": "exhaustive", "order": v})
    table = _load_table()
    hint = table.get((s, t))
    if hint is not None and hint <= max_search_order:
        try:
            v = ramsey_exact_search(s, t, max_order=max_search_order,
                                    time_budget=time_budget)
        except SearchBudgetExceeded:
            return BoundValue(hint, Status.TABLE_EXACT,
                              note="search budget exceeded; table value")
        _search_cache[(s, t)] = v
        return BoundValue(v, Status.EXACT,
                          witness={"method": "exhaustive", "order": v})
    if hint is not None:
        return BoundValue(hint, Status.TABLE_EXACT)
    return BoundValue(binomial_bound(s, t), Status.UPPER_BOUND_ONLY,
                      note="binomial bound")


# -- derived quantities ------------------------------------------------


def alpha_value(n: int, h: int, max_digits: int = 100_000) -> BoundValue:
    """alpha_{n,h}: alpha_{n,1}=1, alpha_{n,h}=R(n,(n-1)alpha_{n,h-1}+1)-1."""
    if n < 1 or h < 1:
        raise ValueError("n >= 1 and h >= 1 required")
    value = 1
    status = Status.EXACT
    for _ in range(h - 1):
        r = ramsey(n, (n - 1) * value + 1)
        status = weakest(status, r.status)
        value = r.value - 1
        if value.bit_length() > max_digits * 4:  # ~digits * log2(10)
            return BoundValue(None, Status.UPPER_BOUND_ONLY,
                              note=f"exceeds {max_digits}-digit budget")
    return BoundValue(value, status)


def xi_value(n: int, i: int) -> BoundValue:
    """xi_{n,i} = ((R(n-1,n)-1)^i - 1) / (R(n-1,n)-2)."""
    if n < 3 or i < 1:
        raise ValueError("n >= 3 and i >= 1 required")
    r = ramsey(n - 1, n)
    nu = r.value - 1
    value = (nu ** i - 1) // (nu - 1)
    return BoundValue(value, r.status)


def dominating_set_bound(n: int, l0: int, max_digits: int = 100_000) -> BoundValue:
    """R(n,n) * sum_{2<=h<=l0} alpha_{n,h} + 1 (dominating-set size bound)."""
    rnn = ramsey(n, n)
    status = rnn.status
    total = 0
    for h in range(2, l0 + 1):
        a = alpha_value(n, h, max_digits=max_digits)
        if a.value is None:
            return BoundValue(None, Status.UPPER_BOUND_ONLY, note=a.note)
        status = weakest(status, a.status)
        total += a.value
    return BoundValue(rnn.value * total + 1, status)


@dataclass(frozen=True)
class SymbolicConstant:
    """constant_term + coefficient * c_chi(n), with c_chi unknown.

    The chi-bounding constant for {K_n, F^(1)_n}-free graphs has no
    published closed form, so values that depend on it stay in
    coefficient form until a numeric override is supplied.
    """

    constant_term: BoundValue
    coefficient: BoundValue
    symbol: str = "c_chi"

    def evaluate(self, c_chi: int) -> BoundValue:
        if self.constant_term.value is None or self.coefficient.value is None:
            return BoundValue(None, Status.UPPER_BOUND_ONLY,
                              note="component not materialized")
        return BoundValue(self.constant_term.value + self.coefficient.value * c_chi,
                          weakest(self.constant_term.status, self.coefficient.status,
                                  Status.UPPER_BOUND_ONLY),
                          note="c_chi supplied externally")

    def __str__(self):
        return f"{self.constant_term} + {self.coefficient} * {self.symbol}"


def paper_constants(n: int, max_digits: int = 100_000,
                    c_chi: Optional[int] = None) -> dict:
    """All derived constants at parameter n.

    c_1 and c_inspc are symbolic in c_chi(n) unless c_chi is supplied;
    components whose digit count exceeds max_digits are flagged rather
    than materialized.
    """
    if n < 4:
        raise ValueError("n >= 4 required")
    r = ramsey(n - 1, n)
    nu = BoundValue(r.value - 1, r.status)
    xi = xi_value(n, n - 2)
    small, large = n * n - 1, n * n + 2 * n - 1
    dom_small = dominating_set_bound(n, small, max_digits)
    dom_large = dominating_set_bound(n, large, max_digits)

    def times(a: BoundValue, b: BoundValue) -> BoundValue:
        if a.value is None or b.value is None:
            return BoundValue(None, Status.UPPER_BOUND_ONLY,
                              note="component not materialized")
        return BoundValue(a.value * b.value, weakest(a.status, b.status))

    def plus(a: BoundValue, b: BoundValue) -> BoundValue:
        if a.value is None or b.value is None:
            return BoundValue(None, Status.UPPER_BOUND_ONLY,
                              note="component not materialized")
        return BoundValue(a.value + b.value, weakest(a.status, b.status))

    zero = BoundValue(0, Status.EXACT)
    c1_small = SymbolicConstant(zero, dom_small)
    c1_large = SymbolicConstant(zero, dom_large)
    c2_small = times(dom_small, xi)
    c2_large = times(dom_large, xi)
    lead = BoundValue((n - 1) ** 2 * nu.value, nu.status)
    c_inspc = SymbolicConstant(
        lead, plus(times(lead, dom_small), dom_large))
    c_inspp = plus(BoundValue((n - 1) ** 2, Status.EXACT),
                   plus(times(lead, c2_small), c2_large))
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
