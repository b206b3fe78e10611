"""Exact verification of the triangle identities.

Every check expands both sides of one identity instance as canonical
polynomials (or exact integers) and compares them structurally; there is
no tolerance anywhere.  Checks raise :class:`InvalidParameters` when a
stated precondition fails, and :func:`sweep_detailed` skips such tuples;
both read the precondition from the one ``IDENTITIES`` table.

Every check reads its cells from ``lah_core.DEFAULT``, the one triangle
store, looked up at call time: to check against another store (one with
a corrupted cell, say), install it as ``DEFAULT``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from . import lah_core
from .lah_core import TriangleStore as Checker
from .lah_core import binomial, falling_factorial, rising_factorial
from .poly import A, B, ONE, X, ZERO, Polynomial, ab_range_product, range_product, sum_of_products

SLOTS = "nkmrs"


def _nonnegative(*values: int) -> bool:
    return min(values) >= 0


def _cell(n: int, k: int, *rest: int) -> bool:
    """(n, k) lies in the triangle and every further argument is nonnegative."""
    return 0 <= k <= n and _nonnegative(*rest)


#: One entry per identity: the (n, k, m, r, s) slots its check takes, in
#: the check's argument order; the precondition over those arguments; and
#: the name of the check_* function.  A check validates its arguments
#: against its entry, and the sweep skips the tuples the precondition
#: rejects.  The sweep looks the function up by name at call time, so a
#: replaced module global is what runs.
IDENTITIES: dict[str, tuple[str, Callable[..., bool], str]] = {
    "CONNECTION": ("nr", _nonnegative, "check_connection"),
    "VERTICAL": ("nkr", lambda n, k, r: 1 <= k <= n and r >= 0, "check_vertical"),
    "HORIZONTAL": ("nkr", lambda n, k, r: 0 <= k < n and r >= 0, "check_horizontal"),
    "SHIFT": ("nkrs", _cell, "check_shift"),
    "CONVOLUTION": ("nkmrs", lambda n, k, m, r, s: 0 <= k <= n - m and _nonnegative(m, r, s),
                    "check_convolution"),
    "SPLITTING": ("nmkr", _nonnegative, "check_splitting"),
    "ROWSUM_SHIFT": ("nrs", _nonnegative, "check_rowsum_shift"),
    "ROWSUM_SPLIT": ("nmr", _nonnegative, "check_rowsum_split"),
    "ROWSUM_DECOMP": ("nr", _nonnegative, "check_rowsum_decomp"),
    "ROWSUM_REC": ("nr", _nonnegative, "check_rowsum_rec"),
    "MARKED_REC": ("nr", _nonnegative, "check_marked_rec"),
    "RLAH_I": ("nkrs", lambda n, k, r, s: _cell(n, k, r, s) and r >= s, "check_rlah_i"),
    "RLAH_I_NEG": ("nkrs", lambda n, k, r, s: _cell(n, k, r, s) and r < s, "check_rlah_i"),
    "RLAH_II": ("nkrs", lambda n, k, r, s: _cell(n, k, r, s) and 2 * r >= s, "check_rlah_ii"),
    "RLAH_III": ("nkrs", lambda n, k, r, s: _cell(n, k, r, s) and 2 * s >= r,
                 "check_rlah_iii"),
    "RLAH_IV": ("nkrs", lambda n, k, r, s: _cell(n, k, r, s) and (r - s) % 2 == 0,
                "check_rlah_iv"),
    "ORTH": ("nkr", _cell, "check_orth"),
    "TRIPLE": ("nkr", _cell, "check_triple"),
    # the s slot of an INVERSION report carries the PRNG seed, which may be any integer
    "INVERSION": ("nrs", lambda n, r, seed: _nonnegative(n, r), "check_inversion"),
}

IDENTITY_IDS = tuple(IDENTITIES)

#: The largest triangle row and level a check reads, from its named slots:
#: (n, r) unless listed here.  No entry decreases in any slot, so a sweep
#: reads its largest at the largest value of each range.  INVERSION's s is a
#: seed, not a level.
REACH: dict[str, Callable[..., tuple[int, int]]] = {
    **dict.fromkeys(("SHIFT", "CONVOLUTION", "ROWSUM_SHIFT"), lambda n, r, s, **_: (n, r + s)),
    **dict.fromkeys(("SPLITTING", "ROWSUM_SPLIT"), lambda n, m, r, **_: (n + m, r)),
    **dict.fromkeys(("ROWSUM_REC", "MARKED_REC"), lambda n, r: (n + 1, r)),
    **dict.fromkeys(("RLAH_I", "RLAH_I_NEG", "RLAH_IV"), lambda n, k, r, s: (n, max(r, s))),
    "RLAH_II": lambda n, k, r, s: (n, max(2 * r, s)),
    "RLAH_III": lambda n, k, r, s: (n, max(r, 2 * s)),
}

#: Each identity's report params, picked from its check's arguments with a
#: None appended: a slot the identity does not take picks that None (index -1).
_SLOTS_OF = {ident: itemgetter(*(fields.find(slot) for slot in SLOTS))
             for ident, (fields, _, _) in IDENTITIES.items()}

#: (a, b) instantiations exercised by the sequence-inversion round trip.
INVERSION_WEIGHTS = ((1, 1), (2, 3), (0, 1))


class InvalidParameters(ValueError):
    """A check was invoked outside its stated parameter domain."""


def format_params(params) -> str:
    """``n=.. k=..`` for the slots a report or skipped tuple uses."""
    return " ".join(f"{name}={value}" for name, value in zip(SLOTS, params)
                    if value is not None)


@dataclass(frozen=True, slots=True)
class CheckReport:
    """Machine-readable verdict for one identity instance."""

    identity_id: str
    params: tuple[int | None, int | None, int | None, int | None, int | None]
    passed: bool
    lhs: Polynomial | None = None
    rhs: Polynomial | None = None

    def line(self) -> str:
        return (f"{self.identity_id} {format_params(self.params)} "
                f"{'PASS' if self.passed else 'FAIL'}")


def _params(identity_id: str, *values: int) -> tuple:
    """The report params of one call, which must meet the identity's precondition."""
    precondition = IDENTITIES[identity_id][1]
    params = _SLOTS_OF[identity_id]((*values, None))
    if not precondition(*values):
        raise InvalidParameters(f"{identity_id} does not apply at {format_params(params)}")
    return params


def _report(identity_id: str, params, lhs: Polynomial, rhs: Polynomial) -> CheckReport:
    passed = lhs == rhs
    return CheckReport(identity_id, params, passed,
                       None if passed else lhs, None if passed else rhs)


# ----------------------------------------------------------------------
# row and column identities


def check_connection(n: int, r: int) -> CheckReport:
    """prod_{i<n}(x + (a+b)r + a*i) expanded in the basis prod_{i<k}(x - b*i)."""
    params = _params("CONNECTION", n, r)
    c = lah_core.DEFAULT
    lhs = range_product(X + (A + B) * r, A, n)
    rhs = sum_of_products((1, c.g(n, k, r), range_product(X, -B, k)) for k in range(n + 1))
    return _report("CONNECTION", params, lhs, rhs)


def check_vertical(n: int, k: int, r: int) -> CheckReport:
    """Column recurrence: condition on the smallest element of the right-most block."""
    params = _params("VERTICAL", n, k, r)
    c = lah_core.DEFAULT
    rhs = sum_of_products((1, c.g(i - 1, k - 1, r),
                           ab_range_product(i + r, k + r, n - i))
                          for i in range(k, n + 1))
    return _report("VERTICAL", params, c.g(n, k, r), rhs)


def check_horizontal(n: int, k: int, r: int) -> CheckReport:
    """Row recurrence: condition on the largest element not alone in a block."""
    params = _params("HORIZONTAL", n, k, r)
    c = lah_core.DEFAULT
    rhs = sum_of_products((1, A * (n + r - i - 1) + B * (k + r - i), c.g(n - i - 1, k - i, r))
                          for i in range(k + 1))
    return _report("HORIZONTAL", params, c.g(n, k, r), rhs)


def _binomial_tail(n: int, cell: Callable[[int], Polynomial], p: int, q: int,
                   extra: int = 0) -> Polynomial:
    """sum_i C(n,i) cell(i) prod_{l<n-i+extra}(a(p+l) + b*q), skipping zero cells."""
    return sum_of_products((binomial(n, i), value, ab_range_product(p, q, n - i + extra))
                           for i in range(n + 1) if (value := cell(i)))


def check_shift(n: int, k: int, r: int, s: int) -> CheckReport:
    """Shift the distinguished count: G(n,k;r+s) as a binomial sum over G(.,k;r)."""
    params = _params("SHIFT", n, k, r, s)
    c = lah_core.DEFAULT
    rhs = _binomial_tail(n, lambda i: c.g(i, k, r), s, s)
    return _report("SHIFT", params, c.g(n, k, r + s), rhs)


def check_convolution(n: int, k: int, m: int, r: int, s: int) -> CheckReport:
    """C(k+m,k) G(n,k+m;r+s) as a Vandermonde-style convolution of two triangles."""
    params = _params("CONVOLUTION", n, k, m, r, s)
    c = lah_core.DEFAULT
    lhs = binomial(k + m, k) * c.g(n, k + m, r + s)
    rhs = sum_of_products((binomial(n, i), c.g(i, k, r), c.g(n - i, m, s))
                          for i in range(k, n - m + 1))
    return _report("CONVOLUTION", params, lhs, rhs)


def _split_sum(c: Checker, n: int, m: int, r: int, tail_key: Callable[[int], tuple],
               inner_cell: Callable[[int, int], Polynomial]) -> Polynomial:
    """sum_{i,j} C(n,i) G(m,j;r) inner_cell(i,j) prod_{l<n-i}(a(m+r+l) + b(j+r)),
    summed over i inside each j: the outer cell does not depend on i.  That
    inner sum is fixed by ``tail_key(j)``, m + r and j + r, so the store
    memoises it under those ints: other (m, r, j) reach the same tail."""
    return sum_of_products(
        (1, outer, c._memo((*tail_key(j), m + r, j + r), lambda: _binomial_tail(
            n, lambda i: inner_cell(i, j), m + r, j + r)))
        for j in range(m + 1) if (outer := c.g(m, j, r)))


def check_splitting(n: int, m: int, k: int, r: int) -> CheckReport:
    """G(n+m,k;r) split by how many of the top n elements join the bottom m+r."""
    params = _params("SPLITTING", n, m, k, r)
    c = lah_core.DEFAULT
    rhs = _split_sum(c, n, m, r, lambda j: ("split", n, k - j), lambda i, j: c.g(i, k - j, 0))
    return _report("SPLITTING", params, c.g(n + m, k, r), rhs)


def check_rowsum_shift(n: int, r: int, s: int) -> CheckReport:
    params = _params("ROWSUM_SHIFT", n, r, s)
    c = lah_core.DEFAULT
    rhs = _binomial_tail(n, lambda i: c.row_sum(i, r), s, s)
    return _report("ROWSUM_SHIFT", params, c.row_sum(n, r + s), rhs)


def check_rowsum_split(n: int, m: int, r: int) -> CheckReport:
    params = _params("ROWSUM_SPLIT", n, m, r)
    c = lah_core.DEFAULT
    rhs = _split_sum(c, n, m, r, lambda j: ("rowsplit", n), lambda i, j: c.row_sum(i, 0))
    return _report("ROWSUM_SPLIT", params, c.row_sum(n + m, r), rhs)


def check_rowsum_decomp(n: int, r: int) -> CheckReport:
    """Row sum split by the number of elements living in distinguished blocks:
    ROWSUM_SHIFT's right side at r = 0, s = r."""
    params = _params("ROWSUM_DECOMP", n, r)
    c = lah_core.DEFAULT
    rhs = _binomial_tail(n, lambda i: c.row_sum(i, 0), r, r)
    return _report("ROWSUM_DECOMP", params, c.row_sum(n, r), rhs)


def _row_recurrence(n: int, r: int, row: Callable[[int, int], Polynomial],
                    mark: Polynomial | int) -> Polynomial:
    """Row n+1 by whether the new largest element joins a distinguished block
    (r choices, empty at r = 0) or not (marked by ``mark``)."""
    rhs = mark * _binomial_tail(n, lambda i: row(i, r), 1, 1)
    if r >= 1:
        rhs = rhs + r * _binomial_tail(n, lambda i: row(i, r - 1), 1, 1, 1)
    return rhs


def check_rowsum_rec(n: int, r: int) -> CheckReport:
    """Row-sum recurrence by whether the new largest element joins a
    distinguished block."""
    params = _params("ROWSUM_REC", n, r)
    c = lah_core.DEFAULT
    rhs = _row_recurrence(n, r, c.row_sum, 1)
    return _report("ROWSUM_REC", params, c.row_sum(n + 1, r), rhs)


def check_marked_rec(n: int, r: int) -> CheckReport:
    """The row-sum recurrence with x marking non-distinguished blocks."""
    params = _params("MARKED_REC", n, r)
    c = lah_core.DEFAULT
    rhs = _row_recurrence(n, r, c.row_sum_marked, X)
    return _report("MARKED_REC", params, c.row_sum_marked(n + 1, r), rhs)


# ----------------------------------------------------------------------
# alternating-sum identities for the specialised numbers (a = b = 1 level)


#: One entry per alternating identity sum_j sign * G(n,j;r)|w1 * G(j,k;s)|w2 = closed:
#: the integer weights (a, b) of the two factors, the sign of the j-th term
#: as a function of (n, j, k), and the closed side as a function of
#: (n, k, r, s).  The proof constructions of :mod:`rlah.bijections`
#: derive their pair families, signs and survivor counts from these entries.
ALTERNATING: dict[str, tuple[tuple[int, int], tuple[int, int], Callable, Callable]] = {
    "RLAH_I": ((1, 1), (1, 1), lambda n, j, k: (-1) ** (j - k),
               lambda n, k, r, s: binomial(n, k) * rising_factorial(2 * (r - s), n - k)),
    "RLAH_I_NEG": ((1, 1), (1, 1), lambda n, j, k: (-1) ** (n - j),
                   lambda n, k, r, s: binomial(n, k) * falling_factorial(2 * (s - r), n - k)),
    "RLAH_II": ((1, 1), (1, 0), lambda n, j, k: (-1) ** (j - k),
                lambda n, k, r, s: lah_core.DEFAULT.g_int(n, k, 2 * r - s, 1, 0)),
    "RLAH_III": ((0, 1), (1, 1), lambda n, j, k: (-1) ** (n - j),
                 lambda n, k, r, s: lah_core.DEFAULT.g_int(n, k, 2 * s - r, 0, 1)),
    "RLAH_IV": ((1, 0), (0, 1), lambda n, j, k: 1,
                lambda n, k, r, s: lah_core.DEFAULT.g_int(n, k, (r + s) // 2, 1, 1)),
}


def _alternating(identity_id: str, n: int, k: int, r: int, s: int) -> CheckReport:
    params = _params(identity_id, n, k, r, s)
    c = lah_core.DEFAULT
    first, second, sign, closed = ALTERNATING[identity_id]
    lhs = closed(n, k, r, s)
    rhs = 0
    for j in range(k, n + 1):
        rhs += sign(n, j, k) * c.g_int(n, j, r, *first) * c.g_int(j, k, s, *second)
    return _report(identity_id, params, Polynomial.constant(lhs), Polynomial.constant(rhs))


def check_rlah_i(n: int, k: int, r: int, s: int) -> CheckReport:
    """Alternating double-Lah sum against the rising/falling factorial form."""
    return _alternating("RLAH_I" if r >= s else "RLAH_I_NEG", n, k, r, s)


def check_rlah_ii(n: int, k: int, r: int, s: int) -> CheckReport:
    """Lah-by-cycle alternating sum collapsing to the 2r-s cycle numbers."""
    return _alternating("RLAH_II", n, k, r, s)


def check_rlah_iii(n: int, k: int, r: int, s: int) -> CheckReport:
    """Subset-by-Lah alternating sum collapsing to the 2s-r subset numbers."""
    return _alternating("RLAH_III", n, k, r, s)


def check_rlah_iv(n: int, k: int, r: int, s: int) -> CheckReport:
    """Cycle-subset convolution equal to the Lah numbers at the average level."""
    return _alternating("RLAH_IV", n, k, r, s)


# ----------------------------------------------------------------------
# orthogonality


def check_orth(n: int, k: int, r: int) -> CheckReport:
    """Alternating product with the second factor read in swapped weight
    order (b, a) telescopes to the Kronecker delta."""
    params = _params("ORTH", n, k, r)
    c = lah_core.DEFAULT
    lhs = ONE if n == k else ZERO
    rhs = sum_of_products(((-1) ** (j - k), c.g(n, j, r), c.g_swapped(j, k, r))
                          for j in range(k, n + 1))
    return _report("ORTH", params, lhs, rhs)


def check_triple(n: int, k: int, r: int) -> CheckReport:
    """Factoring through a free parameter t: G_{a,t} convolved with G_{-t,b}."""
    params = _params("TRIPLE", n, k, r)
    c = lah_core.DEFAULT
    rhs = sum_of_products((1, c.g_second_t(n, j, r), c.g_neg_t(j, k, r)) for j in range(k, n + 1))
    return _report("TRIPLE", params, c.g(n, k, r), rhs)


def check_inversion(n_max: int, r: int, seed: int) -> CheckReport:
    """Binomial-transform-style sequence inversion round trip.

    A pseudo-random integer sequence is pushed through the triangle and
    recovered through the alternating swapped-weight triangle; both
    directions are checked at each weight pair in INVERSION_WEIGHTS.  A
    failure reports the sequence and the round trip at the first index
    where they differ.
    """
    params = _params("INVERSION", n_max, r, seed)
    c = lah_core.DEFAULT
    rng = random.Random(seed)
    seq = [rng.randint(-99, 99) for _ in range(n_max + 1)]
    for a_val, b_val in INVERSION_WEIGHTS:
        forward = [[c.g_int(n, k, r, a_val, b_val) for k in range(n + 1)]
                   for n in range(n_max + 1)]
        backward = [[(-1) ** (n - k) * c.g_int(n, k, r, b_val, a_val) for k in range(n + 1)]
                    for n in range(n_max + 1)]

        def apply(matrix, vec):
            return [sum(matrix[n][k] * vec[k] for k in range(n + 1))
                    for n in range(n_max + 1)]

        for back in (apply(backward, apply(forward, seq)), apply(forward, apply(backward, seq))):
            if back != seq:
                i = next(i for i, (x, y) in enumerate(zip(seq, back)) if x != y)
                return CheckReport("INVERSION", params, False,
                                   Polynomial.constant(seq[i]), Polynomial.constant(back[i]))
    return CheckReport("INVERSION", params, True)


# ----------------------------------------------------------------------
# sweeping


def reach(ids: Iterable[str], ranges: Mapping[str, Sequence[int]]) -> tuple[int, int]:
    """The largest row and level a sweep of ``ids`` over ``ranges`` (keyed
    by slot) reads, found without reading a cell; -1 where it reads none."""
    row = level = -1
    for ident in set(ids):
        spans = {slot: ranges[slot] for slot in IDENTITIES[ident][0]}
        if all(spans.values()):
            top = {slot: max(span) for slot, span in spans.items()}
            top_row, top_level = REACH.get(ident, lambda n, r, **_: (n, r))(**top)
            row, level = max(row, top_row), max(level, top_level)
    return row, level


def sweep_detailed(ids: Sequence[str], *, n: Iterable[int] = (0,),
                   k: Iterable[int] = (0,), m: Iterable[int] = (0,),
                   r: Iterable[int] = (0,), s: Iterable[int] = (0,)):
    """Run the selected checks over Cartesian ranges, one after another in
    this process.

    Returns (reports, skipped) where skipped lists the precondition-violating
    tuples as (identity_id, params).  Both come out in canonical
    (identity_id, params) order as they are made: ids sorted, each range's
    distinct values walked in order, slot by slot in SLOTS order.  A tuple
    given more than once (by a repeated id or range value) is checked once
    and its entry repeated in place.  Checks read ``lah_core.DEFAULT`` and
    are looked up by name when the sweep starts, and INVERSION's PRNG seed
    comes from ``s``.
    """
    unknown = [i for i in ids if i not in IDENTITIES]
    if unknown:
        raise InvalidParameters(f"unknown identity ids: {unknown}")
    # each slot's distinct values in order, with how often each was given
    spans = {slot: sorted(Counter(span).items()) for slot, span in zip(SLOTS, (n, k, m, r, s))}
    reports: list[CheckReport] = []
    skipped: list[tuple[str, tuple]] = []
    for ident in sorted(set(ids)):
        fields, precondition, check = IDENTITIES[ident]
        check, copies = globals()[check], ids.count(ident)
        values_of = itemgetter(*map(SLOTS.index, fields))
        for picks in product(*(spans[slot] if slot in fields else [(None, 1)] for slot in SLOTS)):
            params, repeats = zip(*picks)
            values, times = values_of(params), copies * prod(repeats)
            if precondition(*values):
                reports += [check(*values)] * times
            else:
                skipped += [(ident, params)] * times
    return reports, skipped
