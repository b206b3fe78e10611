"""Weight-polynomial triangles for distributions with distinguished elements.

``g_poly(n, k, r)`` is the exact polynomial in a and b whose coefficient
of a^i * b^j counts the distributions of n ordinary plus r distinguished
labels into k + r contents-ordered blocks (the r distinguished labels in
distinct blocks) having i elements that are not record lows and j record
lows that are not block minima.  Everything is filled row by row from the
two-term recurrence

    G(n+1, k) = G(n, k-1) + (a*n + b*k + (a+b)*r) * G(n, k)

with G(0, 0) = 1 and G(n, k) = 0 outside 0 <= k <= n.  Specialising
(a, b) to (1, 1), (1, 0) and (0, 1) yields the r-Lah, r-Stirling cycle
and r-Stirling subset numbers respectively.

r is always a concrete nonnegative integer parameter, never a variable;
each r owns its own triangle.  The module-level ``DEFAULT`` store holds
them, and every reader goes through it unless handed a store of its own.
"""

from __future__ import annotations

from math import comb
from typing import Callable

from .poly import A, B, ONE, T, X, ZERO, Polynomial


class LahTriangle:
    """Cells G(n, k) for one fixed distinguished count r, filled on demand.

    A triangle is filled by its owner and extended rows are never
    mutated, so completed triangles can be shared across readers.
    """

    def __init__(self, r: int) -> None:
        if r < 0:
            raise ValueError("r must be nonnegative")
        self.r = r
        self._rows: list[dict[int, Polynomial]] = [{0: ONE}]
        self._r_term = (A + B) * r

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def poly(self, n: int, k: int) -> Polynomial:
        """The cell polynomial; zero for out-of-range (n, k)."""
        if n < 0 or k < 0 or k > n:
            return ZERO
        while self.max_n < n:
            self._extend()
        return self._rows[n].get(k, ZERO)

    def _extend(self) -> None:
        n = self.max_n
        prev = self._rows[n]
        nxt: dict[int, Polynomial] = {}
        for k in range(n + 2):
            cell = prev.get(k - 1, ZERO) + (A * n + B * k + self._r_term) * prev.get(k, ZERO)
            if cell:
                nxt[k] = cell
        self._rows.append(nxt)


class TriangleStore:
    """The triangles every reader shares, one LahTriangle per r.

    ``corrupt_cell`` adds a constant offset to a single cell at read time,
    which is how the fault-injection tests prove that a check, the oracle
    or a closed form actually reads the cell.  The swapped-weight,
    t-weighted and negated-t readings used by the orthogonality checks
    are derived from the plain cells by variable substitution (a ring
    homomorphism commutes with the recurrence), so a corrupted cell
    poisons every derived reading consistently.

    Every value computed from the cells -- those readings, the integer
    specialisations and the row sums -- is memoised in one map keyed by
    its kind, which ``corrupt_cell`` clears.
    """

    def __init__(self) -> None:
        self._triangles: dict[int, LahTriangle] = {}
        self._offsets: dict[tuple[int, int, int], int] = {}
        self._derived: dict[tuple, Polynomial | int] = {}

    def corrupt_cell(self, r: int, n: int, k: int, delta: int = 1) -> None:
        """Offset cell (n, k) of triangle r by delta at read time."""
        key = (r, n, k)
        self._offsets[key] = self._offsets.get(key, 0) + delta
        self._derived.clear()

    def g(self, n: int, k: int, r: int) -> Polynomial:
        """Weight polynomial G(n, k; r); zero when k > n or k < 0."""
        tri = self._triangles.get(r)
        if tri is None:
            tri = self._triangles[r] = LahTriangle(r)
        cell = tri.poly(n, k)
        delta = self._offsets.get((r, n, k))
        if delta:
            cell = cell + delta
        return cell

    def _memo(self, key: tuple, compute: Callable[[], Polynomial | int]) -> Polynomial | int:
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = compute()
        return value

    def _derived_cell(self, kind: str, n: int, k: int, r: int,
                      transform: Callable[[Polynomial], Polynomial]) -> Polynomial:
        return self._memo((kind, n, k, r), lambda: transform(self.g(n, k, r)))

    def g_swapped(self, n: int, k: int, r: int) -> Polynomial:
        """Weights read in the order (b, a)."""
        return self._derived_cell("ba", n, k, r, lambda p: p.swap_ab())

    def g_second_t(self, n: int, k: int, r: int) -> Polynomial:
        """Weights (a, t): the b slot carries the free variable t."""
        return self._derived_cell("at", n, k, r, lambda p: p.substitute(b=T))

    def g_neg_t(self, n: int, k: int, r: int) -> Polynomial:
        """Weights (-t, b): the a slot carries -t, coefficients go signed."""
        return self._derived_cell("nb", n, k, r, lambda p: p.substitute(a=-T))

    def g_int(self, n: int, k: int, r: int, a_val: int, b_val: int) -> int:
        """G(n, k; r) evaluated at integer weights (a, b)."""
        return self._memo(("int", n, k, r, a_val, b_val),
                          lambda: self.g(n, k, r).eval(a=a_val, b=b_val).as_int())

    def row_sum(self, n: int, r: int) -> Polynomial:
        """Sum of row n over all block counts k."""
        return self._memo(("row", n, r),
                          lambda: sum((self.g(n, k, r) for k in range(n + 1)), ZERO))

    def row_sum_marked(self, n: int, r: int) -> Polynomial:
        """Row sum with x marking the number of non-distinguished blocks."""
        return self._memo(("marked", n, r),
                          lambda: sum((self.g(n, k, r) * X ** k for k in range(n + 1)), ZERO))


#: The store that every reader without an explicit store of its own uses;
#: replacing it (or corrupting one of its cells) reaches every path.
DEFAULT = TriangleStore()


def g_poly(n: int, k: int, r: int) -> Polynomial:
    """Weight polynomial G(n, k; r); zero when k > n or k < 0."""
    return DEFAULT.g(n, k, r)


def g_eval(n: int, k: int, r: int, a_val: int, b_val: int) -> int:
    """G(n, k; r) evaluated at integer weights (a, b)."""
    return DEFAULT.g_int(n, k, r, a_val, b_val)


def r_lah(n: int, k: int, r: int) -> int:
    """Count of r-distinguished distributions into contents-ordered blocks."""
    return g_eval(n, k, r, 1, 1)


def r_stirling_cycle(n: int, k: int, r: int) -> int:
    """Count with the smallest element first within each block (cycle type)."""
    return g_eval(n, k, r, 1, 0)


def r_stirling_subset(n: int, k: int, r: int) -> int:
    """Count of plain set partitions with r distinguished elements."""
    return g_eval(n, k, r, 0, 1)


def row_sum_poly(n: int, r: int) -> Polynomial:
    """Sum of row n over all block counts k."""
    return DEFAULT.row_sum(n, r)


def row_sum_marked(n: int, r: int) -> Polynomial:
    """Row sum with x marking the number of non-distinguished blocks."""
    return DEFAULT.row_sum_marked(n, r)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    return comb(n, k) if 0 <= k <= n else 0


def rising_factorial(base: int, count: int) -> int:
    """base * (base+1) * ... * (base+count-1); empty product is 1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    acc = 1
    for i in range(count):
        acc *= base + i
    return acc


def falling_factorial(base: int, count: int) -> int:
    """base * (base-1) * ... * (base-count+1); empty product is 1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    acc = 1
    for i in range(count):
        acc *= base - i
    return acc
