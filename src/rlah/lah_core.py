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
each r owns its own triangle, its cells filled as dense a/b coefficient
vectors (see ``LahTriangle``).  Evaluation is a ring homomorphism, so the
scalar recurrence run over int weights fills each specialisation's
integer triangle directly.  The module-level ``DEFAULT`` store holds them.
"""

from __future__ import annotations

from collections.abc import Callable
from math import comb

from .poly import ONE, T, X, ZERO, Polynomial, range_product, sum_of_products

#: Largest n+r that enumeration accepts by default; beyond this the object
#: counts explode (the row total at n+r = 9 is already in the millions).
#: Defined here, in a module every command loads, for the CLI's help text.
DEFAULT_CAP = 9


class LahTriangle:
    """Cells G(n, k) for one fixed distinguished count r, filled on demand.

    With no weights the cells are symbolic.  G(n, k) is homogeneous of
    degree n - k in a and b, so a row is filled as vectors c with c[i] the
    coefficient of a^i * b^(n-k-i), and a*n + b*k + (a+b)*r = a*(n+r) +
    b*(k+r) makes one step ``new[i] = lo[i] + (n+r)*hi[i-1] + (k+r)*hi[i]``
    with lo = G(n, k-1) and hi = G(n, k).  Only the last row's vectors are
    kept; each cell is stored once as its Polynomial.  Two int weights give
    that specialisation's integer triangle, filled by the scalar recurrence.
    Stored rows are never mutated, so readers share them.
    """

    def __init__(self, r: int, a: int | None = None, b: int | None = None) -> None:
        if r < 0:
            raise ValueError("r must be nonnegative")
        if not (a is None and b is None or isinstance(a, int) and isinstance(b, int)):
            raise ValueError(f"weights must be two ints or none, not a={a!r}, b={b!r}")
        self.r, self._a, self._b = r, a, b
        self._zero, self._last = (ZERO, [[1]]) if a is None else (0, [1])
        self._rows: list[list[Polynomial] | list[int]] = [[ONE] if a is None else self._last]

    @property
    def max_n(self) -> int:
        return len(self._rows) - 1

    def poly(self, n: int, k: int) -> Polynomial | int:
        """The cell value; zero for out-of-range (n, k)."""
        if n < 0 or k < 0 or k > n:
            return self._zero
        rows = self._rows
        while len(rows) <= n:
            self._extend()
        return rows[n][k]

    def _extend(self) -> None:
        n, r, a, b, prev = self.max_n, self.r, self._a, self._b, self._last
        if a is None:
            up = n + r
            self._last = [[x + up * y + (k + r) * z for x, y, z in zip(lo, [0, *hi], [*hi, 0])]
                          for k, (lo, hi) in enumerate(zip([[0] * (n + 2), *prev], prev))]
            self._last.append([1])
            self._rows.append([Polynomial.homogeneous_ab(c) for c in self._last])
        else:
            self._last = [lo + (a * n + b * k + (a + b) * r) * hi
                          for k, (lo, hi) in enumerate(zip([0, *prev], [*prev, 0]))]
            self._rows.append(self._last)


class TriangleStore:
    """The triangles every reader shares: the symbolic LahTriangle of each
    r, keyed by r, and the integer one of each specialisation, keyed by
    (r, a, b).

    ``corrupt_cell`` adds a constant offset to a single cell at read time,
    which is how the fault-injection tests prove that a check, the oracle
    or a closed form actually reads the cell.  ``g`` and ``g_int`` add the
    same offset, and the swapped-weight, t-weighted and negated-t readings
    of the orthogonality checks are derived from the plain cells by
    variable substitution, so a corrupted cell poisons every reading alike.
    Those readings, the row sums and the identities' split tails are memoised
    in one map keyed by kind and ints (``_memo``), which ``corrupt_cell`` clears.
    """

    def __init__(self) -> None:
        self._triangles: dict[int | tuple[int, int, int], LahTriangle] = {}
        self._offsets: dict[tuple[int, int, int], int] = {}
        self._derived: dict[tuple, Polynomial] = {}

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
        return cell + self._offsets.get((r, n, k), 0) if self._offsets else cell

    def _memo(self, key: tuple, compute: Callable[[], Polynomial]) -> Polynomial:
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
        if not (isinstance(a_val, int) and isinstance(b_val, int)):
            raise ValueError(f"inexact weights a={a_val!r}, b={b_val!r}")
        key = (r, a_val, b_val)
        tri = self._triangles.get(key)
        if tri is None:
            tri = self._triangles[key] = LahTriangle(r, a_val, b_val)
        cell = tri.poly(n, k)
        return cell + self._offsets.get((r, n, k), 0) if self._offsets else cell

    def row_sum(self, n: int, r: int) -> Polynomial:
        """Sum of row n over all block counts k."""
        return self._memo(("row", n, r), lambda: sum_of_products(
            (1, self.g(n, k, r), ONE) for k in range(n + 1)))

    def row_sum_marked(self, n: int, r: int) -> Polynomial:
        """Row sum with x marking the number of non-distinguished blocks."""
        return self._memo(("marked", n, r), lambda: sum_of_products(
            (1, self.g(n, k, r), X ** k) for k in range(n + 1)))


#: The store every reader uses; replacing it (or corrupting one of its
#: cells) reaches every path.
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
    return range_product(base, 1, count).as_int()


def falling_factorial(base: int, count: int) -> int:
    """base * (base-1) * ... * (base-count+1); empty product is 1."""
    return range_product(base, -1, count).as_int()
