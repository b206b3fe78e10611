"""Triangle values, boundaries, specializations, and structural invariants."""

import math

import pytest

from rlah.lah_core import (LahTriangle, TriangleStore, binomial, falling_factorial,
                           g_eval, g_poly, r_lah, r_stirling_cycle, r_stirling_subset,
                           rising_factorial, row_sum_marked, row_sum_poly)
from rlah.poly import A, B, ONE, X, ZERO, range_product


def test_boundary_values():
    assert g_poly(0, 0, 5) == ONE
    assert g_poly(0, 1, 5) == ZERO
    assert g_poly(1, 0, 2) == 2 * A + 2 * B
    assert g_poly(3, -1, 0) == ZERO
    assert g_poly(2, 3, 1) == ZERO


def test_zero_column_is_the_stated_product():
    for r in range(4):
        for n in range(7):
            assert g_poly(n, 0, r) == range_product((A + B) * r, A, n)


def test_first_column_instances():
    # one recurrence step: G(2,1;r) = (a+b)(2r+1)
    assert g_poly(2, 1, 0) == A + B
    assert g_poly(2, 1, 1) == 3 * (A + B)
    assert g_poly(2, 1, 2) == 5 * (A + B)


@pytest.mark.parametrize("n,k,r,a,b,value", [
    (3, 1, 0, 1, 1, 6),    # plain Lah number L(3,1)
    (4, 2, 0, 0, 1, 7),    # subset number S(4,2)
    (2, 1, 1, 1, 1, 6),    # level-1 column shift: equals L(3,2)
    (4, 2, 0, 1, 0, 11),   # unsigned cycle number c(4,2)
    (3, 2, 0, 0, 1, 3),
])
def test_spot_values(n, k, r, a, b, value):
    assert g_eval(n, k, r, a, b) == value


def test_specialization_wrappers():
    assert r_lah(2, 2, 3) == 1
    assert r_stirling_cycle(4, 2, 0) == 11
    assert r_stirling_subset(3, 2, 0) == 3


def test_level_one_column_shift():
    # distinguishing a single element is no restriction
    for n in range(8):
        for k in range(n + 1):
            assert r_lah(n, k, 1) == r_lah(n + 1, k + 1, 0)
            assert g_poly(n, k, 1) != ZERO or k > n


def test_row_sums():
    for r in range(3):
        assert row_sum_poly(0, r) == ONE
    bell = [row_sum_poly(n, 0).eval(a=0, b=1).as_int() for n in range(6)]
    assert bell == [1, 1, 2, 5, 15, 52]
    lists = [row_sum_poly(n, 0).eval(a=1, b=1).as_int() for n in range(6)]
    assert lists == [1, 1, 3, 13, 73, 501]


def test_row_sum_marked():
    for r in range(3):
        assert row_sum_marked(0, r) == ONE
    assert row_sum_marked(1, 0) == X
    for n in range(9):
        for r in range(3):
            assert row_sum_marked(n, r).eval(x=1) == row_sum_poly(n, r)


def test_homogeneous_of_degree_n_minus_k():
    for r in range(3):
        for n in range(7):
            for k in range(n + 1):
                cell = g_poly(n, k, r)
                if cell == ZERO:
                    # only the empty-block column at r = 0 vanishes in range
                    assert r == 0 and k == 0 and n >= 1
                    continue
                assert cell.degree() == n - k
                for mono, coeff in cell.terms().items():
                    assert mono[0] + mono[1] == n - k
                    assert mono[2] == mono[3] == 0
                    assert coeff > 0


def test_empty_distribution_edge():
    for n in range(1, 6):
        assert g_poly(n, 0, 0) == ZERO
    for r in range(4):
        for n in range(6):
            assert g_poly(n, n, r) == ONE


def test_independent_fills_agree():
    first = LahTriangle(2)
    second = LahTriangle(2)
    _ = first.poly(7, 3)  # forces a deep fill in one order
    for n in range(8):
        for k in range(n + 1):
            assert first.poly(n, k) == second.poly(n, k)


INTEGER_WEIGHTS = ((1, 1), (1, 0), (0, 1), (2, 3), (3, 2), (-1, 2), (0, 0))


@pytest.mark.parametrize("delta", [0, 4, -3])
def test_integer_triangles_agree_with_the_evaluated_cells(delta):
    # the integer triangles run the recurrence over ints, never reading a
    # symbolic cell; evaluating the symbolic cell is the independent side
    clean, store = TriangleStore(), TriangleStore()
    if delta:
        store.corrupt_cell(2, 5, 3, delta)
    for r in range(4):
        for n in range(13):
            for k in range(n + 1):
                for a_val, b_val in INTEGER_WEIGHTS:
                    value = store.g_int(n, k, r, a_val, b_val)
                    assert value == store.g(n, k, r).eval(a=a_val, b=b_val).as_int()
                    moved = delta if (r, n, k) == (2, 5, 3) else 0
                    assert value - clean.g_int(n, k, r, a_val, b_val) == moved


@pytest.mark.parametrize("bad", [1.5, 1.0, None, A])
def test_integer_readings_refuse_inexact_weights(bad):
    store = TriangleStore()
    store.g_int(2, 1, 0, 1, 1)  # a filled (1, 1) triangle must not answer for 1.0
    for weights in ((bad, 1), (1, bad)):
        with pytest.raises(ValueError):
            store.g_int(2, 1, 0, *weights)
        with pytest.raises(ValueError):
            g_eval(2, 1, 0, *weights)
    assert g_eval(3, 1, 0, True, False) == g_eval(3, 1, 0, 1, 0) == 2


def test_triangle_rejects_negative_r():
    with pytest.raises(ValueError):
        LahTriangle(-1)


@pytest.mark.parametrize("weights", [(1.5, 1), (1, 1.0), (A, 2), (A, B), (1, None), (None, 2)])
def test_triangle_takes_no_weights_or_two_ints(weights):
    with pytest.raises(ValueError):
        LahTriangle(1, *weights)


def test_triangle_takes_bool_weights_as_ints():
    assert LahTriangle(1, True, False).poly(3, 1) == LahTriangle(1, 1, 0).poly(3, 1) == 11


def _generic_rows(r, n_max):
    """The recurrence run cell by cell over sparse Polynomial weights."""
    rows = [{0: ONE}]
    for n in range(n_max):
        prev = rows[-1]
        rows.append({k: prev.get(k - 1, ZERO) + (A * n + B * k + (A + B) * r) * prev.get(k, ZERO)
                     for k in range(n + 2)})
    return rows


@pytest.mark.parametrize("r", range(4))
def test_vector_fill_equals_the_generic_polynomial_recurrence(r):
    triangle = LahTriangle(r)
    for n, row in enumerate(_generic_rows(r, 40)):
        for k in range(n + 1):
            assert triangle.poly(n, k) == row[k], (n, k)


def test_binomial_against_math_comb():
    for n in range(15):
        for k in range(-2, n + 3):
            expected = math.comb(n, k) if 0 <= k <= n else 0
            assert binomial(n, k) == expected
    assert binomial(-1, 0) == 0
    # far past any recursion limit
    assert binomial(3000, 1500) == math.comb(3000, 1500)
    assert binomial(3000, 3000) == binomial(3000, 0) == 1
    for n, k in ((3000, 3001), (3000, -1), (-1, -1), (-3, 2)):
        assert binomial(n, k) == 0


def test_factorials():
    assert rising_factorial(3, 0) == 1
    assert rising_factorial(3, 3) == 3 * 4 * 5
    assert rising_factorial(0, 2) == 0
    assert falling_factorial(4, 2) == 12
    assert falling_factorial(2, 3) == 0
    with pytest.raises(ValueError):
        rising_factorial(1, -1)
