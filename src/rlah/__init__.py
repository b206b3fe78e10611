"""Exact arithmetic for generalized r-Lah polynomials.

Weight triangles over contents-ordered set partitions with distinguished
elements, a brute-force enumeration oracle, an exact identity-verification
suite, and executable versions of the sign-reversing involutions and the
bijection that prove the alternating-sum identities.
"""

from .distributions import (LahDistribution, SizeLimitError, StatPair,
                            enumerate_distributions, oracle_g, oracle_row,
                            record_lows, stats)
from .identities import CheckReport, Checker, InvalidParameters, sweep_detailed
from .lah_core import (binomial, falling_factorial, g_eval, g_poly, r_lah,
                       r_stirling_cycle, r_stirling_subset, rising_factorial,
                       row_sum_marked, row_sum_poly)
from .poly import Polynomial, range_product

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "Checker", "InvalidParameters", "LahDistribution",
    "Polynomial", "SizeLimitError", "StatPair", "binomial",
    "enumerate_distributions", "falling_factorial", "g_eval", "g_poly",
    "oracle_g", "oracle_row", "r_lah", "r_stirling_cycle",
    "r_stirling_subset", "range_product", "record_lows", "rising_factorial",
    "row_sum_marked", "row_sum_poly", "stats", "sweep_detailed",
]
