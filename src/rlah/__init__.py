"""Exact arithmetic for generalized r-Lah polynomials.

Weight triangles over contents-ordered set partitions with distinguished
elements, a brute-force enumeration oracle, an exact identity-verification
suite, and executable versions of the sign-reversing involutions and the
bijection that prove the alternating-sum identities.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so the command line,
which enters through :mod:`rlah.cli`, loads only what a command runs.
"""

__version__ = "0.1.0"

#: The module that defines each public name.
_HOME = {
    **dict.fromkeys(("LahDistribution", "SizeLimitError", "StatPair",
                     "enumerate_distributions", "oracle_g", "oracle_row", "record_lows",
                     "stats"), "distributions"),
    **dict.fromkeys(("CheckReport", "Checker", "InvalidParameters", "sweep_detailed"),
                    "identities"),
    **dict.fromkeys(("binomial", "falling_factorial", "g_eval", "g_poly", "r_lah",
                     "r_stirling_cycle", "r_stirling_subset", "rising_factorial",
                     "row_sum_marked", "row_sum_poly"), "lah_core"),
    **dict.fromkeys(("Polynomial", "range_product"), "poly"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
