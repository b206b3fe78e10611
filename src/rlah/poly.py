"""Exact sparse polynomial arithmetic over the fixed variable set {a, b, x, t}.

A polynomial is a mapping from exponent 4-tuples (deg_a, deg_b, deg_x,
deg_t) to nonzero arbitrary-precision integer coefficients; the zero
polynomial is the empty mapping.  Every operation returns this canonical
form (no zero coefficient is ever stored), so structural equality is
exact polynomial equality and is the only equality the identity suite
relies on.  Coefficients are plain Python ints, never floats: several of
the quantities computed downstream (row sums of the weight triangles, for
instance) grow superexponentially.  The constructor rejects any exponent
or coefficient that is not an int.  There is one product loop,
``sum_of_products``: ``*`` is its one-term case.

Text rendering is deterministic -- terms in descending lexicographic
order of the exponent tuples, e.g. ``2*a*b + 3*b^2`` -- and is shared by
the CLI and the golden tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache

VARIABLES = ("a", "b", "x", "t")

Monomial = tuple[int, int, int, int]

_CONST: Monomial = (0, 0, 0, 0)

#: One key per distinct monomial, shared by every product: the products a
#: process keeps (memoised sums, cached tails) hold no copies of it.
_MONOMIALS: dict[Monomial, Monomial] = {}


@lru_cache(maxsize=None)
def _factor_text(mono: Monomial) -> str:
    """The variable part of a term, e.g. ``a^3*b^2``; empty for a constant."""
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(VARIABLES, mono) if e)


@lru_cache(maxsize=None)
def _ab_monomials(degree: int) -> tuple[Monomial, ...]:
    return tuple((i, degree - i, 0, 0) for i in range(degree + 1))


class Polynomial:
    """Immutable sparse polynomial in a, b, x, t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        data: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != 4 or any(not isinstance(e, int) or e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono!r}")
                if not isinstance(coeff, int):
                    raise ValueError(f"inexact coefficient {coeff!r}")
                if coeff:
                    data[tuple(mono)] = coeff
        self._terms = data

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({_CONST: value}) if value else cls()

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        idx = VARIABLES.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(4))
        return cls({mono: 1})

    @classmethod
    def homogeneous_ab(cls, coeffs: list[int]) -> "Polynomial":
        """``sum_i coeffs[i] * a^i * b^(d-i)``, d = len(coeffs) - 1, from trusted ints."""
        result = cls.__new__(cls)
        result._terms = {m: c for m, c in zip(_ab_monomials(len(coeffs) - 1), coeffs) if c}
        return result

    # ------------------------------------------------------------------
    # inspection

    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self, var: str | None = None) -> int:
        """Max exponent of ``var``, or max total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        if var is None:
            return max(sum(m) for m in self._terms)
        idx = VARIABLES.index(var)
        return max(m[idx] for m in self._terms)

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if not self._terms:
            return 0
        if set(self._terms) != {_CONST}:
            raise ValueError(f"not a constant polynomial: {self}")
        return self._terms[_CONST]

    # ------------------------------------------------------------------
    # equality / hashing

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # ring operations

    @staticmethod
    def _coerce(value: "Polynomial | int") -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        if isinstance(value, int):
            return Polynomial.constant(value)
        return NotImplemented

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        result = Polynomial.__new__(Polynomial)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Polynomial | int") -> "Polynomial":
        return (-self) + other

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            result = Polynomial.__new__(Polynomial)
            result._terms = {m: c * other for m, c in self._terms.items()} if other else {}
            return result
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        acc = ONE
        for _ in range(exponent):
            acc = acc * self
        return acc

    # ------------------------------------------------------------------
    # substitution

    def eval(self, **bindings: int) -> "Polynomial":
        """``substitute`` with an int for each named variable, and nothing else.

        A full binding yields a constant polynomial (read it with
        ``as_int``).  An unknown name raises KeyError, and then a value that
        is not an int raises ValueError, as in the constructor.
        """
        return self.substitute(int, **bindings)

    def substitute(self, kinds: type | tuple | None = None, /,
                   **replacements: "Polynomial | int") -> "Polynomial":
        """Substitute an int or a polynomial for each named variable, all at once.

        The one substitution routine, a ring homomorphism: each term's
        coefficient is multiplied by every replacement raised to the
        variable's exponent, and the product is shifted by the variables
        left in place.  Names are checked in order, each before its value:
        an unknown name raises KeyError, a value that is not an instance
        of ``kinds`` (int or Polynomial; ``eval`` passes int) ValueError.
        """
        pairs = []
        for name, value in replacements.items():
            if name not in VARIABLES:
                raise KeyError(f"unknown variable {name!r}")
            if not isinstance(value, kinds or (int, Polynomial)):
                raise ValueError(f"inexact binding {name}={value!r}")
            pairs.append((VARIABLES.index(name), value))
        if not pairs:
            return self
        out: dict[Monomial, int] = {}
        for mono, coeff in self._terms.items():
            rest, value = list(mono), coeff
            for idx, base in pairs:
                if rest[idx]:
                    value = value * base ** rest[idx]
                    rest[idx] = 0
            terms = value._terms.items() if isinstance(value, Polynomial) else ((_CONST, value),)
            for m, c in terms:
                key = (rest[0] + m[0], rest[1] + m[1], rest[2] + m[2], rest[3] + m[3])
                acc = out.get(key, 0) + c
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    def swap_ab(self) -> "Polynomial":
        """Exchange the roles of the a and b variables."""
        result = Polynomial.__new__(Polynomial)
        result._terms = {(m[1], m[0], m[2], m[3]): c for m, c in self._terms.items()}
        return result

    # ------------------------------------------------------------------
    # rendering / pickling

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in sorted(self._terms.items(), reverse=True):
            factors, mag = _factor_text(mono), abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append(("- " if coeff < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"


def sum_of_products(terms: Iterable[tuple[int, Polynomial, Polynomial]]) -> Polynomial:
    """``sum c * p * q`` over the ``(c, p, q)`` triples, all into one dict, with
    zero coefficients dropped once at the end; an empty sum is zero."""
    out: dict[Monomial, int] = {}
    get = out.get
    for scale, left, right in terms:
        pairs = right._terms.items()
        for (a1, b1, x1, t1), c1 in left._terms.items():
            c1 *= scale
            for (a2, b2, x2, t2), c2 in pairs:
                mono = (a1 + a2, b1 + b2, x1 + x2, t1 + t2)
                out[mono] = get(mono, 0) + c1 * c2
    result = Polynomial.__new__(Polynomial)
    result._terms = {_MONOMIALS.setdefault(m, m): c for m, c in out.items() if c}
    return result


ZERO = Polynomial()
ONE = Polynomial.constant(1)
A = Polynomial.variable("a")
B = Polynomial.variable("b")
X = Polynomial.variable("x")
T = Polynomial.variable("t")


@lru_cache(maxsize=None)
def range_product(base: Polynomial | int, step: Polynomial | int, count: int) -> Polynomial:
    """Return ``prod_{i=0}^{count-1} (base + i*step)``; an empty product is 1.

    With integer base and step this is the rising factorial (step=1) or
    falling factorial (step=-1) written symbolically.  The product is a
    pure function of immutable arguments, so every result is cached; the
    identity checks ask for the same few hundred tail products many times.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    base = Polynomial._coerce(base)
    step = Polynomial._coerce(step)
    acc = ONE
    for i in range(count):
        acc = acc * (base + step * i)
    return acc


@lru_cache(maxsize=None)
def ab_range_product(p: int, q: int, count: int) -> Polynomial:
    """``prod_{l<count} (a*(p+l) + b*q)``, cached on its ints: a hit hashes no polynomial."""
    return range_product(A * p + B * q, A, count)
