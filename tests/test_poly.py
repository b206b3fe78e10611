"""Ring axioms, substitution, and golden rendering for the polynomial core."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rlah.poly import (A, B, ONE, T, VARIABLES, X, ZERO, Polynomial, ab_range_product,
                       range_product, sum_of_products)

monomials = st.tuples(st.integers(0, 3), st.integers(0, 3),
                      st.integers(0, 2), st.integers(0, 2))
coefficients = st.integers(-9, 9)


@st.composite
def polynomials(draw, max_terms=4):
    terms = draw(st.dictionaries(monomials, coefficients, max_size=max_terms))
    return Polynomial(terms)


bindings = st.dictionaries(st.sampled_from(VARIABLES), st.integers(-5, 5), max_size=4)


def test_add_examples():
    assert (A + B) + (-B) == A
    assert ZERO + (A * B) == A * B
    assert 2 * A * B + 3 * A * B == 5 * A * B


def test_mul_examples():
    assert (A + B) * (A - B) == A * A - B * B
    assert (A + B) * ZERO == ZERO
    assert (A + B) * (A + B) == A ** 2 + 2 * A * B + B ** 2


def test_eval_examples():
    assert (A + B).eval(a=1, b=1).as_int() == 2
    assert (A ** 2 * B).eval(a=2) == 4 * B
    assert X.eval() == X
    assert (A + B).eval(**{"a": 3}, b=4).as_int() == 7


def test_eval_unknown_variable():
    with pytest.raises(KeyError):
        A.eval(q=1)
    with pytest.raises(KeyError):
        A.eval(q=1.5)  # the name is checked before the value


@pytest.mark.parametrize("value", [1.5, "2", B])
def test_eval_rejects_inexact_bindings(value):
    # int() would truncate 1.5 to 1 and parse "2" as 2; eval takes no polynomial
    with pytest.raises(ValueError):
        A.eval(a=value)


@pytest.mark.parametrize("binding", [{"a": 1.5}, {"b": "t"}])
def test_substitute_rejects_inexact_bindings(binding):
    (name, value), = binding.items()
    with pytest.raises(ValueError, match=f"{name}={value!r}"):
        A.substitute(**binding)


def test_as_int_rejects_non_constant():
    with pytest.raises(ValueError):
        (A + B).as_int()
    assert ZERO.as_int() == 0


@pytest.mark.parametrize("terms", [
    {(2.5, 0, 0, 0): 1},
    {(2.0, 0, 0, 0): 3},   # would equal and hash like 3*a^2 yet render a^2.0
    {(1, 0, 0, 0): 1.5},
    {(1, 0, 0, 0): 2.0},
    {(0, 0, 0, 0): 0.0},
    {(-1, 0, 0, 0): 1},
    {(1, 0, 0): 1},
])
def test_constructor_rejects_inexact_or_malformed_terms(terms):
    with pytest.raises(ValueError):
        Polynomial(terms)


@pytest.mark.parametrize("op", [lambda: A + "x", lambda: A - 1.5, lambda: A * None])
def test_arithmetic_refuses_inexact_operands(op):
    with pytest.raises(TypeError):
        op()


def test_equality_power_and_range_product_refusals():
    assert (A == "a") is False
    with pytest.raises(ValueError):
        A ** -1
    with pytest.raises(ValueError):
        range_product(A, B, -1)


def test_ab_range_product_is_the_rising_product_of_its_ints():
    for p in range(-2, 4):
        for q in range(-2, 4):
            expected = ONE
            for count in range(5):
                assert ab_range_product(p, q, count) == expected
                expected = expected * (A * (p + count) + B * q)


def test_products_share_one_key_per_monomial():
    first, second = (A + B) * X, sum_of_products([(2, X, B), (1, A, X)])
    assert list(map(id, sorted(first.terms()))) == list(map(id, sorted(second.terms())))


def test_range_product_examples():
    assert range_product(X, 1, 0) == ONE
    assert range_product(X, 1, 3) == X ** 3 + 3 * X ** 2 + 2 * X
    assert range_product(X, -B, 2) == X * (X - B)
    with pytest.raises(ValueError):
        range_product(X, 1, -1)


def test_substitute():
    p = A ** 2 + B
    assert p.substitute(a=-T) == T ** 2 + B
    assert p.substitute(b=T) == A ** 2 + T
    assert p.substitute(a=B, b=A) == B ** 2 + A  # all at once, not one after the other
    assert (2 * A * X + B).substitute(a=3, b=A + T) == 6 * X + A + T
    assert (A * B).swap_ab() == A * B
    assert (2 * A + 3 * B).swap_ab() == 3 * A + 2 * B


def test_degree():
    assert ZERO.degree() == -1
    assert (A ** 2 * B + X).degree() == 3
    assert (A ** 2 * B + X).degree("a") == 2
    assert (A + B).degree("x") == 0


def test_rendering_golden():
    assert str(ZERO) == "0"
    assert str(Polynomial.constant(7)) == "7"
    assert str(-B) == "-b"
    assert str(A + B) == "a + b"
    assert str(2 * A * B + 3 * B ** 2) == "2*a*b + 3*b^2"
    assert str(-3 * A ** 2) == "-3*a^2"
    assert str(X ** 2 - 5) == "x^2 - 5"
    # descending lexicographic on (a, b, x, t): the b*x term precedes x^2
    assert str(range_product(X, -B, 2)) == "-b*x + x^2"


def _reference_str(p):
    """The renderer as first written: a fresh factor list for every term."""
    terms = p.terms()
    if not terms:
        return "0"
    parts = []
    for mono in sorted(terms, reverse=True):
        coeff = terms[mono]
        factors = []
        for name, e in zip(VARIABLES, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if factors:
            body = "*".join(([str(mag)] if mag != 1 else []) + factors)
        else:
            body = str(mag)
        if not parts:
            parts.append(("-" if coeff < 0 else "") + body)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(parts)


def test_rendering_matches_the_reference_renderer():
    rng = random.Random(2014)
    seen = set()
    for _ in range(400):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in VARIABLES)
            terms[mono] = rng.choice((1, -1, rng.randint(-40, 40)))
        p = Polynomial(terms)
        assert str(p) == _reference_str(p)
        seen.update("constant" if not any(mono) else "unit" if abs(coeff) == 1
                    else "negative" if coeff < 0 else "other"
                    for mono, coeff in p.terms().items())
    assert seen == {"constant", "unit", "negative", "other"}


@given(p=polynomials(), q=polynomials(), w=polynomials())
@settings(deadline=None)
def test_ring_axioms(p, q, w):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + w == p + (q + w)
    assert (p * q) * w == p * (q * w)
    assert p * (q + w) == p * q + p * w


@given(p=polynomials())
@settings(deadline=None)
def test_self_cancellation(p):
    assert p - p == ZERO
    assert p * ONE == p
    assert p + ZERO == p


@given(p=polynomials(), q=polynomials(), sigma=bindings)
@settings(deadline=None)
def test_eval_is_homomorphism(p, q, sigma):
    assert (p + q).eval(**sigma) == p.eval(**sigma) + q.eval(**sigma)
    assert (p * q).eval(**sigma) == p.eval(**sigma) * q.eval(**sigma)
    # the int and the polynomial branch of the one routine agree
    assert p.substitute(**{name: Polynomial.constant(v) for name, v in sigma.items()}) \
        == p.eval(**sigma)


@given(base=polynomials(max_terms=2), step=polynomials(max_terms=2), m=st.integers(0, 12))
@settings(deadline=None, max_examples=30)
def test_range_product_recurrence(base, step, m):
    assert range_product(base, step, m + 1) == range_product(base, step, m) * (base + m * step)


@given(p=polynomials(), q=polynomials())
@settings(deadline=None)
def test_hash_consistent_with_eq(p, q):
    if p == q:
        assert hash(p) == hash(q)


def _pairwise_product(p, q):
    """The product loop of ``Polynomial.__mul__`` before it became one call of
    ``sum_of_products``: a coefficient that cancels is popped as it happens."""
    out = {}
    for m1, c1 in p.terms().items():
        for m2, c2 in q.terms().items():
            mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            acc = out.get(mono, 0) + c1 * c2
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
    return Polynomial(out)


@given(st.lists(st.tuples(st.integers(-3, 3), polynomials(), polynomials()), max_size=5))
@settings(deadline=None)
def test_sum_of_products_is_the_sum_of_pairwise_products(terms):
    # scales of 0 and below, and negative coefficients in both factors
    expected = ZERO
    for scale, p, q in terms:
        expected = expected + scale * _pairwise_product(p, q)
    result = sum_of_products(terms)
    assert result == expected
    assert 0 not in result.terms().values()


def test_sum_of_products_is_canonical():
    cancelled = sum_of_products([(1, A + B, A - B), (1, B, B), (-1, A, A)])
    assert cancelled == ZERO and cancelled.terms() == {}
    assert sum_of_products([]) == ZERO and sum_of_products(iter(())).terms() == {}
