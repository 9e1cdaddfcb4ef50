"""LogPoly, the formal backend's exact scalar, against sympy as an oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqft.scalars import LogPoly

R, LAM = sympy.symbols("R lam", positive=True)

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
keys = st.tuples(rationals, rationals, st.integers(0, 3), st.integers(0, 3))
# few distinct keys and small coefficients, so sums and products often cancel
term_dicts = st.dictionaries(keys, st.integers(-3, 3).map(Fraction), max_size=4)


def to_sympy(terms):
    """The sympy expression of a LogPoly's term dict, term by term."""
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * R ** sympy.Rational(a)
            * LAM ** sympy.Rational(b)
            * sympy.log(R) ** i
            * sympy.log(LAM) ** j
            for (a, b, i, j), c in terms.items()
        )
    )


def same(x: LogPoly, expr) -> bool:
    return sympy.expand(to_sympy(x.terms) - expr) == 0


@settings(max_examples=150, deadline=None)
@given(term_dicts, term_dicts, st.booleans())
def test_arithmetic_matches_sympy(t1, t2, related):
    if related:  # y = x + (something that may vanish), so x == y happens
        t2 = {**t1, **{k: t1.get(k, 0) + c for k, c in t2.items()}}
    x, y = LogPoly(t1), LogPoly(t2)
    X, Y = to_sympy(t1), to_sympy(t2)
    assert same(x, X) and same(y, Y)
    assert same(x + y, X + Y)
    assert same(x - y, X - Y)
    assert same(x * y, X * Y)
    assert same(3 * x - Fraction(1, 2) + y / 7, 3 * X - sympy.Rational(1, 2) + Y / 7)
    scaled = sympy.expand_log(X.subs(R, LAM * R), force=True)
    assert same(x.scale_radius(), scaled)
    assert x.is_zero() == (sympy.expand(X) == 0)
    assert (x == y) == (sympy.expand(X - Y) == 0)
    assert (x - y).is_zero() == (x == y)
    # zero is canonical: no term is ever stored with coefficient 0
    for v in (x, y, x + y, x - y, x * y, x.scale_radius()):
        assert all(c != 0 for c in v.terms.values())


@settings(max_examples=100, deadline=None)
@given(term_dicts, keys, st.integers(-3, 3).filter(bool))
def test_powers_match_sympy(terms, key, c):
    x = LogPoly(terms)
    assert same(x**3, to_sympy(terms) ** 3)
    a, b, _, _ = key
    m = LogPoly.monomial(c, R=a, lam=b)
    M = c * R ** sympy.Rational(a) * LAM ** sympy.Rational(b)
    assert same(m**-2, M**-2)
    assert same(1 / m, 1 / M)


def test_rational_equality():
    assert LogPoly() == 0 and 0 == LogPoly() and LogPoly().is_zero()
    assert LogPoly.monomial(Fraction(3, 2)) == Fraction(3, 2)
    assert LogPoly.monomial(log_R=1) != 0
    # integral exponents are stored as ints, whatever type they came in as
    assert list(LogPoly.monomial(R=Fraction(4, 2), lam=Fraction(1, 2)).terms) == [
        (2, Fraction(1, 2), 0, 0)
    ]
    with pytest.raises(ValueError):
        LogPoly.monomial(log_lam=1) ** -1


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-7, 2), "-7*log(lam)/2"),
        (Fraction(3), "3*log(lam)"),
        (Fraction(-1, 2), "-log(lam)/2"),
        (Fraction(1), "log(lam)"),
        (Fraction(-1), "-log(lam)"),
        (Fraction(5, 3), "5*log(lam)/3"),
    ],
)
def test_log_lam_multiples_print_as_sympy(value, text):
    x = value * LogPoly.monomial(log_lam=1)
    assert str(x) == text == str(sympy.Rational(value) * sympy.log(LAM))
