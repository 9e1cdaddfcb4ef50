"""LogPoly, the formal backend's exact scalar, against sympy as an oracle;
its exponent-shift fast path against a reference copy of the general rule."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqft.rexp import LogPoly
from fqft.scalars import canonical_exponent

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
    assert same(3 * x - LogPoly.monomial(Fraction(1, 2)) + y / 7, 3 * X - sympy.Rational(1, 2) + Y / 7)
    scaled = sympy.expand_log(X.subs(R, LAM * R), force=True)
    assert same(x.scale_radius(), scaled)
    assert x.is_zero() == (sympy.expand(X) == 0)
    assert (x == y) == (sympy.expand(X - Y) == 0)
    assert (x - y).is_zero() == (x == y)
    # zero is canonical: no term is ever stored with coefficient 0
    for v in (x, y, x + y, x - y, x * y, x.scale_radius()):
        assert all(c != 0 for c in v.terms.values())


def test_rational_equality():
    assert LogPoly() == 0 and 0 == LogPoly() and LogPoly().is_zero()
    assert LogPoly.monomial(Fraction(3, 2)) == Fraction(3, 2)
    assert LogPoly.monomial(log_R=1) != 0
    # integral exponents are stored as ints, whatever type they came in as
    assert list(LogPoly.monomial(R=Fraction(4, 2), lam=Fraction(1, 2)).terms) == [
        (2, Fraction(1, 2), 0, 0)
    ]
    # a LogPoly divides by a rational only
    with pytest.raises(TypeError):
        LogPoly.monomial(1) / LogPoly.monomial(R=1)


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


# ------------------------------------------- fast paths against the general rules


def _typed(terms):
    """A term dict with each coefficient's type, so int and Fraction differ."""
    return sorted(((repr(k), type(c).__name__, c) for k, c in terms.items()))


def _general_monomial_product(x, key, c2):
    """x * c2 R^a lam^b (log R)^i (log lam)^j by the general rule: shift every
    key and multiply every coefficient, unit or not."""
    a2, b2, i2, j2 = key
    return LogPoly._of(
        {
            (canonical_exponent(a + a2), canonical_exponent(b + b2), i + i2, j + j2): c * c2
            for (a, b, i, j), c in x.terms.items()
        }
    )


# the unit, dilation's comb(q, j) > 1, and rationals (Fraction(1) among them)
monomial_coeffs = st.one_of(
    st.sampled_from([1, math.comb(2, 1), math.comb(3, 1), math.comb(4, 2)]),
    rationals.filter(bool),
)


@settings(max_examples=200, deadline=None)
@given(term_dicts, keys, monomial_coeffs)
@example(terms={}, key=(Fraction(0), Fraction(0), 0, 0), c2=Fraction(1))
def test_monomial_product_matches_general_rule(terms, key, c2):
    x = LogPoly(terms)
    mono = LogPoly.monomial(c2, *key)
    (mono_key, mono_coeff), = mono.terms.items()
    want = _general_monomial_product(x, mono_key, mono_coeff)
    for got in (x * mono, mono * x):
        assert got == want and repr(got) == repr(want)
        assert _typed(got.terms) == _typed(want.terms)
    # only the int unit returns the operand itself; Fraction(1) builds a new
    # value, checked above for its terms and coefficient types
    if mono == 1 and type(mono_coeff) is int:
        assert x * mono is x and x * 1 == x


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts, keys)
def test_shared_values_are_never_mutated(t1, t2, key):
    x, y = LogPoly(t1), LogPoly(t2)
    shared = [x * LogPoly.monomial(1), x * 1, x * LogPoly.monomial(1, *key)]
    before = [_typed(s.terms) for s in [x, *shared]]
    for s in shared:
        _ = [s + y, y + s, s - y, s * y, y * s, s * 3, -s, s.scale_radius(), s * s]
    assert [_typed(s.terms) for s in [x, *shared]] == before
