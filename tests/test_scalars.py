"""LogPoly, the formal backend's exact scalar, against sympy as an oracle;
the values dilation's exponent shift shares are never mutated."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqft.deformation import _shift
from fqft.rexp import LogPoly, RExpansion
from fqft.scalars import canonical_rational
from formal_ref import logpoly_product

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
    assert same(logpoly_product(x, y), X * Y)  # the tests' reference product
    assert same(
        3 * x - LogPoly.monomial(Fraction(1, 2)) + Fraction(1, 7) * y,
        3 * X - sympy.Rational(1, 2) + Y / 7,
    )
    scaled = sympy.expand_log(X.subs(R, LAM * R), force=True)
    assert same(x.scale_radius(), scaled)
    assert x.is_zero() == (sympy.expand(X) == 0)
    assert (x == y) == (sympy.expand(X - Y) == 0)
    assert (x - y).is_zero() == (x == y)
    # zero is canonical: no term is ever stored with coefficient 0
    for v in (x, y, x + y, x - y, 0 * x, x.scale_radius()):
        assert all(c != 0 for c in v.terms.values())


def test_rational_equality():
    assert LogPoly() == 0 and 0 == LogPoly() and LogPoly().is_zero()
    assert LogPoly.monomial(Fraction(3, 2)) == Fraction(3, 2)
    assert LogPoly.monomial(log_R=1) != 0
    # integral exponents are stored as ints, whatever type they came in as
    assert list(LogPoly.monomial(R=Fraction(4, 2), lam=Fraction(1, 2)).terms) == [
        (2, Fraction(1, 2), 0, 0)
    ]
    # a rational scales a LogPoly from the left, as any Sparse value; two
    # LogPolys neither multiply nor divide, and a LogPoly does not divide
    x, y = LogPoly.monomial(3, R=1), LogPoly.monomial(lam=1)
    assert Fraction(1, 2) * x == LogPoly.monomial(Fraction(3, 2), R=1) and 0 * x == 0
    for op in (lambda: x * y, lambda: x / y, lambda: x / 2, lambda: x * 2):
        with pytest.raises(TypeError):
            op()


# a log power set through each constructor, read back from its one key
LOG_POWER_BUILDERS = {
    "LogPoly-log_R": (lambda q: LogPoly.monomial(2, log_R=q), 2),
    "LogPoly-log_lam": (lambda q: LogPoly.monomial(2, log_lam=q), 3),
    "RExpansion": (lambda q: RExpansion({(0, q): Fraction(2)}), 1),
}


@pytest.mark.parametrize("power", [0.5, Fraction(1, 2), 1.5, math.inf, math.nan, -1, -0.5])
@pytest.mark.parametrize("builder", LOG_POWER_BUILDERS)
def test_a_log_power_is_a_non_negative_integer(builder, power):
    # a fractional power is rejected, never truncated to the int below it
    build, _ = LOG_POWER_BUILDERS[builder]
    with pytest.raises(ValueError, match="log powers must be non-negative integers"):
        build(power)


@pytest.mark.parametrize("power", [1, 1.0, Fraction(2, 2), True])
@pytest.mark.parametrize("builder", LOG_POWER_BUILDERS)
def test_an_integral_log_power_is_stored_as_an_int(builder, power):
    build, slot = LOG_POWER_BUILDERS[builder]
    (key,) = build(power).terms
    assert key[slot] == 1 and type(key[slot]) is int


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


# ------------------------------------------------------------- shared values


def _typed(terms):
    """A term dict with each coefficient's type, so int and Fraction differ."""
    return sorted(((repr(k), type(c).__name__, c) for k, c in terms.items()))


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts, keys)
def test_shared_values_are_never_mutated(t1, t2, key):
    # dilation's exponent shift (deformation._shift) returns its operand when
    # nothing moves and otherwise reuses its coefficients
    x, y = LogPoly(t1), LogPoly(t2)
    _, lam, _, dj = key
    shared = [_shift(x, 0, 0, 1), 1 * x, _shift(x, canonical_rational(lam), dj, 1)]
    assert shared[0] is x
    before = [_typed(s.terms) for s in [x, *shared]]
    for s in shared:
        _ = [s + y, y + s, s - y, 3 * s, -s, s.scale_radius(), s - s]
    assert [_typed(s.terms) for s in [x, *shared]] == before
