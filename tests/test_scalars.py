"""LogPoly, the formal backend's exact scalar, against sympy as an oracle;
the exponent-shift and canonical-input fast paths of LogPoly and PowerValue
against reference copies of the general rules."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqft.scalars import LogPoly, PowerValue, _factorint, canonical_exponent

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


def _general_power_value(coeff=1, prime_exps=None):
    """PowerValue's fields by the general rule: sum each prime's exponent,
    fold its floor into the coefficient one power at a time, keep the
    fractional part."""
    coeff = Fraction(coeff)
    exps = {}
    for p, e in (prime_exps or {}).items():
        e = Fraction(e)
        if e:
            exps[p] = exps.get(p, Fraction(0)) + e
    kept = {}
    for p, e in sorted(exps.items()):
        whole = math.floor(e)
        if whole:
            coeff *= Fraction(p) ** whole
        if e - whole:
            kept[p] = e - whole
    if coeff == 0:
        kept = {}
    return coeff, kept


def _general_from_pow(base, exponent):
    base, exponent = Fraction(base), Fraction(exponent)
    exps = {}
    for p, k in _factorint(base.numerator).items():
        exps[p] = exps.get(p, Fraction(0)) + k * exponent
    for p, k in _factorint(base.denominator).items():
        exps[p] = exps.get(p, Fraction(0)) - k * exponent
    return _general_power_value(1, exps)


def _fields(x: PowerValue):
    assert type(x.coeff) is Fraction
    assert all(type(e) is Fraction and 0 < e < 1 for e in x.prime_exps.values())
    return x.coeff, x.prime_exps


# negative, integral, zero and canonical exponents; a zero coefficient
exponents = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 12]))
prime_dicts = st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), exponents, max_size=4)
coeffs = st.one_of(st.integers(-5, 5), rationals)
power_values = st.builds(PowerValue, coeffs, prime_dicts)


@settings(max_examples=200, deadline=None)
@given(coeffs, prime_dicts, exponents, st.integers(-3, 3), rationals)
def test_power_value_constructor_matches_general_rule(coeff, exps, t, k, q):
    x = PowerValue(coeff, exps)
    assert _fields(x) == _general_power_value(coeff, exps)
    assert _fields(PowerValue(coeff, {p: e.numerator for p, e in exps.items()})) == (
        _general_power_value(coeff, {p: e.numerator for p, e in exps.items()})
    )
    want = _general_power_value(x.coeff * q, x.prime_exps)
    assert _fields(x * q) == _fields(q * x) == want
    assert _fields(x * k) == _general_power_value(x.coeff * k, x.prime_exps)
    if q > 0:
        assert _fields(PowerValue.from_pow(q, t)) == _general_from_pow(q, t)


# positive bases with six-digit parts; negative, zero, integral and
# larger-than-1 exponents, as ints and as Fractions
bases = st.one_of(
    st.integers(1, 10**6), st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))
)
pow_exponents = st.one_of(
    st.integers(-5, 5), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24))
)


@settings(max_examples=200, deadline=None)
@given(bases, pow_exponents)
@example(1, Fraction(5, 12))
@example(Fraction(1, 4096), Fraction(1, 12))  # a twelfth power: no exponent left
@example(Fraction(9, 2), 0)
@example(Fraction(8, 27), Fraction(-7, 3))
def test_from_pow_fields_match_constructor(base, t):
    # from_pow writes the canonical fields itself; they are those the
    # constructor makes from the prime exponents +-k * t
    q = Fraction(base)
    exps = {p: k * Fraction(t) for p, k in _factorint(q.numerator).items()}
    exps.update((p, -k * Fraction(t)) for p, k in _factorint(q.denominator).items())
    x, want = PowerValue.from_pow(base, t), PowerValue(1, exps)
    assert _fields(x) == (want.coeff, want.prime_exps)
    assert repr(x) == repr(want) and hash(x) == hash(want)


@settings(max_examples=200, deadline=None)
@given(power_values, power_values)
def test_power_value_product_matches_general_rule(x, y):
    merged = dict(x.prime_exps)
    for p, e in y.prime_exps.items():
        merged[p] = merged.get(p, 0) + e
    want = _general_power_value(x.coeff * y.coeff, merged)
    assert _fields(x * y) == _fields(y * x) == want
    assert repr(x * y) == repr(PowerValue(*want))


@settings(max_examples=100, deadline=None)
@given(power_values, rationals)
def test_power_value_hash_agrees_with_equality(x, q):
    for value in (x, PowerValue(q), PowerValue.from_pow(4, Fraction(1, 2)) * q):
        if value == q:
            assert hash(value) == hash(q)
    assert hash(x) == hash(PowerValue(x.coeff, x.prime_exps))


def test_power_value_equal_to_rational_is_found_by_it():
    assert PowerValue(3) == 3 and hash(PowerValue(3)) == hash(3)
    assert {3: "x"}.get(PowerValue(3)) == "x"
    assert {Fraction(3, 2): "y"}.get(PowerValue(Fraction(3, 2))) == "y"
    root = PowerValue.from_pow(9, Fraction(1, 2))
    assert root == 3 and hash(root) == hash(3)
    assert PowerValue.from_pow(5, 0) == 1 and hash(PowerValue.from_pow(5, 0)) == hash(1)
    assert {PowerValue(0), 0, Fraction(0)} == {0}


def _snapshot(x):
    if isinstance(x, LogPoly):
        return _typed(x.terms)
    return (x.coeff, dict(x.prime_exps))


@settings(max_examples=100, deadline=None)
@given(term_dicts, term_dicts, keys, power_values, power_values, rationals)
def test_shared_values_are_never_mutated(t1, t2, key, u, v, q):
    x, y = LogPoly(t1), LogPoly(t2)
    shared = [x * LogPoly.monomial(1), x * 1, x * LogPoly.monomial(1, *key)]
    shared += [u * q, q * u, u * PowerValue.from_pow(2, q), u * PowerValue(q)]
    before = [_snapshot(s) for s in [x, u, *shared]]
    for s in shared:
        if isinstance(s, LogPoly):
            _ = [s + y, y + s, s - y, s * y, y * s, s * 3, -s, s.scale_radius(), s * s]
        else:
            _ = [s * v, v * s, s * s, s * q, s * 0]
    assert [_snapshot(s) for s in [x, u, *shared]] == before
