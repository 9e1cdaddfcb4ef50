"""Exact scalar values with structural equality.

LogPoly, a finite sum of c * R^a * lam^b * (log R)^i * (log lam)^j, is the
scalar of the formal perturbation backend in fqft.deformation.  (The free
boson's exact scalars are ints and Fractions.)

It is immutable: no operation changes an operand, so a result may share an
operand's dict, or be the operand itself.  That makes the common products
exponent shifts.  A LogPoly times a monomial with coefficient 1 (the int 1)
moves every key and reuses the coefficients, and a zero shift returns the
operand; dilation is such a shift in lam and log(lam).

Also holds the JSON scalar codec that every report and golden file uses.
"""

from __future__ import annotations

import math
from fractions import Fraction


def canonical_exponent(x):
    """A rational exponent, as an int when integral: keys holding it then
    hash as fast as tuples of ints (hashing a Fraction is slow)."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _rational(c):
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _key(a, b, i, j):
    if i < 0 or j < 0:
        raise ValueError("log powers must be non-negative")
    return (canonical_exponent(a), canonical_exponent(b), int(i), int(j))


class LogPoly:
    """Exact finite sum  sum_k c_k * R^a * lam^b * (log R)^i * (log lam)^j.

    The scalars of the formal perturbation backend.  `terms` maps
    (a, b, i, j) to a nonzero rational c (int or Fraction), with rational
    powers a, b (ints when integral) and log powers i, j >= 0.  Zero stores
    no terms, so equality and the zero test are structural.  Closed under
    +, -, * and the radius substitution R -> lam R (`scale_radius`).

    Immutable: `terms` is never changed after construction, and results may
    share it.  Multiplying by a monomial whose coefficient is the int 1 is an
    exponent shift that reuses the coefficients; the zero shift returns self.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for (a, b, i, j), c in (terms or {}).items():
            key = _key(a, b, i, j)
            c = self.terms.pop(key, 0) + _rational(c)
            if c:
                self.terms[key] = c

    @classmethod
    def _of(cls, terms):
        """Wrap a zero-free dict with canonical keys, unchecked."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def monomial(cls, coeff=1, R=0, lam=0, log_R=0, log_lam=0) -> "LogPoly":
        """coeff * R^R * lam^lam * (log R)^log_R * (log lam)^log_lam."""
        coeff = _rational(coeff)
        return cls._of({_key(R, lam, log_R, log_lam): coeff} if coeff else {})

    @staticmethod
    def _coerce(x) -> "LogPoly | None":
        if isinstance(x, LogPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LogPoly._of({(0, 0, 0, 0): x} if x else {})
        return None

    def __add__(self, other):
        other = LogPoly._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            if key in terms:
                c = terms[key] + c
                if c:
                    terms[key] = c
                else:
                    del terms[key]
            else:
                terms[key] = c
        return LogPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return LogPoly._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = LogPoly._coerce(other)
        return NotImplemented if other is None else self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return LogPoly._of({})
            return LogPoly._of({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, LogPoly):
            return NotImplemented
        if len(self.terms) == 1 < len(other.terms):
            self, other = other, self
        if len(other.terms) != 1:
            out = LogPoly._of({})
            for key, c in other.terms.items():
                out = out + self * LogPoly._of({key: c})
            return out
        ((a2, b2, i2, j2), c2), = other.terms.items()
        unit = type(c2) is int and c2 == 1  # a unit monomial only shifts exponents
        if unit and not (a2 or b2 or i2 or j2):
            return self
        return LogPoly._of(
            {
                (canonical_exponent(a + a2), canonical_exponent(b + b2), i + i2, j + j2): (
                    c if unit else c * c2
                )
                for (a, b, i, j), c in self.terms.items()
            }
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def scale_radius(self) -> "LogPoly":
        """The substitution R -> lam R: R^a -> lam^a R^a and
        (log R)^i -> (log R + log lam)^i, expanded binomially."""
        terms = {}
        for (a, b, i, j), c in self.terms.items():
            b = canonical_exponent(a + b)
            for k in range(i + 1):
                key = (a, b, k, j + i - k)
                terms[key] = terms.get(key, 0) + c * math.comb(i, k)
        return LogPoly._of({key: c for key, c in terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = LogPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        """One term prints as sympy prints it ("-7*log(lam)/2", "-5/(2*R**2)"),
        except that a lone inverse power reads "1/lam**2"; several terms are
        joined in a fixed order."""
        out = ""
        for key in sorted(self.terms, reverse=True):
            term = _monomial_str(self.terms[key], key)
            if not out:
                out = term
            elif term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out or "0"

    __repr__ = __str__


def _monomial_str(c, key):
    num, den = [], []
    for name, e in zip(("R", "lam", "log(R)", "log(lam)"), key):
        if e:
            power = "" if abs(e) == 1 else f"**{abs(e)}" if type(e) is int else f"**({abs(e)})"
            (num if e > 0 else den).append(name + power)
    if abs(c.numerator) != 1 or not num:
        num.insert(0, str(abs(c.numerator)))
    if c.denominator != 1:
        den.insert(0, str(c.denominator))
    text = "*".join(num)
    if den:
        text += "/" + (den[0] if len(den) == 1 else "(" + "*".join(den) + ")")
    return "-" + text if c < 0 else text


def encode_scalar(x):
    """The one JSON form of a scalar: a Fraction is its str ("p/q", "3" when
    integral), numpy values become Python numbers, bool/int/float/str/None
    pass through, and anything else (a LogPoly) is its str."""
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "tolist"):  # numpy scalar or array, duck-typed so numpy stays unimported
        return x.tolist()
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


# Bound on a decoded string, checked before Fraction expands it: at most
# this many characters, and a decimal exponent of at most this magnitude.
# Fraction("1e999999999") would build a billion-digit integer; within the
# bound a value has at most 2 000 digits.  (JSON ints come parsed already.)
SCALAR_MAX_DIGITS = 1000


def decode_scalar(x):
    """Inverse of encode_scalar on exact values: str and int become
    Fractions, floats are left alone.  A bool is not a number and raises
    ValueError, as does a string past SCALAR_MAX_DIGITS; a zero denominator
    raises ZeroDivisionError."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is a bool, not a number")
    if isinstance(x, str):
        if len(x) > SCALAR_MAX_DIGITS:
            raise ValueError(f"a scalar string of more than {SCALAR_MAX_DIGITS} characters")
        _, e, exponent = x.lower().partition("e")
        if e and abs(int(exponent)) > SCALAR_MAX_DIGITS:
            raise ValueError(f"{x!r} has a decimal exponent beyond {SCALAR_MAX_DIGITS}")
    return Fraction(x) if isinstance(x, (str, int)) else x
